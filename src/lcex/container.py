"""Versioned binary container for a built index.

Layout (version 4): magic "LCEX", version u16, flags u16, then
length-prefixed sections in fixed order, holding only what a query or the
leaf-string decoder reads:

- params: n, t, t', sigma, and the sentinel symbol, always 0 (any other
  value is a format error);
- tst: q, n, then leaf_lcp, the ranks and depths of the leaves shorter
  than q, and the sorted alphabet (no trie nodes: leaf strings decode
  through the navigation parents);
- navtree: t', n, parent (the root is its own parent), root, sampled;
- blockcode: t, n, and the isa and lcp of code(w) (neither code(w) nor its
  suffix array).  The difference cover is implied by t: version 4 lays
  code(w) out over the Wichmann-ruler cover, so a version 3 block code of
  the same length means a different layout and is rejected with its
  version;
- stats: the SpaceStats fields;
- packed, when flag bit 0 is set: the packed text, then its bit block code
  laid out as in blockcode.  No other flag bit is defined; a set one is a
  format error.

All integers are fixed-width little-endian.  Arrays carry a dtype tag
chosen deterministically from their value range, so serialize(load(b))
reproduces b byte for byte; bytes after the last field of a section or
after the last section are a format error.  Every array is range-checked
on load, one vectorized check each, so that it cannot index past a table.
Load rebuilds only the sparse tables over the leaf LCPs, the block code's
LCPs and, when packed, the packed block code's LCPs (each LCP array is its
table's level 0) and the navigation jump table, which also holds
``sampled``: per distinct sampled leaf, its ancestors at 0..t'-1 steps,
min(leaves, ceil(n/t')) * t' entries at most.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"LCEX"
VERSION = 4
FLAG_PACKED = 1

_DTYPES = {
    0: np.uint8, 1: np.uint16, 2: np.uint32, 3: np.uint64,
    4: np.int8, 5: np.int16, 6: np.int32, 7: np.int64,
}


def _pick_dtype(lo: int, hi: int) -> int:
    if lo >= 0:
        for code, top in ((0, 1 << 8), (1, 1 << 16), (2, 1 << 32)):
            if hi < top:
                return code
        return 3
    for code, bits in ((4, 8), (5, 16), (6, 32)):
        if -(1 << (bits - 1)) <= lo and hi < (1 << (bits - 1)):
            return code
    return 7


class _Writer:
    def __init__(self):
        self.buf = io.BytesIO()

    def u8(self, v): self.buf.write(struct.pack("<B", v))
    def u64(self, v): self.buf.write(struct.pack("<Q", v))
    def i64(self, v): self.buf.write(struct.pack("<q", v))

    def array(self, values) -> None:
        arr = np.asarray(values)
        if arr.size == 0:
            code = 0
        else:
            code = _pick_dtype(int(arr.min()), int(arr.max()))
        out = arr.astype(_DTYPES[code])
        self.u8(code)
        self.u64(out.size)
        self.buf.write(out.astype(out.dtype.newbyteorder("<")).tobytes())

    def getvalue(self) -> bytes:
        return self.buf.getvalue()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _read(self, n: int) -> bytes:
        if n > len(self.data) - self.pos:
            raise FormatError("truncated container")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def u8(self): return struct.unpack("<B", self._read(1))[0]
    def u64(self): return struct.unpack("<Q", self._read(8))[0]
    def i64(self): return struct.unpack("<q", self._read(8))[0]

    def section(self) -> "_Reader":
        """The next length-prefixed section, as a reader of its own."""
        return _Reader(self._read(self.u64()))

    def end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError("trailing bytes after the last field")

    def array(self) -> np.ndarray:
        code = self.u8()
        if code not in _DTYPES:
            raise FormatError(f"bad array dtype tag {code}")
        count = self.u64()
        dt = np.dtype(_DTYPES[code]).newbyteorder("<")
        raw = self._read(count * dt.itemsize)
        return np.frombuffer(raw, dtype=dt).astype(_DTYPES[code])


def _section(parts: _Writer) -> bytes:
    payload = parts.getvalue()
    return struct.pack("<Q", len(payload)) + payload


def _write_blockcode_payload(w: _Writer, bc) -> None:
    w.u64(bc.t)
    w.u64(bc.n)
    w.array(bc.isa)
    w.array(bc.lcp)


def _expect(what: str, got: tuple, want: tuple) -> None:
    """Fields that repeat params values must equal them (checked before
    they size any allocation)."""
    if got != want:
        raise FormatError(f"{what} {got} disagrees with the params {want}")


def _check(what: str, ok) -> None:
    if not ok:
        raise FormatError(f"{what} out of range")


def _within(arr: np.ndarray, lo: int, hi: int) -> bool:
    """Every entry in lo..hi-1 (an empty array passes)."""
    return not len(arr) or (lo <= int(arr.min()) and int(arr.max()) < hi)


def _read_blockcode(r: _Reader, t: int, n: int, packed: bool = False):
    from .blockcode import BlockCode
    from .diffcover import build_cover_index, build_difference_cover

    _expect("block code (t, n)", (r.u64(), r.u64()), (t, n))
    if packed and not 1 <= t <= 64:
        raise FormatError(f"block length {t} not in 1..64")
    isa = r.array()
    lcp = r.array()
    cover = build_cover_index(build_difference_cover(t), n)
    m = cover.code_len
    if not len(isa) == len(lcp) == m:
        raise FormatError("block code length does not match its cover")
    _check("block code isa", _within(isa, 0, m))
    # a common prefix of two code suffixes ends at a separator, and before the
    # block of a text's unique sentinel: rem[c] blocks from slot c at most.
    # Two int32 buffers serve every step: fresh pages dominate a cold load
    dt = np.int32 if m < 2**31 else np.int64
    has = cover.seg_len > 0
    rem = np.repeat((cover.seg_start + cover.seg_len)[has].astype(dt), cover.seg_len[has] + 1)
    by_rank = np.arange(m, dtype=dt)
    rem -= by_rank
    if not packed and cover.in_cover(n - t + 1):
        c = cover.pos_in_code(n - t + 1)
        rem[c - (n - t) // t:c + 1] -= 1
    # rem in suffix order; a slot no isa entry fills keeps -1, below every lcp
    # entry, so the bound also makes isa a permutation
    by_rank.fill(-1)
    by_rank[isa] = rem
    np.minimum(by_rank[:-1], by_rank[1:], out=rem[:-1])
    _check("block code isa and lcp", _within(lcp, 0, m) and (lcp[1:] <= rem[:-1]).all())
    return BlockCode(cover, isa, lcp)


def dump_index(ix) -> bytes:
    """Serialize a built index to bytes."""
    flags = FLAG_PACKED if ix.packed is not None else 0
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<HH", VERSION, flags))

    w = _Writer()
    for v in (ix.n, ix.t, ix.t_prime, ix.sigma, 0):   # 0: the text's sentinel
        w.u64(v)
    out.write(_section(w))

    tree = ix.tree
    w = _Writer()
    w.u64(tree.q)
    w.u64(tree.n)
    for arr in (tree.leaf_lcp, tree.short_leaf, tree.short_depth, tree.alphabet):
        w.array(arr)
    out.write(_section(w))

    nav = ix.nav
    w = _Writer()
    w.u64(nav.t)
    w.u64(nav.n)
    w.array(nav.parent)
    w.u64(nav.root)
    w.array(nav.sampled)
    out.write(_section(w))

    w = _Writer()
    _write_blockcode_payload(w, ix.bc)
    out.write(_section(w))

    st = ix.stats
    w = _Writer()
    for v in (st.tst_nodes, st.tst_ref_len, st.nav_nodes, st.sampled_count,
              st.code_len, st.estimated_words):
        w.u64(v)
    w.i64(st.z if st.z is not None else -1)
    w.u64(st.n)
    w.u64(st.t)
    w.u64(st.t_prime)
    out.write(_section(w))

    if ix.packed is not None:
        pk = ix.packed
        w = _Writer()
        w.u64(pk.pt.n)
        w.u64(pk.pt.b)
        w.u64(pk.pt.word_size)
        w.u64(pk.pt.nbits)
        w.array(np.frombuffer(pk.pt.bits, dtype=np.uint8))
        _write_blockcode_payload(w, pk.bc)
        out.write(_section(w))

    return out.getvalue()


def load_index(data: bytes):
    """Rebuild an index from container bytes."""
    from .lce import LceIndex, SpaceStats
    from .navtree import NavTree
    from .tst import LeafTable

    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    if len(data) < 8:
        raise FormatError("truncated container")
    version, flags = struct.unpack("<HH", data[4:8])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if flags & ~FLAG_PACKED:
        raise FormatError(f"unknown flag bits {flags & ~FLAG_PACKED:#x}")
    body = _Reader(memoryview(data)[8:])   # sections are zero-copy slices

    r = body.section()
    n, t, t_prime, sigma, sentinel = (r.u64() for _ in range(5))
    r.end()
    if sentinel != 0:
        raise FormatError(f"sentinel {sentinel} is not 0")
    if not (1 <= t_prime <= t <= n and 2 * t_prime <= n):
        raise FormatError(f"params need 1 <= t'={t_prime} <= t={t} <= n={n} and 2t' <= n")

    r = body.section()
    q, tree_n = r.u64(), r.u64()
    _expect("trie (q, n)", (q, tree_n), (2 * t_prime, n))
    leaf_lcp, short_leaf, short_depth, alphabet = (r.array() for _ in range(4))
    r.end()
    # the 2t' <= n suffixes that reach the unique sentinel are distinct leaves
    leaves = len(leaf_lcp)
    if leaves < 2 * t_prime:
        raise FormatError(f"{leaves} trie leaves, but t'={t_prime} needs at least "
                          f"{2 * t_prime}")
    _check("leaf_lcp", leaf_lcp[0] == 0 and _within(leaf_lcp, 0, q))
    # the q-1 suffixes shorter than q are leaves of depths 1..q-1
    _check("short leaves", len(short_leaf) == len(short_depth) == q - 1
           and _within(short_leaf, 0, leaves) and (np.diff(short_leaf.astype(np.int64)) > 0).all()
           and _within(short_depth, 1, q))
    _check("alphabet", len(alphabet) == sigma == np.count_nonzero(leaf_lcp == 0)
           and (np.diff(alphabet.astype(np.int64)) > 0).all())
    tree = LeafTable(q=q, n=tree_n, leaf_lcp=leaf_lcp, short_leaf=short_leaf,
                     short_depth=short_depth, alphabet=alphabet)

    r = body.section()
    nav_t, nav_n = r.u64(), r.u64()
    _expect("navigation tree (t', n)", (nav_t, nav_n), (t_prime, n))
    parent = r.array()
    root = r.u64()
    sampled = r.array()
    r.end()
    # n and t' must be paid for in bytes before they size the block code's
    # cover: every t'-th position is sampled
    if len(sampled) != -(-n // t_prime):
        raise FormatError(f"{len(sampled)} sampled positions, but n={n} and t'={t_prime} "
                          f"need {-(-n // t_prime)}")
    _check("navigation tree", len(parent) == leaves and _within(parent, 0, leaves)
           and root < leaves and _within(sampled, 0, leaves))
    nav = NavTree(t=nav_t, n=nav_n, parent=parent, root=root, sampled=sampled)
    # the unique sentinel is the root: a depth-1 leaf, its own parent, and
    # the leaf at position n
    _check("navigation root", parent[root] == root and tree.lca_prefix_len(root, root) == 1
           and nav.locate(n) == root)
    tree.nav_parent = nav.parent

    r = body.section()
    bc = _read_blockcode(r, t, n)
    r.end()

    r = body.section()
    vals = [r.u64() for _ in range(6)]
    z = r.i64()
    stats = SpaceStats(
        tst_nodes=vals[0], tst_ref_len=vals[1], nav_nodes=vals[2],
        sampled_count=vals[3], code_len=vals[4], estimated_words=vals[5],
        z=None if z < 0 else z, n=r.u64(), t=r.u64(), t_prime=r.u64(),
    )
    r.end()
    _expect("stats (n, t, t')", (stats.n, stats.t, stats.t_prime), (n, t, t_prime))

    packed_obj = None
    if flags & FLAG_PACKED:
        from .packed import _PAD, PackedLce, PackedText

        r = body.section()
        pn = r.u64()
        b = r.u64()
        word = r.u64()
        nbits = r.u64()
        sym_bits = max(1, (sigma - 1).bit_length())
        _expect("packed text (n, b, nbits)", (pn, b, nbits), (n, sym_bits, n * sym_bits))
        bits = r.array().tobytes()
        _check("packed text length", len(bits) == -(-nbits // 8) + _PAD)
        pbc = _read_blockcode(r, word, nbits, packed=True)
        r.end()
        pt = PackedText(bits=bits, b=b, n=pn, word_size=word, nbits=nbits)
        packed_obj = PackedLce(pt=pt, bc=pbc)
    body.end()

    return LceIndex(n=n, t=t, t_prime=t_prime, sigma=sigma, tree=tree, nav=nav,
                    bc=bc, stats=stats, packed=packed_obj)


def save_index(ix, path: str) -> int:
    blob = dump_index(ix)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_index_file(path: str):
    with open(path, "rb") as fh:
        return load_index(fh.read())
