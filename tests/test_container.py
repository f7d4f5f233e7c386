import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.batch import lce_batch
from lcex.container import (_Reader, _Writer, _read_blockcode, dump_index, load_index,
                            load_index_file, save_index)
from lcex.errors import FormatError
from lcex.lce import build_index
from lcex.oracle import naive_lce_table
from lcex.textstore import load_text

from conftest import FIG_W, fib_word, random_text, thue_morse

SRC = str(Path(__file__).resolve().parents[1] / "src")


# SHA-256 of the version-4 containers of three corpora at three settings
# (t, t', packed).  A layout change that keeps VERSION fails here; a version
# bump records the new digests with the new VERSION.
V4_DIGESTS = {
    ("fib", 8, 8, False): "36f6cd43d3e5f6908f0ef5ed00c8e7633176b63d934596f1d09b4054b810289c",
    ("fib", 8, 3, False): "68254dc822e9ae1be1dfe7b825ba5289907a3ee76d1ff755a08ad441d0573489",
    ("fib", 6, 6, True): "5a05c7c9c89c695b7e7bcd5991e7057fabca7917728d6df18664e53b1e159f86",
    ("thue-morse", 8, 8, False): "3b8894558f7cf1394bd358278d469edb741829b1d9e059d9e6f311c4ef80a5e1",
    ("thue-morse", 8, 3, False): "18a90c97ef249dea47f095735563047894e4108bc813e48f898c983c7686bb00",
    ("thue-morse", 6, 6, True): "9101a89b5e20f9bab4010a5817f6243d26f896f42a2dbef3081fb6b088892cf4",
    ("sigma4", 8, 8, False): "b4c5ff3780eb4cd29a101e5aa348ada60ac0dbd8d1091c927fbc7a4a56e221e9",
    ("sigma4", 8, 3, False): "d4b4bea71bef9473a7d0dfe9adba4d69c966dde1ed2626878e18ea7b3c477c05",
    ("sigma4", 6, 6, True): "1f3c511da6a9e6c4954cdd30b6a91af648dbaac3afc5c93be4fbd021a8b3f303",
}
PINNED_CORPORA = {"fib": fib_word(700), "thue-morse": thue_morse(600),
                  "sigma4": random_text(500, 4, seed=9)}


@pytest.mark.parametrize("key", list(V4_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_container_bytes_pinned(key):
    name, t, t_prime, packed = key
    blob = dump_index(build_index(load_text(PINNED_CORPORA[name]), t, t_prime, packed=packed))
    assert struct.unpack("<H", blob[4:6])[0] == 4
    assert hashlib.sha256(blob).hexdigest() == V4_DIGESTS[key]


def test_magic_and_version():
    text = load_text(FIG_W)
    blob = dump_index(build_index(text, 2))
    assert blob[:4] == b"LCEX"
    version, flags = struct.unpack("<HH", blob[4:8])
    assert version == 4
    assert flags == 0


def test_bad_magic_rejected():
    with pytest.raises(FormatError):
        load_index(b"XXXX" + b"\x00" * 64)


def test_nonzero_sentinel_rejected():
    # the params section's fifth field is the sentinel symbol, always 0
    blob = bytearray(dump_index(build_index(load_text(FIG_W), 2)))
    load_index(bytes(blob))
    struct.pack_into("<Q", blob, section_offsets(blob)[0] + 32, ord("$"))
    with pytest.raises(FormatError, match="sentinel"):
        load_index(bytes(blob))


@pytest.mark.parametrize("bit", range(1, 16))
def test_unknown_flag_bit_rejected(bit):
    # only bit 0 (packed) is defined
    blob = dump_index(build_index(load_text(b"ab" * 30), 4, packed=True))
    (flags,) = struct.unpack("<H", blob[6:8])
    with pytest.raises(FormatError, match="flag"):
        load_index(blob[:6] + struct.pack("<H", flags | 1 << bit) + blob[8:])


def test_bad_version_rejected():
    text = load_text(FIG_W)
    blob = bytearray(dump_index(build_index(text, 2)))
    blob[4:6] = struct.pack("<H", 999)
    with pytest.raises(FormatError):
        load_index(bytes(blob))


def test_truncated_rejected():
    text = load_text(FIG_W)
    blob = dump_index(build_index(text, 2))
    with pytest.raises(FormatError):
        load_index(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_index(blob[:6])


def test_roundtrip_byte_identity():
    for raw, t, tp in [(FIG_W, 2, 2), (fib_word(800), 8, 8),
                       (random_text(300, 4, seed=0), 5, 2)]:
        text = load_text(raw)
        ix = build_index(text, t, tp)
        blob = dump_index(ix)
        assert dump_index(load_index(blob)) == blob


def test_reload_answers_identical():
    text = load_text(random_text(350, 2, seed=3))
    table = naive_lce_table(text)
    ix = build_index(text, 6)
    ix2 = load_index(dump_index(ix))
    for i in range(1, text.n + 1, 3):
        for j in range(1, text.n + 1, 5):
            assert ix2.lce(i, j) == int(table[i, j])


def test_packed_flag_roundtrip():
    text = load_text(b"ab" * 50)
    ix = build_index(text, 4, packed=True)
    blob = dump_index(ix)
    _, flags = struct.unpack("<HH", blob[4:8])
    assert flags & 1
    ix2 = load_index(blob)
    assert ix2.packed is not None
    for i in range(1, text.n + 1, 2):
        for j in range(1, text.n + 1, 3):
            assert ix2.packed.lce(i, j) == ix.packed.lce(i, j)
    assert dump_index(ix2) == blob


def test_version_1_rejected():
    blob = dump_index(build_index(load_text(FIG_W), 2))
    with pytest.raises(FormatError, match="version 1"):
        load_index(blob[:4] + struct.pack("<H", 1) + blob[6:])


def test_version_3_rejected():
    # a version 3 block code is laid out over a different difference cover;
    # at some (t, n) its length matches, so only the version can tell
    blob = dump_index(build_index(load_text(FIG_W), 2))
    with pytest.raises(FormatError, match="version 3"):
        load_index(blob[:4] + struct.pack("<H", 3) + blob[6:])


@pytest.mark.parametrize("packed", [False, True])
def test_trailing_bytes_rejected(packed):
    blob = dump_index(build_index(load_text(b"ab" * 30), 4, packed=packed))
    with pytest.raises(FormatError):
        load_index(blob + b"\x00")
    # one extra byte inside the params section, its length prefix grown to match
    (length,) = struct.unpack("<Q", blob[8:16])
    end = 16 + length
    grown = blob[:8] + struct.pack("<Q", length + 1) + blob[16:end] + b"\x00" + blob[end:]
    with pytest.raises(FormatError):
        load_index(grown)


def test_blockcode_length_must_match_cover():
    w = _Writer()
    w.u64(4)
    w.u64(20)
    w.array([0, 1])
    w.array([0, 0])
    with pytest.raises(FormatError, match="cover"):
        _read_blockcode(_Reader(w.getvalue()), 4, 20)


def section_offsets(blob):
    """Offset of each section's payload: params, tst, navtree, blockcode,
    stats and, when packed, the packed section."""
    offs, pos = [], 8
    while pos < len(blob):
        offs.append(pos + 8)
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    return offs


def packed_blockcode_offset(blob):
    """The packed block code follows n, b, word size, nbits and the bits
    array (dtype tag, u64 count, one byte per entry)."""
    off = section_offsets(blob)[5]
    return off + 41 + struct.unpack_from("<Q", blob, off + 33)[0]


# every field that repeats a params value (or, in the packed block code,
# the packed text's word size and bit count): (section, offset in it)
REPEATED_FIELDS = {
    "params n": (0, 0), "params t": (0, 8), "params t'": (0, 16),
    "trie q": (1, 0), "trie n": (1, 8),
    "navtree t'": (2, 0), "navtree n": (2, 8),
    "blockcode t": (3, 0), "blockcode n": (3, 8),
    "stats n": (4, 56), "stats t": (4, 64), "stats t'": (4, 72),
    "packed n": (5, 0), "packed b": (5, 8), "packed word size": (5, 16),
    "packed nbits": (5, 24), "packed blockcode t": (None, 0),
    "packed blockcode n": (None, 8),
}


@pytest.mark.parametrize("field", sorted(REPEATED_FIELDS))
def test_repeated_field_must_match_params(field):
    # 2**40 would be a terabyte-sized allocation if any loader step sized
    # a table by it before the check
    blob = dump_index(build_index(load_text(random_text(300, 4, seed=5)), 6, 3, packed=True))
    load_index(blob)
    section, off = REPEATED_FIELDS[field]
    base = packed_blockcode_offset(blob) if section is None else section_offsets(blob)[section]
    bad = bytearray(blob)
    struct.pack_into("<Q", bad, base + off, 2**40)
    with pytest.raises(FormatError, match="params"):
        load_index(bytes(bad))


# n and t in every section that repeats them: each repeat check passes, so
# only the bounds on n and t' by the bytes that pay for them stop the load
HUGE_N_T_FIELDS = ("params n", "params t", "trie n", "navtree n", "blockcode t",
                   "blockcode n", "stats n", "stats t")


def huge_n_t_container():
    blob = dump_index(build_index(load_text(random_text(300, 4, seed=5)), 6, 3))
    offs = section_offsets(blob)
    bad = bytearray(blob)
    for field in HUGE_N_T_FIELDS:
        section, off = REPEATED_FIELDS[field]
        struct.pack_into("<Q", bad, offs[section] + off, 2**40)
    return bytes(bad)


def test_huge_n_and_t_rejected_before_allocation():
    with pytest.raises(FormatError, match="sampled"):
        load_index(huge_n_t_container())


def run_limited_load(path) -> str:
    """Load a container file in a child process under a 1 GiB address-space
    limit; prints FormatError when the load raises it."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from lcex.container import load_index_file\n"
        "from lcex.errors import FormatError\n"
        "try:\n"
        "    load_index_file(sys.argv[1])\n"
        "except FormatError:\n"
        "    print('FormatError')\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.strip() or done.stderr


def test_huge_n_and_t_rejected_under_address_space_limit(tmp_path):
    path = tmp_path / "huge.lcex"
    path.write_bytes(huge_n_t_container())
    assert run_limited_load(path) == "FormatError"


def word_size_container(word: int) -> bytes:
    """A packed container whose word size and packed block-code t are both
    ``word``, so that every repeat check passes."""
    blob = dump_index(build_index(load_text(random_text(300, 4, seed=5)), 6, 3, packed=True))
    bad = bytearray(blob)
    struct.pack_into("<Q", bad, section_offsets(blob)[5] + 16, word)
    struct.pack_into("<Q", bad, packed_blockcode_offset(blob), word)
    return bytes(bad)


@pytest.mark.parametrize("word", [0, 65, 2**40])
def test_packed_word_size_out_of_range_rejected(word):
    with pytest.raises(FormatError, match="1..64"):
        load_index(word_size_container(word))


def test_packed_huge_word_size_rejected_under_address_space_limit(tmp_path):
    path = tmp_path / "word.lcex"
    path.write_bytes(word_size_container(2**40))
    assert run_limited_load(path) == "FormatError"


def test_trie_with_fewer_than_2t_prime_leaves_rejected():
    ix = build_index(load_text(random_text(300, 4, seed=5)), 6, 3)
    load_index(dump_index(ix))
    ix.tree.leaf_lcp = ix.tree.leaf_lcp[:5]
    with pytest.raises(FormatError, match="leaves"):
        load_index(dump_index(ix))


def _set(arr, k, value):
    out = np.asarray(arr).astype(np.int64)
    out[k] = value
    return out


def _swap(arr, a, b):
    out = np.asarray(arr).copy()
    out[[a, b]] = out[[b, a]]
    return out


def _blocks_left(bc):
    """Per code slot, the blocks from it up to its segment's separator."""
    rem = np.zeros(bc.code_len, dtype=np.int64)
    cov = bc.cover
    for start, length in zip(cov.seg_start.tolist(), cov.seg_len.tolist()):
        rem[start:start + length] = np.arange(length, 0, -1)
    return rem


def _past_segment(bc, k=4):
    """bc.lcp with entry k one above the blocks left in the segments of both
    its suffixes, which stays below code_len."""
    rem = _blocks_left(bc)
    sa = np.argsort(bc.isa)
    value = min(rem[sa[k - 1]], rem[sa[k]]) + 1
    assert value < bc.code_len
    return _set(bc.lcp, k, value)


def _with_sampled(ix, k, value) -> bytes:
    """The container of ix with entry k of the navtree's serialized
    ``sampled`` set to value, the section re-encoded and re-prefixed."""
    blob = dump_index(ix)
    start, end = section_offsets(blob)[2:4]
    r = _Reader(blob[start:end - 8])
    nav_t, nav_n, parent, root = r.u64(), r.u64(), r.array(), r.u64()
    sampled = _set(r.array(), k, value)
    r.end()
    w = _Writer()
    w.u64(nav_t)
    w.u64(nav_n)
    w.array(parent)
    w.u64(root)
    w.array(sampled)
    payload = w.getvalue()
    return blob[:start - 8] + struct.pack("<Q", len(payload)) + payload + blob[end - 8:]


# one field of a built index pushed out of the range the loader accepts: an
# entry changes the index in place, or returns the container with one
# serialized field changed where the index does not hold that field
OUT_OF_RANGE = {
    "leaf_lcp first": lambda ix: setattr(ix.tree, "leaf_lcp", _set(ix.tree.leaf_lcp, 0, 1)),
    "leaf_lcp at q": lambda ix: setattr(ix.tree, "leaf_lcp", _set(ix.tree.leaf_lcp, 7, 6)),
    "leaf_lcp negative": lambda ix: setattr(ix.tree, "leaf_lcp", _set(ix.tree.leaf_lcp, 7, -1)),
    "short leaf rank": lambda ix: setattr(
        ix.tree, "short_leaf", _set(ix.tree.short_leaf, -1, ix.tree.leaf_count)),
    "short leaves unsorted": lambda ix: setattr(
        ix.tree, "short_leaf", _swap(ix.tree.short_leaf, -2, -1)),
    "short depth zero": lambda ix: setattr(ix.tree, "short_depth", _set(ix.tree.short_depth, 0, 0)),
    "short depth at q": lambda ix: setattr(ix.tree, "short_depth", _set(ix.tree.short_depth, 0, 6)),
    "short depth missing": lambda ix: setattr(ix.tree, "short_depth", ix.tree.short_depth[1:]),
    "alphabet unsorted": lambda ix: setattr(ix.tree, "alphabet", _swap(ix.tree.alphabet, 0, 1)),
    "alphabet short": lambda ix: setattr(ix.tree, "alphabet", ix.tree.alphabet[1:]),
    "nav parent": lambda ix: setattr(ix.nav, "parent", _set(ix.nav.parent, 3, ix.tree.leaf_count)),
    "nav parent negative": lambda ix: setattr(ix.nav, "parent", _set(ix.nav.parent, 3, -1)),
    "nav parent length": lambda ix: setattr(ix.nav, "parent", ix.nav.parent[:-1]),
    "nav root": lambda ix: setattr(ix.nav, "root", ix.tree.leaf_count),
    "nav root not the sentinel": lambda ix: setattr(ix.nav, "root", (ix.nav.root + 1) % 50),
    "last sampled not the sentinel": lambda ix: _with_sampled(ix, -1, 1),
    "sampled": lambda ix: _with_sampled(ix, 2, ix.tree.leaf_count),
    "sampled negative": lambda ix: _with_sampled(ix, 2, -1),
    "isa repeated": lambda ix: setattr(ix.bc, "isa", _set(ix.bc.isa, 0, ix.bc.isa[1])),
    "isa past code": lambda ix: setattr(ix.bc, "isa", _set(ix.bc.isa, 0, ix.bc.code_len)),
    "lcp past code": lambda ix: setattr(ix.bc, "lcp", _set(ix.bc.lcp, 4, ix.bc.code_len)),
    "lcp negative": lambda ix: setattr(ix.bc, "lcp", _set(ix.bc.lcp, 4, -1)),
    "packed isa": lambda ix: setattr(ix.packed.bc, "isa", _set(ix.packed.bc.isa, 0, -1)),
    "packed lcp": lambda ix: setattr(
        ix.packed.bc, "lcp", _set(ix.packed.bc.lcp, 4, ix.packed.bc.code_len)),
    "packed bits": lambda ix: setattr(ix.packed.pt, "bits", ix.packed.pt.bits[:-1]),
    "lcp past its segment": lambda ix: setattr(ix.bc, "lcp", _past_segment(ix.bc)),
    "packed lcp past its segment": lambda ix: setattr(
        ix.packed.bc, "lcp", _past_segment(ix.packed.bc)),
    # single-bit flips that once loaded and raised IndexError on a query
    # (bits 0 and 1 of this entry still pass every check and answer wrongly)
    **{f"lcp entry 14 bit {bit}": lambda ix, bit=bit: setattr(
        ix.bc, "lcp", _set(ix.bc.lcp, 14, int(ix.bc.lcp[14]) ^ (1 << bit)))
       for bit in range(2, 8)},
}


def test_lcp_into_the_sentinel_block_rejected():
    # the block that ends at the unique sentinel matches no other block; an
    # lcp entry that counts it sent the last capped call to position n+1
    text = load_text(fib_word(199))
    ix = build_index(text, 5)
    bc = ix.bc
    last = bc.cover.pos_in_code(text.n - 5 + 1)
    k = int(bc.isa[last]) + 1
    rem = _blocks_left(bc)
    assert rem[last] == 1 and rem[np.argsort(bc.isa)[k]] >= 1
    bc.lcp = _set(bc.lcp, k, 1)
    with pytest.raises(FormatError, match="range"):
        load_index(dump_index(ix))


@pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
def test_out_of_range_field_rejected(field):
    ix = build_index(load_text(random_text(300, 4, seed=5)), 6, 3, packed=True)
    load_index(dump_index(ix))
    bad = OUT_OF_RANGE[field](ix)
    with pytest.raises(FormatError, match="range"):
        load_index(dump_index(ix) if bad is None else bad)


def test_loaded_index_keeps_only_query_state():
    text = load_text(random_text(400, 4, seed=2))
    built = build_index(text, 6, 3, packed=True)
    for ix in (built, load_index(dump_index(built))):
        ix.lce(1, 2)
        lce_batch(ix, np.arange(1, 40), np.arange(41, 80))
        parts = {"tree": ix.tree, "nav": ix.nav, "bc": ix.bc, "packed.bc": ix.packed.bc}
        lists = {f"{name}.{attr}" for name, obj in parts.items()
                 for attr, v in vars(obj).items() if isinstance(v, list)}
        assert lists == set()
        for bc in (ix.bc, ix.packed.bc):
            assert not hasattr(bc, "code") and not hasattr(bc, "sa")
            # the block code's lcp is its RMQ's level 0, not a second copy
            assert np.shares_memory(bc.lcp, bc.rmq.table)
        for attr in ("parent", "leaves", "start", "ref"):
            assert not hasattr(ix.tree, attr)
        for arr in (ix.tree.leaf_lcp, ix.tree.short_leaf, ix.tree.short_depth,
                    ix.tree.alphabet, ix.nav.parent):
            assert isinstance(arr, np.ndarray)
        assert np.shares_memory(ix.tree.leaf_lcp, ix.tree.tour_sparse.table)
        assert ix.tree.nav_parent is ix.nav.parent
        # sampled is read back from the jump table, not stored
        assert "sampled" not in vars(ix.nav)


def test_file_roundtrip(tmp_path):
    text = load_text(FIG_W)
    ix = build_index(text, 2)
    path = tmp_path / "x.lcex"
    size = save_index(ix, str(path))
    assert path.stat().st_size == size
    ix2 = load_index_file(str(path))
    assert ix2.n == text.n


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=4, max_size=120), st.data())
def test_roundtrip_property(raw, data):
    text = load_text(raw)
    t = data.draw(st.integers(1, text.n))
    tp_hi = min(t, text.n // 2)
    if tp_hi < 1:
        return
    tp = data.draw(st.sampled_from([1, tp_hi]))
    ix = build_index(text, t, tp)
    blob = dump_index(ix)
    ix2 = load_index(blob)
    assert dump_index(ix2) == blob
    for _ in range(15):
        i = data.draw(st.integers(1, text.n))
        j = data.draw(st.integers(1, text.n))
        assert ix2.lce(i, j) == ix.lce(i, j)


def test_loaded_lca_matches_leaf_strings():
    for raw, t, tp in [(FIG_W, 2, 2), (random_text(200, 3, seed=5), 6, 3),
                       (fib_word(300), 8, 8)]:
        text = load_text(raw)
        tree = load_index(dump_index(build_index(text, t, tp))).tree
        decoded = [tree.leaf_string(g) for g in range(tree.leaf_count)]
        for a in range(tree.leaf_count):
            for b in range(tree.leaf_count):
                x, y = decoded[a], decoded[b]
                k = 0
                while k < min(len(x), len(y)) and x[k] == y[k]:
                    k += 1
                assert tree.lca_prefix_len(a, b) == k, (a, b)
