"""The composed encoding LCE index and its query algorithm.

A query decomposes as delta + t*l2 + l3: a capped prefix check aligns both
positions onto the cover via the O(1) offset h, the block code supplies the
whole-block run l2, and one more capped check finishes the remainder.  Every
pair takes this path: the sentinel at n is unique, so l1 = t puts both
positions at or below n-t, and a block that runs past the text counts 0.
``_compose`` is the one scalar copy of this composition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import blockcode as _bc
from . import navtree as _nav
from . import tst as _tst
from .diffcover import build_cover_index, build_difference_cover
from .errors import OutOfRange, ParamOutOfRange
from .textstore import Text

# Weight of one trie leaf against one cover entry in the tuning objective and
# the estimated-words formula below; see README ("Space accounting").
TUNE_ALPHA = 3
TUNE_PROBES = 64   # most trie-leaf counts one tune_tau call probes


@dataclass
class SpaceStats:
    """Structure sizes in entry counts plus the documented word estimate.

    estimated_words = 4*tst_nodes + ceil(tst_ref_len/8) + 2*nav_nodes
                      + sampled_count + 4*code_len
    """

    tst_nodes: int
    tst_ref_len: int
    nav_nodes: int
    sampled_count: int
    code_len: int
    estimated_words: int
    z: int | None
    n: int
    t: int
    t_prime: int


def estimated_words(tst_nodes: int, tst_ref_len: int, nav_nodes: int,
                    sampled_count: int, code_len: int) -> int:
    return (4 * tst_nodes + (tst_ref_len + 7) // 8 + 2 * nav_nodes
            + sampled_count + 4 * code_len)


def _compose(n: int, t: int, capped, bc: _bc.BlockCode, i: int, j: int) -> int:
    """LCE(i, j) for in-range i, j over n positions, from a min(LCE, t)
    primitive ``capped`` and the block code ``bc`` of block length t, which
    only the block path reads.  ``LceIndex.lce``, ``lce_instrumented`` and
    ``PackedLce.lce``/``bit_lce`` all answer through it.

    l1 = t puts i, j <= n-t+1 (n-t behind a text's unique sentinel), so
    i+delta, j+delta <= n, and ``long_lce`` counts 0 for a block past the
    text.  The last capped call starts at i+s <= i+LCE: at most n on a text,
    n+1 on the bit string, whose capped check returns 0 there.
    """
    if i == j:
        return n - i + 1
    l1 = capped(i, j)
    if l1 < t:
        return l1
    delta = bc.cover.dc.h(i, j)
    l2 = bc.long_lce(i + delta, j + delta)
    s = delta + t * l2
    return s + capped(i + s, j + s)


class LceIndex:
    """Encoding LCE structure: trie leaf table + navigation tree + block code.

    After construction the original text is unreachable; every answer comes
    from the component structures alone.
    """

    def __init__(self, n: int, t: int, t_prime: int, sigma: int,
                 tree: _tst.LeafTable, nav: _nav.NavTree,
                 bc: _bc.BlockCode, stats: SpaceStats, packed=None):
        self.n = n
        self.t = t
        self.t_prime = t_prime
        self.sigma = sigma
        self.tree = tree
        self.nav = nav
        self.bc = bc
        self.stats = stats
        self.packed = packed

    # -- queries ------------------------------------------------------------

    def _capped(self, i: int, j: int, calls: list[int] | None = None) -> int:
        """min(LCE(i, j), t) via chained t'-capped calls.

        At most ceil(t/t') sub-calls plus one when t is overshot mid-step;
        their count is appended to ``calls`` when it is given.
        """
        nav, tree, tp, t = self.nav, self.tree, self.t_prime, self.t
        total = k = 0
        while True:
            r = _nav.short_lce(nav, tree, i + total, j + total)
            k += 1
            total += r
            if r < tp or total >= t:
                break
        if calls is not None:
            calls.append(k)
        return min(total, t)

    def lce(self, i: int, j: int) -> int:
        """Length of the longest common prefix of the suffixes at i and j.

        The diagonal is defined as the full suffix length n-i+1 and short
        circuits before touching any structure.
        """
        n = self.n
        i, j = operator.index(i), operator.index(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise OutOfRange(f"positions ({i},{j}) not in [1..{n}]")
        return _compose(n, self.t, self._capped, self.bc, i, j)

    def lce_instrumented(self, i: int, j: int) -> tuple[int, dict]:
        """lce plus sub-call accounting: total capped-LCE sub-calls for the
        query and the maximum within any single chained invocation."""
        n = self.n
        i, j = operator.index(i), operator.index(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise OutOfRange(f"positions ({i},{j}) not in [1..{n}]")
        calls: list[int] = []
        ans = _compose(n, self.t, partial(self._capped, calls=calls), self.bc, i, j)
        return ans, {"total": sum(calls), "per_invocation_max": max(calls, default=0),
                     "invocations": len(calls)}

    def short_lce(self, i: int, j: int) -> int:
        """min(LCE(i, j), t), chained through the t' structure when t' < t."""
        n = self.n
        i, j = operator.index(i), operator.index(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise OutOfRange(f"positions ({i},{j}) not in [1..{n}]")
        if i == j:
            return min(n - i + 1, self.t)
        return self._capped(i, j)

    def space_report(self) -> SpaceStats:
        return self.stats


def build_index(t: Text, t_param: int, t_prime: int | None = None,
                packed: bool = False, z: int | None = None) -> LceIndex:
    """Build every component at block length t_param (trie depth 2*t'),
    then drop all references to the text."""
    n = t.n
    tp = t_param if t_prime is None else t_prime
    if not (1 <= tp <= t_param <= n) or 2 * tp > n:
        raise ParamOutOfRange(
            f"need 1 <= t'={tp} <= t={t_param} <= n={n} and 2t' <= n")

    dc = build_difference_cover(t_param)
    cover = build_cover_index(dc, n)
    tree = _tst.build_leaf_table(t, 2 * tp)
    nav = _nav.build_navtree(t, tree, tp)
    tree.nav_parent = nav.parent
    # the paper's trie figures, from the leaf table without building the trie
    ref_len = _tst.reference_length(tree)
    # transient build artifacts, dropped after their last reader; the index
    # stays sub-linear
    tree.leaf_of_pos = tree.leftmost = None
    bc = _bc.build_blockcode(_bc.rank_blocks(t, cover), cover)

    pk = None
    if packed:
        from . import packed as _packed

        pk = _packed.build_packed(t)

    stats = SpaceStats(
        tst_nodes=tree.node_count,
        tst_ref_len=ref_len,
        nav_nodes=nav.node_count,
        sampled_count=len(nav.row_np),
        code_len=bc.code_len,
        estimated_words=estimated_words(
            tree.node_count, ref_len, nav.node_count, len(nav.row_np), bc.code_len),
        z=z, n=n, t=t_param, t_prime=tp,
    )
    return LceIndex(n=n, t=t_param, t_prime=tp, sigma=t.sigma, tree=tree,
                    nav=nav, bc=bc, stats=stats, packed=pk)


def truncated_leaf_counts(t: Text) -> tuple[np.ndarray, np.ndarray]:
    """The text's one suffix-array pass, from which the leaf count at any
    depth q follows: the q-clipped distinct-suffix count is n minus the LCP
    entries >= q.  Each probe is one O(n) count over the LCP array."""
    return t.suffix_array(), t.lcp_array()


def tune_tau(t: Text) -> int:
    """Pick a block length by doubling then binary search, comparing measured
    trie leaf counts against ceil(n/sqrt(t)); returns the probed value with
    the smallest weighted total TUNE_ALPHA*leaves + ceil(n/sqrt(t)).

    Never consults the factorization size; only measured structure sizes.
    """
    if t.n < 4:
        raise ParamOutOfRange("tuning needs n >= 4")
    n = t.n
    _, lcp = truncated_leaf_counts(t)

    def leaves(q: int) -> int:
        return int(n - np.count_nonzero(lcp >= q))

    def ceil_n_over_sqrt(q: int) -> int:
        return math.ceil(n / math.sqrt(q))

    probes: dict[int, int] = {}

    def probe(q: int) -> int:
        if q not in probes:
            probes[q] = leaves(q)
        return probes[q]

    lo = 1
    hi = 1
    while hi < n and probe(hi) < ceil_n_over_sqrt(hi) and len(probes) < TUNE_PROBES:
        lo = hi
        hi = min(2 * hi, n)
    while hi - lo > 1 and len(probes) < TUNE_PROBES:
        mid = (lo + hi) // 2
        if probe(mid) < ceil_n_over_sqrt(mid):
            lo = mid
        else:
            hi = mid

    best_t = min(probes, key=lambda q: (TUNE_ALPHA * probes[q] + ceil_n_over_sqrt(q), q))
    return best_t
