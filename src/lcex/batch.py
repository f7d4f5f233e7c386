"""Vectorized query paths, composed from each structure's batch twin.

Every primitive answers its own batch query next to its scalar one:
``NavTree.locate_batch``, ``LeafTable.lca_prefix_len_batch``,
``DifferenceCover.h_batch`` and ``BlockCode.long_lce_batch``.  This module
only composes them as ``lce._compose`` composes the scalar ones.  Lanes in a
chained capped call iterate under a shrinking mask; iteration counts carry
the same O(1) bounds as the scalar code.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange
from .lce import LceIndex


def _checked(ix: LceIndex, I, J) -> tuple[np.ndarray, np.ndarray]:
    """I and J as int64 arrays: 1-D of one length, integer unless empty, all in [1..n]."""
    I, J = np.asarray(I), np.asarray(J)
    if I.ndim != 1 or I.shape != J.shape:
        raise ValueError(f"I and J must be 1-D of one length, not {I.shape} and {J.shape}")
    if len(I) and (I.dtype.kind not in "iu" or J.dtype.kind not in "iu"):
        raise TypeError(f"positions must be integers, not {I.dtype} and {J.dtype}")
    I, J = I.astype(np.int64, copy=False), J.astype(np.int64, copy=False)
    if len(I) and (min(I.min(), J.min()) < 1 or max(I.max(), J.max()) > ix.n):
        raise OutOfRange(f"batch positions out of [1..{ix.n}]")
    return I, J


def short_chain_batch(ix: LceIndex, I: np.ndarray, J: np.ndarray, cap: int) -> np.ndarray:
    """Chained capped-LCE: advance active lanes by each t'-sized result.

    Diagonal lanes can consume their whole suffix, so lanes stop once the
    advanced position passes the end of the text.
    """
    nav, tree, tp, n = ix.nav, ix.tree, ix.t_prime, ix.n
    total = np.zeros(len(I), dtype=np.int64)
    active = np.arange(len(I))
    while len(active):
        Ia, Ja = I[active] + total[active], J[active] + total[active]
        r = np.minimum(tree.lca_prefix_len_batch(nav.locate_batch(Ia), nav.locate_batch(Ja)), tp)
        total[active] += r
        adv = total[active]
        keep = (r == tp) & (adv < cap) & (I[active] + adv <= n) & (J[active] + adv <= n)
        active = active[keep]
    return np.minimum(total, cap)


def short_lce_batch(ix: LceIndex, I, J) -> np.ndarray:
    """min(LCE, t') for every lane, one locate pair + one LCA lookup each."""
    return short_chain_batch(ix, *_checked(ix, I, J), ix.t_prime)


def lce_batch(ix: LceIndex, I, J) -> np.ndarray:
    """Vectorized lce over position arrays; exact same answers as ix.lce.

    This mirrors the scalar composition ``lce._compose`` lane by lane.
    """
    I, J = _checked(ix, I, J)
    n, t = ix.n, ix.t
    ans = np.zeros(len(I), dtype=np.int64)

    diag = I == J
    ans[diag] = n - I[diag] + 1
    rest = np.flatnonzero(~diag)
    if not len(rest):
        return ans

    l1 = short_chain_batch(ix, I[rest], J[rest], t)
    done = l1 < t
    ans[rest[done]] = l1[done]
    rest = rest[~done]
    if not len(rest):
        return ans

    Ir, Jr = I[rest], J[rest]
    delta = ix.bc.cover.dc.h_batch(Ir, Jr)
    s = delta + t * ix.bc.long_lce_batch(Ir + delta, Jr + delta)
    ans[rest] = s + short_chain_batch(ix, Ir + s, Jr + s, t)
    return ans
