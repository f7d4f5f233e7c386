"""Vectorized query paths mirroring the scalar algorithms.

Every step of the scalar decomposition is a gather: leaf location walks the
lifting table bit by bit, the LCA depth is one sparse-table lookup over the
adjacent-leaf LCPs between the two leaf ranks, and the block-code reduction
is arithmetic plus one more lookup.
Lanes in a chained capped call iterate under a shrinking mask; iteration
counts carry the same O(1) bounds as the scalar code.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange
from .lce import LceIndex


def _locate_batch(ix: LceIndex, I: np.ndarray) -> np.ndarray:
    nav = ix.nav
    tp = nav.t
    k = (I - 1) // tp
    d = I - 1 - k * tp
    nodes = nav.sampled_np[k]
    lift = nav.lift_np
    bit = 0
    remaining = d.copy()
    while remaining.any():
        take = (remaining & 1).astype(bool)
        if take.any():
            nodes[take] = lift[bit][nodes[take]]
        remaining >>= 1
        bit += 1
    return nodes


def _checked(ix: LceIndex, I, J) -> tuple[np.ndarray, np.ndarray]:
    """I and J as int64 arrays: 1-D of one length, every position in [1..n]."""
    I = np.asarray(I, dtype=np.int64)
    J = np.asarray(J, dtype=np.int64)
    if I.ndim != 1 or I.shape != J.shape:
        raise ValueError(f"I and J must be 1-D of one length, not {I.shape} and {J.shape}")
    if len(I) and (min(I.min(), J.min()) < 1 or max(I.max(), J.max()) > ix.n):
        raise OutOfRange(f"batch positions out of [1..{ix.n}]")
    return I, J


def _short_lce_batch(ix: LceIndex, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    tree = ix.tree
    tp = ix.nav.t
    u = _locate_batch(ix, I)
    v = _locate_batch(ix, J)
    hi = np.maximum(u, v)
    # lanes with u == v read a dummy in-range cell and are overwritten below
    lo = np.minimum(np.minimum(u, v) + 1, hi)
    val = tree.tour_sparse.query_batch(lo, hi).astype(np.int64)
    same = u == v
    if same.any():
        val[same] = tree.depth[u[same]]
    return np.minimum(val, tp)


def short_lce_batch(ix: LceIndex, I, J) -> np.ndarray:
    """min(LCE, t') for every lane, one locate pair + one LCA lookup each."""
    return _short_lce_batch(ix, *_checked(ix, I, J))


def short_chain_batch(ix: LceIndex, I: np.ndarray, J: np.ndarray, cap: int) -> np.ndarray:
    """Chained capped-LCE: advance active lanes by each t'-sized result.

    Diagonal lanes can consume their whole suffix, so lanes stop once the
    advanced position passes the end of the text.
    """
    tp = ix.t_prime
    n = ix.n
    total = np.zeros(len(I), dtype=np.int64)
    active = np.arange(len(I))
    while len(active):
        r = _short_lce_batch(ix, I[active] + total[active], J[active] + total[active])
        total[active] += r
        adv = total[active]
        keep = (r == tp) & (adv < cap) & (I[active] + adv <= n) & (J[active] + adv <= n)
        active = active[keep]
    return np.minimum(total, cap)


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
    delta = (ix.bc.cover.dc.hdelta[(Jr - Ir) % t] - Ir) % t
    s = delta + t * ix.bc.long_lce_batch(Ir + delta, Jr + delta)
    ans[rest] = s + short_chain_batch(ix, Ir + s, Jr + s, t)
    return ans
