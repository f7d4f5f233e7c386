import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcex.diffcover import _SMALL_COVERS, _wichmann_cover, build_cover_index, build_difference_cover

TESTED_T = sorted(set(list(range(1, 130)) + [256, 333, 512, 1024, 4096]))


def test_known_small_covers():
    assert build_difference_cover(5).members == (1, 2, 4)
    assert build_difference_cover(1).members == (0,)


@pytest.mark.parametrize("t", TESTED_T)
def test_coverage_identity(t):
    d = set(build_difference_cover(t).members)
    diffs = {(x - y) % t for x in d for y in d}
    assert diffs == set(range(t))


def test_size_bound_with_margin():
    worst = 0.0
    for t in TESTED_T:
        dc = build_difference_cover(t)
        ratio = len(dc.members) / math.sqrt(t)
        worst = max(worst, ratio)
        assert len(dc.members) <= 8 * math.sqrt(t)
    # record the measured constant; the construction stays near 2*sqrt(t)
    assert worst <= 3.0, f"measured max |D|/sqrt(t) = {worst:.3f}"


@pytest.mark.parametrize("t", TESTED_T)
def test_hdelta_validity_exhaustive(t):
    dc = build_difference_cover(t)
    d_set = set(dc.members)
    for d in range(t):
        x = dc.hdelta[d]
        assert x in d_set
        assert (x + d) % t in d_set


def test_h_figure_values():
    dc = build_difference_cover(5)
    cover = build_cover_index(dc, 19)
    delta = dc.h(3, 12)
    assert 0 <= delta <= 5
    assert cover.in_cover(3 + delta) and cover.in_cover(12 + delta)
    # pinned for this construction: hdelta picks the smallest member of D
    assert delta == 4


def test_h_degenerate_modulus():
    dc = build_difference_cover(1)
    for i in range(1, 10):
        for j in range(1, 10):
            assert dc.h(i, j) == 0


@pytest.mark.parametrize("t", range(1, 71))
def test_h_batch_matches_h(t):
    dc = build_difference_cover(t)
    pos = np.arange(1, t + 1, dtype=np.int64)   # every residue once
    I, J = (a.ravel() for a in np.meshgrid(pos, pos))
    want = [dc.h(i, j) for i, j in zip(I.tolist(), J.tolist())]
    assert dc.h_batch(I, J).tolist() == want


def test_h_membership_exhaustive_t16():
    dc = build_difference_cover(16)
    cover = build_cover_index(dc, 64 + 16)
    for i in range(1, 65):
        for j in range(1, 65):
            delta = dc.h(i, j)
            assert 0 <= delta <= 16
            assert cover.in_cover(i + delta) and cover.in_cover(j + delta)


def test_cover_figure_set():
    cover = build_cover_index(build_difference_cover(5), 19)
    assert cover.positions() == [1, 2, 4, 6, 7, 9, 11, 12, 14, 16, 17, 19]


def test_cover_t1_everything():
    cover = build_cover_index(build_difference_cover(1), 12)
    assert cover.positions() == list(range(1, 13))


def test_cover_size_by_direct_filter():
    dc = build_difference_cover(9)
    cover = build_cover_index(dc, 100)
    direct = [i for i in range(1, 101) if (i % 9) in set(dc.members)]
    assert cover.positions() == direct
    assert [i for i in range(-1, 103) if cover.in_cover(i)] == direct


@pytest.mark.parametrize("t,n", [(5, 19), (8, 100), (16, 57), (64, 1000), (3, 4)])
def test_cover_size_bound(t, n):
    cover = build_cover_index(build_difference_cover(t), n)
    assert len(cover.positions()) <= 8 * n / math.sqrt(t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(1, 500))
def test_segment_layout_consistency(t, n):
    cover = build_cover_index(build_difference_cover(t), n)
    # rebuild the code layout by brute force and compare offsets
    off = 0
    for x in range(t):
        if x not in cover.dc.members:
            assert cover.seg_start[x] == -1 and cover.seg_len[x] == 0
            continue
        first = x if x >= 1 else t
        members = [i for i in range(first, n - t + 2, t) if i >= 1]
        assert cover.seg_len[x] == len(members)
        assert cover.seg_start[x] == off
        for k, i in enumerate(members):
            assert cover.pos_in_code(i) == off + k
        off += len(members) + (1 if members else 0)
    assert cover.code_len == off
    # defined_positions lists the blocks in slot order, skipping separators
    seps = set((cover.seg_start + cover.seg_len)[cover.seg_len > 0].tolist())
    slots = [cover.pos_in_code(int(i)) for i in cover.defined_positions()]
    assert slots == [k for k in range(off) if k not in seps]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 400), st.data())
def test_in_cover_matches_residues(t, n, data):
    dc = build_difference_cover(t)
    cover = build_cover_index(dc, n)
    i = data.draw(st.integers(1, n))
    assert cover.in_cover(i) == ((i % t) in set(dc.members))


def _sqrt_block_cover(t: int) -> tuple[int, ...]:
    """The previous construction, kept as a size reference: residues
    0..r-1 plus the multiples of r = ceil(sqrt(t)), mod t."""
    r = math.isqrt(t - 1) + 1 if t > 1 else 1
    members = set(range(r))
    k = 0
    while k * r <= t + r:
        members.add((k * r) % t)
        k += 1
    return tuple(sorted(members))


def _covers(t: int, members: tuple) -> bool:
    """Sorted distinct residues whose differences, one numpy table, hit Z_t."""
    d = np.asarray(members, dtype=np.int64)
    if list(members) != sorted(set(members)) or not 0 <= d[0] <= d[-1] < t:
        return False
    return np.unique((d[:, None] - d[None, :]) % t).size == t


def _members(t: int) -> tuple:
    """build_difference_cover(t).members without its hdelta table and cache,
    which would take half a minute and 100 MB over t <= 5000."""
    return _SMALL_COVERS.get(t) or _wichmann_cover(t)


def test_wichmann_covers_every_modulus_up_to_5000():
    assert all(_members(t) == build_difference_cover(t).members for t in (10, 16, 64, 999))
    bad = [t for t in range(1, 5001) if not _covers(t, _wichmann_cover(t))]
    assert bad == []


def test_wichmann_cover_size():
    over = [t for t in range(16, 5001)
            if len(_members(t)) > math.ceil(math.sqrt(1.5 * t)) + 3]
    assert over == []
    assert [len(build_difference_cover(t).members) for t in (16, 32, 64)] == [5, 8, 10]


def test_wichmann_cover_members_pinned():
    # container v4 lays code(w) out over these residues; any other cover of
    # the same t, even one as small, would misread stored block codes
    assert build_difference_cover(10).members == (0, 1, 4, 6)
    assert build_difference_cover(16).members == (0, 1, 4, 7, 9)
    assert build_difference_cover(32).members == (0, 1, 4, 7, 10, 13, 16, 18)
    assert build_difference_cover(64).members == (0, 1, 3, 6, 13, 20, 27, 31, 35, 36)


def test_wichmann_cover_never_larger_than_sqrt_blocks():
    larger = [t for t in range(1, 5001) if len(_members(t)) > len(_sqrt_block_cover(t))]
    assert larger == []


def _hdelta_reference(t: int, members: tuple) -> list:
    """hdelta by a plain loop: x ascending, so the first x to reach a
    difference (y - x) mod t is the smallest."""
    table = [None] * t
    for x in sorted(members):
        for y in members:
            if table[(y - x) % t] is None:
                table[(y - x) % t] = x
    return table


def test_hdelta_matches_loop_reference_up_to_3000():
    # __wrapped__ skips the cache, which would keep every table alive
    bad = [t for t in range(1, 3001)
           if build_difference_cover.__wrapped__(t).hdelta.tolist()
           != _hdelta_reference(t, _members(t))]
    assert bad == []


def test_hdelta_builds_at_a_million():
    t = 10**6
    dc = build_difference_cover.__wrapped__(t)
    assert dc.hdelta.dtype == np.int64 and dc.hdelta.shape == (t,)
    mask = np.zeros(t, dtype=bool)
    mask[list(dc.members)] = True
    assert mask[dc.hdelta].all() and mask[(dc.hdelta + np.arange(t)) % t].all()
    for i, j in ((1, 2), (7, 999_999), (500_000, 3), (2_000_001, 5)):
        delta = dc.h(i, j)
        assert 0 <= delta < t and mask[(i + delta) % t] and mask[(j + delta) % t]
