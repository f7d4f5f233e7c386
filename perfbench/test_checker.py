"""Self-test of the benchmark's answer check.

Run from the repository root:
    python3 -m pytest -q perfbench/test_checker.py
or  python3 perfbench/test_checker.py

The check must pass every right answer, and must count as failures an
answer that is off by one either way and an answer that belongs to a
different pair.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from checker import TextChecker  # noqa: E402
from run import Checks  # noqa: E402


def naive_lce(sym: list[int], i: int, j: int) -> int:
    n = len(sym)
    k = 0
    while i - 1 + k < n and j - 1 + k < n and sym[i - 1 + k] == sym[j - 1 + k]:
        k += 1
    return k


def corpus():
    rng = np.random.default_rng(7)
    raw = (workloads.fibonacci_word(700) + rng.choice(np.frombuffer(b"ab", np.uint8), 300).tobytes()
           + workloads.fibonacci_word(500))
    sym = workloads.symbols(raw)
    n = len(sym)
    near = rng.integers(1, 300, 200)            # shifts by a Fibonacci number
    i = np.r_[rng.integers(1, n + 1, 3000), near, [1, n, n, n - 1, 5]]
    j = np.r_[rng.integers(1, n + 1, 3000), near + 233, [1, n, 1, n, 705]]
    lst = sym.tolist()
    ans = np.array([naive_lce(lst, a, b) for a, b in zip(i.tolist(), j.tolist())])
    return sym, i, j, ans


def test_right_answers_pass():
    sym, i, j, ans = corpus()
    assert (ans > 100).sum() > 50       # long answers are covered too
    assert TextChecker(sym).check(i, j, ans).all()


def test_off_by_one_fails():
    sym, i, j, ans = corpus()
    chk = TextChecker(sym)
    assert not chk.check(i, j, ans + 1).any()
    pos = ans > 0
    assert not chk.check(i[pos], j[pos], ans[pos] - 1).any()


def test_answer_of_another_pair_fails():
    sym, i, j, ans = corpus()
    other = np.roll(ans, 1)
    wrong = other != ans
    assert wrong.sum() > 1000
    assert (~TextChecker(sym).check(i, j, other) == wrong).all()


def test_failures_are_counted():
    sym, i, j, ans = corpus()
    checks = Checks(TextChecker(sym))
    rounds = np.stack([ans, ans + 1, np.roll(ans, 1)])
    checks.answers("mixed", i, j, rounds)
    assert checks.attempted == 3 * len(ans)
    assert checks.failed == len(ans) + int((np.roll(ans, 1) != ans).sum())
    assert checks.problems


def test_disagreeing_batch_answers_are_counted():
    sym, i, j, ans = corpus()
    checks = Checks(TextChecker(sym))
    scalar = ans.copy()
    scalar[0] += 1
    checks.answers("batch", i, j, ans, also_bad=ans != scalar)
    assert checks.failed == 1


def test_long_pairs_share_two_t_symbols():
    sym = workloads.symbols(workloads.fibonacci_word(5000))
    t = 8
    li, lj = workloads.long_pairs(sym, t, np.random.default_rng(3))
    n = len(sym)
    assert (li != lj).all() and (np.maximum(li, lj) <= n - 2 * t - 1).all()
    lst = sym.tolist()
    assert all(naive_lce(lst, a, b) >= 2 * t for a, b in zip(li.tolist(), lj.tolist()))


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError:
                failures += 1
                print(f"FAIL {name}")
    sys.exit(1 if failures else 0)
