"""Every row of the heavy-case table, run once in a fresh interpreter: its exit
code, its listed count, its wall time and its own peak RSS must hold.  The
launcher stops a row at its wall bound, so a row that hangs fails there."""

import math
import random

import pytest

from heavy_cases import CASES, REPO, compare, geomean_ratio, run_case


def marks(case):
    if case.known_slow:
        return pytest.mark.xfail(strict=True, reason=case.known_slow)
    return ()


@pytest.mark.parametrize(
    "case", [pytest.param(case, marks=marks(case), id=case.name) for case in CASES]
)
def test_heavy_case(case):
    failure, wall_s, peak_kib = run_case(case, timeout=case.wall_s)
    assert wall_s <= case.wall_s, f"ran past its {case.wall_s} s bound"
    assert failure is None, failure
    assert peak_kib <= case.peak_mb * 1024


class TestCompare:
    def test_constant_ratio(self):
        # every pair at half the time: the geometric mean and both ends are 0.5
        before = [1.0, 2.0, 4.0, 3.0]
        assert geomean_ratio(before, [t / 2 for t in before]) == pytest.approx((0.5, 0.5, 0.5))

    def test_interval_holds_the_ratio_it_was_drawn_around(self):
        rng = random.Random(3)
        before = [rng.uniform(1, 2) for _ in range(40)]
        after = [t * 0.9 * math.exp(rng.gauss(0, 0.05)) for t in before]
        geomean, low, high = geomean_ratio(before, after)
        logs = [math.log(a / b) for b, a in zip(before, after)]
        assert geomean == pytest.approx(math.exp(sum(logs) / len(logs)))
        assert low < geomean < high and low < 0.9 < high and high - low < 0.05
        # a seeded bootstrap: the same numbers give the same interval
        assert geomean_ratio(before, after) == (geomean, low, high)

    def test_a_tree_against_itself(self, capsys):
        # an A/A smoke run on one small row: three pairs, each side timed alike
        results, failures = compare(REPO, runs=3, rows="invert rkrRkR --json")
        lines = capsys.readouterr().out.splitlines()
        assert not failures and len(results) == 1 and len(lines) == 3
        [row] = results
        assert row["row"] == "invert rkrRkR --json" and row["runs"] == 3
        assert 0 <= row["faster"] <= 3 and lines[2].startswith("| `invert rkrRkR --json` |")
        low, high = row["interval"]
        assert low <= row["geomean"] <= high
        assert row["ratio"] == row["wall_s"]["change"] / row["wall_s"]["parent"]
