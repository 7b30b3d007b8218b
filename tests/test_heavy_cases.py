"""Every row of the heavy-case table, run once in a fresh interpreter: its exit
code, its listed count, its wall time and its own peak RSS must hold.  The
launcher stops a row at its wall bound, so a row that hangs fails there."""

import pytest

from heavy_cases import CASES, run_case


def marks(case):
    if case.ci_only:
        return pytest.mark.skip(reason=case.ci_only)
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
