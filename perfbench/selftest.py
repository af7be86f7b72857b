"""Self-tests of the benchmark harness (about 15 s).

    python3 perfbench/selftest.py

Run from the root of a checkout.  The file name keeps it out of the repo's
pytest collection, so the tier-1 test time does not grow.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402
from worker import Tally, check_set_up, run_passes  # noqa: E402
from workloads import MCLong, SearchD3, SweepD2, Uncertified, VerifySuites  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def one_pass(wl, max_requests=None, tally=None):
    """Tally, simulate trials and certified sets of pass 0, traced."""
    tr, tally = Tracer(), tally or Tally()
    run_passes(wl, tr, 0.0, tally, max_requests)
    trials = sum(s.attrs["trials"] for s in tr.spans if s.name == "protocol.simulate")
    certified = sum(s.attrs["certified"] for s in tr.spans if s.name == "encoding.search_message_set")
    return tally, trials, certified


class ShortMC(MCLong):
    trials = 2000  # keeps the self-test quick; the checks do not depend on the count


class WrongP1(ShortMC):
    exact = dict(MCLong.exact, p_1=Fraction(3, 81))


class WrongNoMeasure(ShortMC):
    exact_no_measure = (Fraction(1, 8), Fraction(0), Fraction(7, 8))


class Raises(VerifySuites):
    def __init__(self, seed, tr, exc):
        super().__init__(seed, tr)
        self.exc = exc

    def request(self, req, tr):
        raise self.exc


def test_wrong_expectation_fails() -> None:
    tally = Tally()
    wl = check_set_up(ShortMC(1, Tracer()), tally)
    check(tally.failed == 0, "mc-long set-up matches the paper's exact values")
    one_pass(wl, tally=tally)
    check(tally.failed == 0, "mc-long pass passes its checks")

    tally = Tally()
    check_set_up(WrongP1(1, Tracer()), tally)
    check(tally.failed == tally.wrong == 1, "a wrong exact p1 raises failed_ratio and marks the run incorrect")

    tally, _, _ = one_pass(WrongNoMeasure(1, Tracer()))
    check(tally.failed == tally.wrong == 1, "a wrong no-measure distribution fails exactly its request")


def test_only_documented_failures_leave_the_run_correct() -> None:
    tally, _, _ = one_pass(Raises(1, Tracer(), Uncertified("none")))
    check(tally.failed == tally.attempted and tally.wrong == 0, "an uncertified search fails but is not wrong")
    tally, _, _ = one_pass(Raises(1, Tracer(), ZeroDivisionError("bug")))
    check(tally.failed == tally.wrong == tally.attempted, "any other exception marks the run incorrect")


def test_same_seed_same_counts() -> None:
    for cls, max_requests in ((SweepD2, None), (VerifySuites, None), (SearchD3, 1)):
        first = one_pass(cls(7, Tracer()), max_requests)
        again = one_pass(cls(7, Tracer()), max_requests)
        counts = [(t.attempted, t.failed, trials, cert) for t, trials, cert in (first, again)]
        check(counts[0] == counts[1], f"{cls.name}: same seed, same request/trial/certified counts {counts[0]}")


def test_seeds_change_inputs() -> None:
    for cls in (SweepD2, SearchD3):
        a = [r.spectrum.lambdas for r in cls(1, Tracer()).batch(0)]
        b = [r.spectrum.lambdas for r in cls(1, Tracer()).batch(0)]
        c = [r.spectrum.lambdas for r in cls(2, Tracer()).batch(0)]
        check(a == b and a != c, f"{cls.name}: spectra repeat for a seed and change with it")
    a = VerifySuites(1, Tracer()).batch(0)
    c = VerifySuites(2, Tracer()).batch(0)
    check(a != c, "verify-suites: suite seeds change with the seed")


if __name__ == "__main__":
    test_wrong_expectation_fails()
    test_only_documented_failures_leave_the_run_correct()
    test_seeds_change_inputs()
    test_same_seed_same_counts()
    print("all self-tests passed")
