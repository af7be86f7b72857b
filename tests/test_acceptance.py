"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import json
import math
import time

from densecode.analysis import CASE_I, uniformity_witness, verify_necessary_identities, weyl_witness
from densecode.cli import main
from densecode.linalg import rng_from
from densecode.protocol import (
    VARIANT_MEASURE,
    VARIANT_NO_MEASURE,
    build_bundle,
    compute_R,
    default_messages,
    p1_equal_tail,
    simulate,
)
from densecode.states import SchmidtSpectrum, uniform_spectrum
from densecode.suites import (
    containment_suite,
    dilation_suite,
    independence_suite,
    orthogonalize_suite,
)

from conftest import SEED, random_spectrum


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_exact_example_reproduction(capsys):
    start = time.time()
    code = main(["example-d2"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    assert code == 0
    doc = json.loads(out)
    expected = {
        "gamma_0": 320 / 6561,
        "gamma_1": 0.0,
        "p_1": 2 / 81,
        "p_T": 79 / 162,
        "p_Y": 79 / 162,
        "success_probability": 79 / 81,
        "no_measure_outcome_2": 79 / 80,
    }
    for name, want in expected.items():
        assert abs(doc["checks"][name]["value"] - want) < 1e-12, name
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"example values exact to 1e-12 in {elapsed:.2f}s")


def test_criterion_2_bound_table(capsys):
    start = time.time()
    _, bound3 = p1_equal_tail(3, 3 / 8)
    _, bound7 = p1_equal_tail(7, 7 / 48)
    assert abs(bound3 - 0.28125) < 1e-9
    assert abs(bound7 - 343 / 4032) < 1e-9
    for d in range(2, 8):
        lo, hi = 1.0 / d, d / (d * d - 2)
        for k in range(50):
            lam0 = lo + k * (hi - lo) / 50
            exact, bound = p1_equal_tail(d, lam0)
            assert exact <= bound + 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, f"bounds at d=3,7 exact; exact<=bound on 6x50 grid in {elapsed:.2f}s")


def test_criterion_3_monte_carlo_consistency(example_bundle, example_decoder, capsys):
    start = time.time()
    trials = 100_000
    rep_m = simulate(example_bundle, example_decoder, 2, trials, VARIANT_MEASURE, seed=SEED)
    p_abort = 2 / 81
    sigma = math.sqrt(p_abort * (1 - p_abort) / trials)
    abort_freq = rep_m.outcome_histogram["aborted"] / trials
    assert abs(abort_freq - p_abort) < 3 * sigma
    success_freq = rep_m.outcome_histogram["2"] / trials
    assert abs(success_freq - 79 / 81) < 3 * sigma

    rep_n = simulate(example_bundle, example_decoder, 2, trials, VARIANT_NO_MEASURE, seed=SEED)
    for key, p in (("0", 1 / 80), ("2", 79 / 80)):
        sig = math.sqrt(p * (1 - p) / trials)
        assert abs(rep_n.outcome_histogram[key] / trials - p) < 3 * sig
    assert rep_n.outcome_histogram["1"] == 0

    rep_m2 = simulate(example_bundle, example_decoder, 2, trials, VARIANT_MEASURE, seed=SEED)
    assert rep_m2 == rep_m
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(3, f"2x{trials} trials within 3 sigma, deterministic, in {elapsed:.1f}s")


def test_criterion_4_kraus_condition_suite(capsys):
    start = time.time()
    msgs = default_messages(2)
    rng = rng_from(SEED, 4)
    for k in range(50):
        lam0 = 0.5 + 0.49 * float(rng.random())
        s = SchmidtSpectrum.from_values([lam0, 1.0 - lam0])
        b = build_bundle(s, msgs, seed=k)
        assert max(b.defects.values()) < 1e-10
        closed = 1.0 - 2.0 * s.lambdas[-1] / compute_R(s)[-1]
        assert abs(b.p1 - closed) < 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _report(4, f"50 random d=2 bundles valid, p1 closed form agrees, in {elapsed:.1f}s")


def test_criterion_5_dilation_suite(capsys):
    report = dilation_suite(SEED)
    by_name = {c.name: c for c in report.checks}
    assert by_name["dilation-unitarity"].defect < 1e-10
    assert by_name["partial-trace-agreement"].defect < 1e-12
    with capsys.disabled():
        _report(5, f"50 dilations: unitarity {by_name['dilation-unitarity'].defect:.1e}, "
                   f"reduction {by_name['partial-trace-agreement'].defect:.1e}")


def test_criterion_6_orthogonalization_suite(capsys):
    report = orthogonalize_suite(SEED)
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted-overlap"].defect < 1e-10
    assert by_name["channel-action-deviation"].defect < 1e-10
    assert by_name["quadratic-residual"].defect < 1e-12
    with capsys.disabled():
        _report(6, f"100 pairs: overlap {by_name['lifted-overlap'].defect:.1e}, "
                   f"action {by_name['channel-action-deviation'].defect:.1e}")


def test_criterion_7_lifted_independence(capsys):
    report = independence_suite(SEED)
    assert report.checks[0].defect == 0.0
    with capsys.disabled():
        _report(7, "100 random collections: lifted Gram rank equals size")


def test_criterion_8_identity_suite(capsys):
    for d in (2, 3):
        spectrum, messages, k0, k1 = weyl_witness(d)
        report = verify_necessary_identities(spectrum, messages, k0, k1)
        assert report.case_tag == CASE_I
        assert report.max_identity_defect() < 1e-9

    rng = rng_from(SEED, 8)
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        value, uniform = uniformity_witness(random_spectrum(d, rng))
        assert not uniform
        assert abs(value - d) > 1e-12
    for d in (2, 3, 5, 7):
        value, uniform = uniformity_witness(uniform_spectrum(d))
        assert uniform and abs(value - d) < 1e-12
    with capsys.disabled():
        _report(8, "witness configurations case-i with defects < 1e-9; "
                   "uniformity witness separates 1000 random spectra")


def test_criterion_9_support_containment(capsys):
    report = containment_suite(SEED)
    assert report.checks[0].defect < 1e-9
    with capsys.disabled():
        _report(9, f"50 configurations: worst residual {report.checks[0].defect:.1e}")
