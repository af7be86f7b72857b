import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode.linalg import max_abs, rng_from
from densecode.protocol import (
    SIM_CHUNK,
    BundleError,
    VARIANT_MEASURE,
    VARIANT_NO_MEASURE,
    abort_probability,
    bob_distribution,
    bounds_rows,
    build_bundle,
    build_decoder,
    bundle_to_json,
    compute_R,
    default_messages,
    encode_message,
    gamma_from_spectrum,
    p1_bound_general,
    p1_equal_tail,
    report_to_json,
    simulate,
)
from densecode.serialize import dumps
from densecode.states import SchmidtSpectrum, make_schmidt_state, uniform_spectrum

from conftest import EXAMPLE_M, SEED


def test_compute_R_example(example_spectrum):
    r = compute_R(example_spectrum)
    assert np.allclose(r, [79 / 80, 81 / 80], atol=1e-14)


def test_compute_R_uniform():
    for d in (2, 3, 5):
        r = compute_R(uniform_spectrum(d))
        assert np.allclose(r, 2.0 / d, atol=1e-14)


def test_compute_R_rejects_skewed_spectrum():
    with pytest.raises(BundleError):
        compute_R(SchmidtSpectrum.from_values([0.5, 0.3, 0.2]))  # 0.5 > 3/7


def test_bundle_example_gamma(example_bundle):
    assert abs(example_bundle.gamma[0] - 320 / 6561) < 1e-12
    assert example_bundle.gamma[1] == 0.0


def test_bundle_example_probabilities(example_bundle):
    assert abs(example_bundle.p_t - 79 / 162) < 1e-12
    assert abs(example_bundle.p_y - 79 / 162) < 1e-12
    assert abs(example_bundle.p1 - 2 / 81) < 1e-12


def test_bundle_maximally_entangled_has_zero_failure():
    b = build_bundle(uniform_spectrum(2), default_messages(2), seed=SEED)
    assert max_abs(b.c) == 0.0
    assert b.p1 == 0.0


def test_bundle_rejects_wrong_message_count(example_spectrum):
    from densecode.encoding import UnitaryMessageSet

    with pytest.raises(BundleError):
        build_bundle(
            example_spectrum,
            UnitaryMessageSet(d=2, unitaries=(np.eye(2, dtype=complex),)),
            seed=SEED,
        )


def test_bundle_rejects_indistinguishable_messages(example_spectrum):
    from densecode.encoding import UnitaryMessageSet

    eye = np.eye(2, dtype=complex)
    with pytest.raises(BundleError):
        build_bundle(example_spectrum, UnitaryMessageSet(d=2, unitaries=(eye, eye)), seed=SEED)


def test_bundle_branch_plane_matches_example(example_bundle):
    # The added-column plane is completion-invariant and matches the example.
    ours = np.outer(example_bundle.v, example_bundle.v.conj()) + np.outer(
        example_bundle.w, example_bundle.w.conj()
    )
    reference = EXAMPLE_M[:, 2:] @ EXAMPLE_M[:, 2:].conj().T
    assert max_abs(ours - reference) < 1e-10


def test_completion_invariance_of_scalars(example_spectrum):
    msgs = default_messages(2)
    reference = build_bundle(example_spectrum, msgs, seed=0)
    for seed in range(1, 11):
        b = build_bundle(example_spectrum, msgs, seed=seed)
        assert max_abs(b.gamma - reference.gamma) < 1e-10
        assert abs(b.p1 - reference.p1) < 1e-10
        assert abs(b.p_t - reference.p_t) < 1e-10
        assert abs(b.p_y - reference.p_y) < 1e-10


def test_lifted_branches_orthogonal_to_messages(example_spectrum):
    from densecode.states import apply_local

    rng = rng_from(81)
    msgs = default_messages(2)
    for k in range(5):
        lam0 = 0.5 + 0.45 * float(rng.random())
        s = SchmidtSpectrum.from_values([lam0, 1 - lam0])
        b = build_bundle(s, msgs, seed=k)
        psi = make_schmidt_state(s)
        for branch in (b.t, b.y):
            lifted = apply_local(branch, psi).coords
            for u in msgs.unitaries:
                assert abs(np.vdot(apply_local(u, psi).coords, lifted)) < 1e-10


def test_abort_probability_routes(example_bundle):
    assert abs(abort_probability(example_bundle) - 2 / 81) < 1e-12


def test_abort_probability_equal_tail_d3():
    s = SchmidtSpectrum.from_values([3 / 8, 5 / 16, 5 / 16])
    lam = np.asarray(s.lambdas)
    p1_sum = float(np.sum(lam * gamma_from_spectrum(s)))
    exact, _ = p1_equal_tail(3, 3 / 8)
    closed = 1.0 - 2.0 * lam[-1] / compute_R(s)[-1]
    assert abs(p1_sum - 3 / 13) < 1e-12
    assert abs(exact - 3 / 13) < 1e-12
    assert abs(closed - 3 / 13) < 1e-12


def test_p1_bound_general_values(example_spectrum):
    assert abs(p1_bound_general(example_spectrum) - 1 / 40) < 1e-12
    assert 2 / 81 <= p1_bound_general(example_spectrum)
    assert p1_bound_general(uniform_spectrum(3)) == 0.0
    d3 = SchmidtSpectrum.from_values([3 / 8, 5 / 16, 5 / 16])
    assert abs(p1_bound_general(d3) - 9 / 8) < 1e-12


def test_p1_equal_tail_values():
    _, bound3 = p1_equal_tail(3, 3 / 8)
    assert abs(bound3 - 0.28125) < 1e-12
    _, bound7 = p1_equal_tail(7, 7 / 48)
    assert abs(bound7 - 343 / 4032) < 1e-12
    exact, bound = p1_equal_tail(4, 1 / 4)
    assert exact == 0.0 and bound == 0.0
    with pytest.raises(ValueError):
        p1_equal_tail(3, 0.5)


def test_p1_equal_tail_monotone_and_vanishing():
    for d in range(2, 8):
        lo, hi = 1.0 / d, d / (d * d - 2)
        grid = [lo + k * (hi - lo) / 50 for k in range(50)]
        values = [p1_equal_tail(d, lam0)[0] for lam0 in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        near, _ = p1_equal_tail(d, 1.0 / d + 1e-8)
        assert near < 1e-6


def test_bounds_rows_ordering():
    rows = bounds_rows(3, [1 / 3, 3 / 8, 0.4])
    for row in rows:
        assert row["p1_exact"] <= row["p1_bound_equal_tail"] + 1e-12
        assert row["p1_bound_equal_tail"] <= row["p1_bound_general"] + 1e-12


def test_decoder_structure(example_bundle, example_decoder):
    projs = example_decoder.projectors
    assert len(projs) == 3
    ranks = [round(float(np.trace(p).real)) for p in projs]
    assert ranks == [1, 1, 2]
    total = sum(projs)
    assert max_abs(total - np.eye(4)) < 1e-10
    for i, p in enumerate(projs):
        assert max_abs(p @ p - p) < 1e-10
        for j in range(i):
            assert max_abs(projs[j] @ p) < 1e-10


def test_decoder_final_projector_matches_branches(example_bundle, example_decoder):
    from densecode.states import apply_local

    psi = make_schmidt_state(example_bundle.spectrum)
    t_lift = apply_local(example_bundle.t, psi).coords
    y_lift = apply_local(example_bundle.y, psi).coords
    expected = (
        np.outer(t_lift, t_lift.conj()) / example_bundle.p_t
        + np.outer(y_lift, y_lift.conj()) / example_bundle.p_y
    )
    assert max_abs(example_decoder.projectors[-1] - expected) < 1e-12


def test_encode_identity_message(example_bundle):
    enc = encode_message(example_bundle, 0, VARIANT_MEASURE, rng_from(1))
    psi = make_schmidt_state(example_bundle.spectrum)
    assert max_abs(enc.state - psi.coords) == 0.0
    assert enc.ancilla_dim == 1 and not enc.aborted


def test_encode_rejects_bad_index(example_bundle):
    with pytest.raises(ValueError):
        encode_message(example_bundle, 3, VARIANT_MEASURE, rng_from(1))


def test_encode_abort_state_is_00(example_bundle):
    aborted = None
    for t in range(500):
        enc = encode_message(example_bundle, 2, VARIANT_MEASURE, rng_from(9, t))
        if enc.aborted:
            aborted = enc
            break
    assert aborted is not None
    assert aborted.ancilla_outcome == 1
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    assert max_abs(aborted.state - e00) < 1e-12


def test_encode_no_measure_never_aborts(example_bundle):
    for t in range(20):
        enc = encode_message(example_bundle, 2, VARIANT_NO_MEASURE, rng_from(10, t))
        assert not enc.aborted
        assert enc.ancilla_dim == 3


def test_decoder_never_misidentifies(example_bundle, example_decoder):
    for index in (0, 1):
        enc = encode_message(example_bundle, index, VARIANT_MEASURE, rng_from(2))
        dist = bob_distribution(example_decoder, enc)
        assert abs(dist[index] - 1.0) < 1e-12
        others = [p for k, p in enumerate(dist) if k != index]
        assert max(others) < 1e-12


def test_no_measure_distribution(example_bundle, example_decoder):
    enc = encode_message(example_bundle, 2, VARIANT_NO_MEASURE, rng_from(3))
    dist = bob_distribution(example_decoder, enc)
    assert abs(dist[0] - 1 / 80) < 1e-12
    assert dist[1] < 1e-15
    assert abs(dist[2] - 79 / 80) < 1e-12
    assert dist[3] < 1e-12  # undetected mass


def test_simulate_pure_message(example_bundle, example_decoder):
    rep = simulate(example_bundle, example_decoder, 0, 1000, VARIANT_MEASURE, seed=5)
    assert rep.outcome_histogram["0"] == 1000
    assert sum(rep.outcome_histogram.values()) == rep.trials


def test_simulate_deterministic_given_seed(example_bundle, example_decoder):
    a = simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=17)
    b = simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=17)
    assert a == b
    c = simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=18)
    assert a != c


def test_simulate_rejects_bad_message(example_bundle, example_decoder):
    with pytest.raises(ValueError, match="out of range"):
        simulate(example_bundle, example_decoder, 3, 10, VARIANT_MEASURE, seed=1)


@pytest.mark.parametrize("trials", [1, SIM_CHUNK - 1, SIM_CHUNK, SIM_CHUNK + 1, 3 * SIM_CHUNK])
def test_simulate_chunk_boundaries(example_bundle, example_decoder, trials):
    for message in (0, 1):
        for variant in (VARIANT_MEASURE, VARIANT_NO_MEASURE):
            hist = simulate(example_bundle, example_decoder, message, trials, variant, seed=7).outcome_histogram
            assert sum(hist.values()) == trials
            assert hist[str(message)] == trials
    hist = simulate(example_bundle, example_decoder, 2, trials, VARIANT_MEASURE, seed=7).outcome_histogram
    assert sum(hist.values()) == trials
    assert hist["aborted"] + hist["2"] == trials
    assert hist["0"] == hist["1"] == hist["undetected"] == 0


def test_simulate_chunk_streams(example_bundle, example_decoder):
    # A full chunk draws the same stream whatever follows it, so one more
    # trial past a chunk boundary adds exactly one outcome.
    full = simulate(example_bundle, example_decoder, 2, SIM_CHUNK, VARIANT_MEASURE, seed=7)
    more = simulate(example_bundle, example_decoder, 2, SIM_CHUNK + 1, VARIANT_MEASURE, seed=7)
    diffs = [more.outcome_histogram[k] - full.outcome_histogram[k] for k in full.outcome_histogram]
    assert sorted(diffs) == [0, 0, 0, 0, 1]
    aborts = {
        simulate(example_bundle, example_decoder, 2, 3 * SIM_CHUNK, VARIANT_MEASURE, seed=s).outcome_histogram["aborted"]
        for s in range(5)
    }
    assert len(aborts) > 1
    # Each chunk draws its own stream, so two chunks are not one chunk twice.
    assert any(
        simulate(example_bundle, example_decoder, 2, 2 * SIM_CHUNK, VARIANT_MEASURE, seed=s).outcome_histogram["aborted"]
        != 2 * simulate(example_bundle, example_decoder, 2, SIM_CHUNK, VARIANT_MEASURE, seed=s).outcome_histogram["aborted"]
        for s in range(3)
    )


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    # lambda0 -> 1 meets the d/(d^2-2) = 1 edge, which build_bundle refuses within tolerance.
    lam0=st.floats(min_value=0.5, max_value=1.0 - 1e-9, exclude_min=True),
    trials=st.integers(min_value=1, max_value=3 * SIM_CHUNK + 1),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 4),
)
def test_simulate_abort_frequency_property(lam0, trials, seed):
    bundle = build_bundle(SchmidtSpectrum.from_values([lam0, 1.0 - lam0]), default_messages(2), seed=SEED)
    decoder = build_decoder(bundle)
    report = simulate(bundle, decoder, 2, trials, VARIANT_MEASURE, seed=seed)
    assert simulate(bundle, decoder, 2, trials, VARIANT_MEASURE, seed=seed) == report
    aborted = report.outcome_histogram["aborted"]
    assert aborted + report.outcome_histogram["2"] == trials
    # 5 sigma as a Bernstein bound at the two-sided 5-sigma tail mass: about
    # 5.5 sigma for large counts, and still valid where p1 * trials or
    # (1 - p1) * trials is tiny and the normal approximation is not.
    log_tail = math.log(2.0 / math.erfc(5.0 / math.sqrt(2.0)))
    var = trials * bundle.p1 * (1.0 - bundle.p1)
    allowed = log_tail / 3.0 + math.sqrt((log_tail / 3.0) ** 2 + 2.0 * var * log_tail)
    assert abs(aborted - bundle.p1 * trials) <= allowed
    # Reports also compare their seeds, so check that other seeds move the
    # counts themselves, where the spread makes a three-way tie negligible.
    if var >= 100:
        others = [simulate(bundle, decoder, 2, trials, VARIANT_MEASURE, seed=seed + k) for k in (1, 2, 3)]
        assert any(o.outcome_histogram != report.outcome_histogram for o in others)


def test_simulate_accepts_cli_variant_names(example_bundle, example_decoder):
    rep = simulate(example_bundle, example_decoder, 2, 50, "no-measure", seed=4)
    assert rep.variant == VARIANT_NO_MEASURE


def test_d3_bundle_end_to_end():
    # Full qutrit flow: searched 7-message set, bundle, decoder, simulation.
    from densecode.encoding import search_message_set
    from densecode.protocol import build_decoder

    s = SchmidtSpectrum.from_values([0.35, 0.325, 0.325])
    messages = search_message_set(s, 7, seed=5, max_iters=8)
    assert messages is not None
    bundle = build_bundle(s, messages, seed=SEED)

    exact, _ = p1_equal_tail(3, 0.35)
    assert abs(bundle.p1 - exact) < 1e-9
    assert abs(bundle.gamma[1]) < 1e-9 and abs(bundle.gamma[2]) < 1e-12

    decoder = build_decoder(bundle)
    assert len(decoder.projectors) == 8
    assert max_abs(sum(decoder.projectors) - np.eye(9)) < 1e-9

    rep = simulate(bundle, decoder, 3, 200, VARIANT_MEASURE, seed=3)
    assert rep.outcome_histogram["3"] == 200
    rep_final = simulate(bundle, decoder, 7, 3000, VARIANT_MEASURE, seed=3)
    freq = rep_final.outcome_histogram["aborted"] / 3000
    sigma = np.sqrt(exact * (1 - exact) / 3000)
    assert abs(freq - exact) < 4 * sigma
    assert rep_final.outcome_histogram["7"] == 3000 - rep_final.outcome_histogram["aborted"]


def test_bundle_json_shape(example_bundle):
    doc = bundle_to_json(example_bundle)
    assert doc["schema"] == "densecode/1"
    assert doc["spectrum"]["exact"] == ["81/160", "79/160"]
    assert doc["p1"] == pytest.approx(2 / 81, abs=1e-12)
    assert set(doc["invariant_defects"]) >= {"kraus_condition", "gamma_formula", "p_total"}
    assert dumps(doc) == dumps(bundle_to_json(example_bundle))


def test_report_json_histogram_total(example_bundle, example_decoder):
    rep = simulate(example_bundle, example_decoder, 2, 200, VARIANT_MEASURE, seed=6)
    doc = report_to_json(rep)
    assert sum(doc["outcome_histogram"].values()) == 200
