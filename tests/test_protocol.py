import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecode import protocol, tolerances
from densecode.channels import dilate, dilation_unitary
from densecode.encoding import UnitaryMessageSet, certify_distinguishable, search_message_set, weyl_set
from densecode.linalg import max_abs, random_unitaries, rng_from, rng_streams
from densecode.protocol import (
    SIM_CHUNK,
    BundleError,
    VARIANT_MEASURE,
    VARIANT_NO_MEASURE,
    bob_distribution,
    bounds_rows,
    build_bundle,
    build_decoder,
    bundle_to_json,
    compute_R,
    default_messages,
    _delivered,
    encode_message,
    gamma_from_spectrum,
    normalize_variant,
    p1_bound_general,
    p1_equal_tail,
    report_to_json,
    simulate,
)
from densecode.serialize import dumps
from densecode.states import SchmidtSpectrum, make_schmidt_state, uniform_spectrum

from conftest import EXAMPLE_M, SEED, bob_distribution_loop, random_spectrum, simulate_counting_loop


@pytest.fixture(scope="module")
def d3_bundle():
    """A qutrit bundle on a searched 7-message set."""
    s = SchmidtSpectrum.from_values([0.35, 0.325, 0.325])
    messages = search_message_set(s, 7, seed=5, max_iters=8)
    assert messages is not None
    return build_bundle(s, messages, seed=SEED)


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


def test_bundle_names_certified_set_below_unitarity_gate(example_spectrum):
    # (I, X R(4e-8)) has Gram defect 5e-10: it passes the 1e-9 certificate but
    # not the 1e-10 orthonormality that the unitary completion needs.
    a = 4e-8
    rotation = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    messages = UnitaryMessageSet(d=2, unitaries=(np.eye(2), weyl_set(2).unitaries[1] @ rotation))
    cert = certify_distinguishable(messages, make_schmidt_state(example_spectrum))
    assert cert.passed and cert.gram_defect > tolerances.get().unitarity
    with pytest.raises(BundleError, match="1e-10 gate") as err:
        build_bundle(example_spectrum, messages, seed=SEED)
    assert err.value.defects == {"certificate": cert.gram_defect}


def test_bundle_kraus_arrays_are_read_only(example_bundle, example_decoder):
    # A write to a bundle or decoder array would change later decodes or the
    # emitted JSON; each must raise instead.
    b = example_bundle
    arrays = {
        "m": b.m, "t": b.t, "y": b.y, "c": b.c, "gamma": b.gamma, "r": b.r,
        "lifted": b.lifted, "branches": b.branches, "dilation": b.dilation,
        "projectors": example_decoder.projectors,
        "dilation_unitary": dilation_unitary(b.channel(), seed=SEED),
    }
    held = {f.name for f in dataclasses.fields(b) if isinstance(getattr(b, f.name), np.ndarray)}
    assert held == arrays.keys() - {"projectors", "dilation_unitary"}
    for a in arrays.values():
        corner = (0,) * a.ndim
        with pytest.raises(ValueError, match="read-only"):
            a[corner] = a[corner]  # the same value: a failure leaves the shared fixtures intact


def test_bundle_lifts_are_exact_products(example_spectrum, example_bundle):
    # Each lifted entry is the single product sqrt(lambda_j) U[i, j], so the
    # stacked lift equals lifting one operator at a time, bit for bit.
    from densecode.encoding import lift_messages
    from densecode.states import apply_local

    psi = make_schmidt_state(example_spectrum)
    ops = (example_bundle.t, example_bundle.y, example_bundle.c)
    assert np.array_equal(example_bundle.lifted, lift_messages(example_bundle.messages, psi))
    assert np.array_equal(example_bundle.branches, [apply_local(k, psi).coords for k in ops])

    spectrum = SchmidtSpectrum.from_values([0.4, 0.35, 0.25])
    psi = make_schmidt_state(spectrum)
    unitaries = weyl_set(3).unitaries[:7]
    lifted = lift_messages(UnitaryMessageSet(d=3, unitaries=unitaries), psi)
    assert np.array_equal(lifted, [apply_local(u, psi).coords for u in unitaries])
    root = np.sqrt(np.asarray(spectrum.lambdas))[None, :, None]
    assert np.array_equal(lifted, (root * np.swapaxes(unitaries, 1, 2)).reshape(7, 9))


def test_bundle_branch_plane_matches_example(example_bundle):
    # The added-column plane is completion-invariant and matches the example.
    added = example_bundle.m[:, 2:]
    ours = added @ added.conj().T
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


def assert_p1_routes(bundle):
    """p1 = sum_j lambda_j gamma_j matches the closed form and the C-branch norm."""
    tol = tolerances.get()
    lam = np.asarray(bundle.spectrum.lambdas)
    closed = 1.0 - 2.0 * lam[-1] / bundle.r[-1]
    assert abs(bundle.p1 - closed) <= tol.bundle
    assert abs(bundle.p1 - float(np.linalg.norm(bundle.branches[2]) ** 2)) <= tol.equality


def test_abort_probability_routes(example_bundle):
    assert abs(example_bundle.p1 - 2 / 81) < 1e-12
    assert_p1_routes(example_bundle)


@pytest.mark.parametrize(
    "values, count",
    [([0.35, 0.325, 0.325], 7), ([0.28, 0.24, 0.24, 0.24], 14)],
)
def test_flat_tail_bundle_has_exact_zero_gammas(values, count):
    # Every index tied with the smallest coefficient has gamma = 0 by
    # construction; the bundle snaps it to an exact zero, and C is the
    # square root of gamma bit for bit.
    s = SchmidtSpectrum.from_values(values)
    messages = search_message_set(s, count, seed=1, max_iters=1)
    assert messages is not None
    bundle = build_bundle(s, messages, seed=SEED)
    exact, _ = p1_equal_tail(s.d, values[0])
    assert abs(bundle.p1 - exact) <= tolerances.get().bundle
    assert np.all(bundle.gamma[1:] == 0.0) and bundle.gamma[0] > 0.0
    assert np.array_equal(bundle.c, np.diag(np.sqrt(bundle.gamma)))
    assert_p1_routes(bundle)


def test_bundle_refuses_a_remainder_off_the_positive_diagonal(example_spectrum, monkeypatch):
    # A completion that ignores the lifted columns leaves T'T + Y'Y with
    # off-diagonal mass, so I - T'T - Y'Y has no diagonal square root.
    monkeypatch.setattr(protocol, "complete_to_unitary", lambda columns, seed: random_unitaries(4, [seed])[0])
    with pytest.raises(BundleError, match="Kraus remainder") as err:
        build_bundle(example_spectrum, default_messages(2), seed=SEED)
    assert err.value.defects["remainder"] > tolerances.get().unitarity


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


def test_decoder_refuses_a_branch_plane_that_is_not_a_projector(example_bundle):
    scaled = dataclasses.replace(example_bundle, p_t=2.0 * example_bundle.p_t)
    with pytest.raises(BundleError, match="decoder projector 2 is not an orthogonal projector"):
        build_decoder(scaled)


def test_decoder_refuses_a_repeated_lifted_message(example_bundle):
    lifted = example_bundle.lifted.copy()
    lifted[1] = lifted[0]
    with pytest.raises(BundleError, match="decoder projectors 0 and 1 are not orthogonal"):
        build_decoder(dataclasses.replace(example_bundle, lifted=lifted))


def test_decoder_raises_the_first_failure_in_order(d3_bundle):
    # Projector i is checked before its pairs (j, i), and i runs upward.
    lifted = d3_bundle.lifted.copy()
    lifted[5], lifted[6] = lifted[2], lifted[3]
    scaled = dataclasses.replace(d3_bundle, lifted=lifted, p_t=2.0 * d3_bundle.p_t)
    with pytest.raises(BundleError, match="decoder projectors 2 and 5 are not orthogonal"):
        build_decoder(scaled)
    with pytest.raises(BundleError, match="decoder projector 7 is not an orthogonal projector"):
        build_decoder(dataclasses.replace(d3_bundle, p_t=2.0 * d3_bundle.p_t))
    lifted = d3_bundle.lifted.copy()
    lifted[4] = 2.0 * lifted[0]  # not idempotent, and not orthogonal to projector 0
    with pytest.raises(BundleError, match="decoder projector 4 is not an orthogonal projector"):
        build_decoder(dataclasses.replace(d3_bundle, lifted=lifted))


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
    assert aborted.aborted and aborted.ancilla_dim == 1
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    assert max_abs(aborted.state - e00) < 1e-12


def test_encode_needs_an_rng_only_to_sample_an_abort(example_bundle):
    with pytest.raises(ValueError, match="encode_message: the measured final message needs an rng"):
        encode_message(example_bundle, 2, VARIANT_MEASURE, None)
    # No other path samples anything: not the unitary messages, not the
    # unmeasured final message, and not a final message that cannot abort.
    assert not encode_message(example_bundle, 0, VARIANT_MEASURE, None).aborted
    assert not encode_message(example_bundle, 2, VARIANT_NO_MEASURE, None).aborted
    uniform = build_bundle(uniform_spectrum(2), default_messages(2), seed=SEED)
    assert uniform.p1 == 0.0
    assert not encode_message(uniform, 2, VARIANT_MEASURE, None).aborted


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


def _bundle_seeds_cases(spectrum, messages):
    """Every message's delivered state and the abort state, both variants, for five bundle seeds."""
    for seed in range(5):
        bundle = build_bundle(spectrum, messages, seed=seed)
        decoder = build_decoder(bundle)
        for variant in (VARIANT_MEASURE, VARIANT_NO_MEASURE):
            for message in range(bundle.n_messages):
                yield decoder, _delivered(bundle, message, variant)
        if bundle.p1 > 0.0:
            aborted = bundle.branches[2] / np.sqrt(bundle.p1)
            yield decoder, protocol.EncodedMessage(state=aborted, ancilla_dim=1, aborted=True)


@pytest.mark.parametrize(
    "values, count, search_seed",
    [
        (None, 2, None),
        ([0.35, 0.33, 0.32], 7, 3),
        ([0.38, 0.32, 0.30], 7, 1),
        ([0.28, 0.26, 0.24, 0.22], 14, 1),
    ],
)
def test_bob_distribution_matches_projector_loop(values, count, search_seed):
    # The stacked trace is bit for bit the per-projector loop; None draws 30 random d = 2 spectra.
    if values is None:
        rng = rng_from(29)
        sets = [(random_spectrum(2, rng), default_messages(2)) for _ in range(30)]
    else:
        s = SchmidtSpectrum.from_values(values)
        messages = search_message_set(s, count, seed=search_seed, max_iters=1)
        assert messages is not None
        sets = [(s, messages)]
    for spectrum, messages in sets:
        for decoder, encoded in _bundle_seeds_cases(spectrum, messages):
            assert np.array_equal(bob_distribution(decoder, encoded), bob_distribution_loop(decoder, encoded))


def test_simulate_pure_message(example_bundle, example_decoder):
    rep = simulate(example_bundle, example_decoder, 0, 1000, VARIANT_MEASURE, seed=5)
    assert rep.outcome_histogram["0"] == 1000
    assert sum(rep.outcome_histogram.values()) == rep.trials


def test_simulate_deterministic_given_seed(example_bundle, example_decoder):
    a = simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=17)
    b = simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=17)
    assert a == b
    # Reports with other seeds also differ in ``seed``; compare the histograms.
    others = [
        simulate(example_bundle, example_decoder, 2, 400, VARIANT_MEASURE, seed=s)
        for s in (18, 19, 20)
    ]
    assert any(c.outcome_histogram != a.outcome_histogram for c in others)


def test_simulate_rejects_bad_message(example_bundle, example_decoder):
    with pytest.raises(ValueError, match="out of range"):
        simulate(example_bundle, example_decoder, 3, 10, VARIANT_MEASURE, seed=1)


@pytest.mark.parametrize("trials", [10.5, 10.0, True, "10", None])
def test_simulate_refuses_non_integer_trials(example_bundle, example_decoder, trials):
    with pytest.raises(ValueError, match="simulate: trials must be an integer"):
        simulate(example_bundle, example_decoder, 2, trials, VARIANT_MEASURE, seed=1)
    numpy_int = simulate(example_bundle, example_decoder, 2, np.int64(10), VARIANT_MEASURE, seed=1)
    assert numpy_int.outcome_histogram == simulate(
        example_bundle, example_decoder, 2, 10, VARIANT_MEASURE, seed=1
    ).outcome_histogram


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


def searchsorted_reference(bundle, decoder, message, trials, variant, seed):
    """Per-trial outcome codes: invert each uniform by ``searchsorted``, then ``bincount``."""
    variant = normalize_variant(variant)
    measured = message == len(bundle.messages) and variant == VARIANT_MEASURE
    cum = np.cumsum(protocol.bob_distribution(decoder, _delivered(bundle, message, variant)))
    n_out = decoder.n_outcomes
    undetected, aborted = n_out, n_out + 1
    tally = np.zeros(n_out + 2, dtype=np.int64)
    for chunk, start in enumerate(range(0, trials, SIM_CHUNK)):
        n = min(SIM_CHUNK, trials - start)
        rng = rng_from(seed, chunk)
        codes = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), undetected)
        if measured:
            codes[rng.random(n) < bundle.p1] = aborted
        tally += np.bincount(codes, minlength=n_out + 2)
    counts = {str(j): int(tally[j]) for j in range(n_out)}
    counts["aborted"] = int(tally[aborted])
    counts["undetected"] = int(tally[undetected])
    return counts


def assert_tally_matches_reference(bundle, decoder, trials, seed):
    for variant in (VARIANT_MEASURE, VARIANT_NO_MEASURE):
        for message in range(bundle.n_messages):
            hist = simulate(bundle, decoder, message, trials, variant, seed).outcome_histogram
            assert hist == searchsorted_reference(bundle, decoder, message, trials, variant, seed)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    lam0=st.floats(min_value=0.5, max_value=1.0 - 1e-9, exclude_min=True),
    trials=st.integers(min_value=1, max_value=3 * SIM_CHUNK + 1),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
)
@example(lam0=0.5 + 1e-12, trials=3 * SIM_CHUNK + 1, seed=2 ** 64 - 1)
@example(lam0=1.0 - 1e-9, trials=SIM_CHUNK, seed=12345)
def test_simulate_tally_matches_searchsorted_reference(lam0, trials, seed):
    bundle = build_bundle(SchmidtSpectrum.from_values([lam0, 1.0 - lam0]), default_messages(2), seed=SEED)
    assert_tally_matches_reference(bundle, build_decoder(bundle), trials, seed)


def test_simulate_tally_matches_reference_on_d3_bundle(d3_bundle):
    decoder = build_decoder(d3_bundle)
    for trials, seed in ((1, 0), (SIM_CHUNK + 1, 3), (2 * SIM_CHUNK + 7, 2 ** 64 - 1)):
        assert_tally_matches_reference(d3_bundle, decoder, trials, seed)


def uniform_of(word):
    """The uniform that numpy's ``Generator.random`` makes of a raw 64-bit word (or uint64 array)."""
    return (word >> 11) * 2.0 ** -53


_DYADIC = st.integers(min_value=1, max_value=2 ** 53 - 1).map(lambda k: math.ldexp(k, -53))
_THRESHOLDS = (
    st.sampled_from([5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53])
    | _DYADIC
    | _DYADIC.map(lambda t: math.nextafter(t, 0.0))
    | _DYADIC.map(lambda t: math.nextafter(t, 1.0)).filter(lambda t: t < 1.0)
    | st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    t=_THRESHOLDS,
    words=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=4),
    offsets=st.lists(st.integers(min_value=-4096, max_value=4096), min_size=1, max_size=4),
)
@example(t=2.0 ** -53, words=[0, 2047, 2048, 4095, 4096], offsets=[0])
@example(t=1.0 - 2.0 ** -53, words=[2 ** 64 - 1, 2 ** 64 - 2049, 2 ** 64 - 2048], offsets=[0])
def test_word_bound_splits_words_as_their_uniforms(t, words, offsets):
    # A word lies below the bound exactly when its uniform lies below t,
    # checked on arbitrary words and on words around the bound itself.
    bound = protocol._word_bound(t)
    assert 0 < bound <= 2 ** 64 - 2 ** 11
    near = [min(max(bound + off, 0), 2 ** 64 - 1) for off in offsets]
    all_words = [*words, *near, bound - 1, bound]
    for w in all_words:
        assert (uniform_of(w) < t) == (w < bound), (t, w, bound)
    # numpy's uint64 comparison against the Python int bound, as ``simulate`` makes it.
    arr = np.array(all_words, dtype=np.uint64)
    assert ((arr < bound) == np.array([uniform_of(w) < t for w in all_words])).all()
    assert not (np.uint64(2 ** 64 - 1) < bound)


def test_word_bound_of_nan_has_no_word_below():
    assert protocol._word_bound(float("nan")) == 0


def rng_from_pairs():
    keys = ((0, 0), (12345, 3), (2 ** 64 - 1, 0))
    return [(rng_from(s, k), rng_from(s, k)) for s, k in keys]


def rng_streams_pairs():
    seeds = (0, 12345, 2 ** 64 - 1)
    return [pair for s in seeds for pair in zip(rng_streams(s, 13), rng_streams(s, 13))]


@pytest.mark.parametrize("pairs", [rng_from_pairs, rng_streams_pairs])
def test_random_is_the_raw_words_converted(pairs):
    # ``simulate`` counts raw words in place of ``random``'s uniforms; a numpy
    # that changed this conversion would change every histogram.
    for rng, twin in pairs():
        for n in (1, 5, SIM_CHUNK + 3):
            words = twin.bit_generator.random_raw(n)
            assert np.array_equal(rng.random(n), uniform_of(words))
        assert np.array_equal(rng.random(3), twin.random(3))


def test_simulate_tally_matches_reference_at_exact_ties(example_bundle, example_decoder, monkeypatch):
    seed = 7
    words = rng_from(seed, 0).bit_generator.random_raw(2 * SIM_CHUNK)
    uniforms = uniform_of(words)
    lo, hi = np.sort(uniforms[:2]).tolist()
    # The uniforms of the first trial word and the first abort word of chunk 0
    # whose low 11 bits are zero: each word equals its uniform's word bound.
    on_bound = words % 2048 == 0
    exact = float(uniforms[:SIM_CHUNK][on_bound[:SIM_CHUNK]][0])
    p1 = float(uniforms[SIM_CHUNK:][on_bound[SIM_CHUNK:]][0])
    below_one, above_one = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    nan = float("nan")
    cases = [
        # Real thresholds almost never equal a drawn uniform, so place them on
        # two uniforms of chunk 0: a uniform equal to a threshold lies above it,
        # and a zero-probability outcome between equal thresholds stays empty.
        (lo, lo, hi),
        # Doubles next to a drawn uniform: below 1/2 the one under it shares
        # its word bound (counted once), above 1/2 it is the next uniform down,
        # and the one over it has the next bound up.  Then the d = 2 instance's
        # measured final-message thresholds, which share a bound, and
        # thresholds on a word that equals its own bound.
        (np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0)),
        (np.nextafter(hi, 0.0), hi, below_one),
        (2.816077478181269e-17, 5.563199715134442e-17, hi),
        (np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)),
        (exact, exact, hi),
        # Thresholds at and beyond the ends of [0, 1), whose counts need no draw.
        (0.0, lo, 1.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, hi),
        (np.nextafter(0.0, 1.0), lo, above_one),
        (below_one, 1.0, above_one),
        (lo, 1.0, 1.0),
        (above_one, above_one, above_one),
        # NaN has no uniform below it, as in the loop that counts it.
        (lo, nan, nan),
        (nan, nan, nan),
    ]
    trials = 2 * SIM_CHUNK + 5
    # p1 on that abort uniform, and its two neighbours: that trial aborts only
    # at the upper one.  Then p1 at and beyond 1, where every trial aborts and
    # no word bound exists.
    near = (np.nextafter(p1, 0.0), p1, np.nextafter(p1, 1.0))
    bundles = [dataclasses.replace(example_bundle, p1=float(x)) for x in (*near, 1.0, above_one)]
    final = example_bundle.n_messages - 1
    for thresholds in cases:
        probs = np.diff([0.0, *thresholds, 1.0])
        assert np.array_equal(np.cumsum(probs)[:3], thresholds, equal_nan=True)
        monkeypatch.setattr(protocol, "bob_distribution", lambda decoder, encoded: probs)
        for variant in (VARIANT_MEASURE, VARIANT_NO_MEASURE):
            for message in range(example_bundle.n_messages):
                args = (example_bundle, example_decoder, message, trials, variant, seed)
                hist = simulate(*args).outcome_histogram
                assert hist == simulate_counting_loop(*args), (thresholds, variant, message)
                if not np.isnan(thresholds).any():
                    assert hist == searchsorted_reference(*args)
        aborts = []
        for bundle in bundles:
            args = (bundle, example_decoder, final, trials, VARIANT_MEASURE, seed)
            hist = simulate(*args).outcome_histogram
            assert hist == simulate_counting_loop(*args), (thresholds, bundle.p1)
            aborts.append(hist["aborted"])
        assert aborts[0] <= aborts[1] < aborts[2] <= aborts[3] == aborts[4] == trials


def test_simulate_builds_no_generator_for_a_fixed_outcome(example_bundle, example_decoder, monkeypatch):
    # Messages whose thresholds all lie at or beyond the ends of [0, 1), and
    # that sample no abort, get the counting loop's histogram without a draw.
    trials, seed = 100_000, 12345
    # This bundle seed puts the uniform spectrum's final thresholds at 0, 0, 1 + 2**-52; p1 = 0.
    uniform = build_bundle(uniform_spectrum(2), default_messages(2), seed=1)
    uniform_decoder = build_decoder(uniform)
    assert uniform.p1 == 0.0
    variants = (VARIANT_MEASURE, VARIANT_NO_MEASURE)
    for variant in variants:
        dist = bob_distribution(uniform_decoder, _delivered(uniform, 2, variant))
        assert np.cumsum(dist)[:3].tolist() == [0.0, 0.0, 1.0 + 2.0 ** -52]
    cases = [(example_bundle, example_decoder, m, v) for m in (0, 1) for v in variants]
    cases += [(uniform, uniform_decoder, 2, v) for v in variants]
    wants = [simulate_counting_loop(b, dec, m, trials, v, seed) for b, dec, m, v in cases]

    def refuse(*streams):
        raise AssertionError(f"simulate built generators for streams {streams}")

    monkeypatch.setattr(protocol, "rng_streams", refuse)
    for (bundle, decoder, message, variant), want in zip(cases, wants):
        assert want[str(message)] == trials
        assert simulate(bundle, decoder, message, trials, variant, seed).outcome_histogram == want
    for variant in variants:
        with pytest.raises(AssertionError, match="simulate built generators"):
            simulate(example_bundle, example_decoder, 2, trials, variant, seed)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(lam0=st.floats(min_value=0.5, max_value=1.0 - 1e-9))
def test_bundle_states_property(lam0):
    spectrum = SchmidtSpectrum.from_values([lam0, 1.0 - lam0])
    bundle = build_bundle(spectrum, default_messages(2), seed=SEED)
    decoder = build_decoder(bundle)
    eq = tolerances.get().equality
    assert max_abs(sum(decoder.projectors) - np.eye(4)) <= eq
    final = encode_message(bundle, 2, VARIANT_NO_MEASURE, None)
    dilated = dilate(bundle.dilation, make_schmidt_state(spectrum).coords)
    assert max_abs(final.state - dilated) <= eq
    for variant in (VARIANT_MEASURE, VARIANT_NO_MEASURE):
        for index in range(bundle.n_messages):
            encoded = encode_message(bundle, index, variant, rng_from(SEED, index))
            assert bob_distribution(decoder, encoded)[-1] <= eq
    assert_p1_routes(bundle)


def test_simulate_accepts_cli_variant_names(example_bundle, example_decoder):
    rep = simulate(example_bundle, example_decoder, 2, 50, "no-measure", seed=4)
    assert rep.variant == VARIANT_NO_MEASURE


def test_d3_bundle_end_to_end(d3_bundle):
    # Full qutrit flow: searched 7-message set, bundle, decoder, simulation.
    bundle = d3_bundle
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


def test_d4_bundle_from_searched_set():
    s = SchmidtSpectrum.from_values([0.28, 0.26, 0.24, 0.22])
    messages = search_message_set(s, 14, seed=2)
    assert messages is not None
    bundle = build_bundle(s, messages, seed=SEED)
    eq = tolerances.get().equality
    closed = 1.0 - 2.0 * s.lambdas[-1] / compute_R(s)[-1]
    assert abs(closed - 12 / 23) <= eq
    assert abs(bundle.p1 - closed) <= eq

    decoder = build_decoder(bundle)
    assert len(decoder.projectors) == 15
    assert max_abs(sum(decoder.projectors) - np.eye(16)) <= eq


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


def test_report_json_of_numpy_integer_arguments(example_bundle, example_decoder):
    # numpy integers for trials, message and seed give the report of Python ints, byte for byte.
    typed = simulate(example_bundle, example_decoder, np.int32(2), np.int64(10), "measure", np.uint64(5))
    plain = simulate(example_bundle, example_decoder, 2, 10, "measure", 5)
    assert dumps(report_to_json(typed)) == dumps(report_to_json(plain))
    assert all(type(v) is int for v in (typed.trials, typed.message_sent, typed.seed))


def test_d5_bundle_from_searched_set():
    # The one searched point at d >= 5: 23 messages at a near-uniform spectrum.
    s = SchmidtSpectrum.from_values([0.205, 0.2025, 0.2, 0.1975, 0.195])
    messages = search_message_set(s, 23, seed=2, max_iters=1)
    assert messages is not None
    bundle = build_bundle(s, messages, seed=SEED)
    eq = tolerances.get().equality
    assert abs(bundle.p1 - (1.0 - 2.0 * s.lambdas[-1] / compute_R(s)[-1])) <= eq

    decoder = build_decoder(bundle)
    assert decoder.projectors.shape == (24, 25, 25)
    assert max_abs(decoder.projectors.sum(axis=0) - np.eye(25)) <= eq
    arrays = [getattr(bundle, f.name) for f in dataclasses.fields(bundle)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 9
    for a in (*arrays, messages.unitaries, decoder.projectors):
        assert not a.flags.writeable
