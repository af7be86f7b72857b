import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import tolerances
from densecode.channels import (
    QuantumChannel,
    apply_kraus,
    containment_residuals,
    dilate,
    dilation_unitaries,
    dilation_unitary,
    kraus_ranks,
    lifted_kraus,
    orthogonality_quadratics,
    orthogonalize_kraus_pairs,
    random_trace_preserving_kraus,
    support_projector,
    trace_out_ancilla_state,
)
from densecode.linalg import (
    hermitian_eigenvalues,
    max_abs,
    random_unitaries,
    rng_from,
    unitarity_defect,
)
from densecode.states import (
    BipartiteState,
    SchmidtSpectrum,
    apply_local,
    local_action,
    make_schmidt_state,
    schmidt_coords,
    uniform_spectrum,
)

from conftest import (
    EXAMPLE_C,
    EXAMPLE_T,
    EXAMPLE_Y,
    I2,
    X,
    complete_to_unitary_loop,
    random_channel,
    random_density,
    random_spectrum,
)


def example_channel():
    return QuantumChannel(d=2, kraus=(EXAMPLE_T, EXAMPLE_Y, EXAMPLE_C))


def lifted_rank(kraus, psi):
    """Rank of the Gram matrix of the lifted Kraus states, counted from its eigenvalues."""
    lifted = lifted_kraus(kraus, psi.coords)
    eigs = hermitian_eigenvalues(lifted.conj() @ lifted.T)
    return int(np.sum(eigs > 1e-9 * eigs[0]))


def test_channel_rejects_supernormalized():
    with pytest.raises(ValueError):
        QuantumChannel(d=2, kraus=(2.0 * I2,))


@pytest.mark.parametrize("dtype", (complex, float))
def test_channel_freezes_copies_not_caller_arrays(dtype):
    k = np.eye(2, dtype=dtype)
    ch = QuantumChannel(d=2, kraus=(k,))
    assert k.flags.writeable
    assert not ch.kraus.flags.writeable
    k[0, 0] = 0.0
    assert ch.kraus[0][0, 0] == 1.0


def test_apply_identity_channel(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    rho = psi.density()
    out = apply_kraus(QuantumChannel(d=2, kraus=(I2,)).kraus, rho)
    assert max_abs(out - rho) == 0.0


def test_apply_single_shift_channel(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    out = apply_kraus(QuantumChannel(d=2, kraus=(X,)).kraus, psi.density())
    shifted = apply_local(X, psi).coords
    assert max_abs(out - np.outer(shifted, shifted.conj())) < 1e-15


def test_example_channel_branch_weights(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    out = apply_kraus(ch.kraus, psi.density())
    assert abs(np.trace(out).real - 1.0) < 1e-12
    weights = [apply_local(k, psi).norm() ** 2 for k in ch.kraus]
    assert abs(weights[0] - 79 / 162) < 1e-12
    assert abs(weights[1] - 79 / 162) < 1e-12
    assert abs(weights[2] - 2 / 81) < 1e-12


def lifted_reference(channel, rho):
    """Operator sum with each Kraus matrix lifted to (identity on Bob) x K."""
    eye = np.eye(channel.d)
    lifts = [np.kron(eye, k) for k in channel.kraus]
    return sum(m @ rho @ m.conj().T for m in lifts)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    d=st.sampled_from((2, 3, 4)),
    n_kraus=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    scale=st.sampled_from((1.0, 0.5)),
)
def test_apply_channel_matches_lifted_reference(d, n_kraus, seed, scale):
    tp = random_trace_preserving_kraus(d, n_kraus, [seed])[0]
    ch = QuantumChannel(d=d, kraus=tuple(scale * tp))
    rho = random_density(d * d, rng_from(seed))
    out = apply_kraus(ch.kraus, rho)
    assert max_abs(out - lifted_reference(ch, rho)) <= tolerances.get().equality


def test_random_channel_slices_dilation_rows():
    # K_r[i, j] = u[i * n + r, j] for the seeded random unitary u.
    for d, n in ((2, 1), (2, 3), (3, 2), (4, 4)):
        u = random_unitaries(d * n, [d + n])[0]
        kraus = random_trace_preserving_kraus(d, n, [d + n])[0]
        for r, k in enumerate(kraus):
            expected = np.empty((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    expected[i, j] = u[i * n + r, j]
            assert np.array_equal(k, expected)


def test_trace_preservation_on_random_inputs():
    rng = rng_from(51)
    kraus = random_trace_preserving_kraus(3, 2, [8])[0]
    for _ in range(5):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = apply_kraus(kraus, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_kraus_rank_unitary():
    assert kraus_ranks(QuantumChannel(d=2, kraus=(I2,)).kraus) == 1


def test_kraus_rank_dependent_pair():
    k = X / np.sqrt(5.0)
    assert kraus_ranks(QuantumChannel(d=2, kraus=(k, 2.0 * k)).kraus) == 1


def test_kraus_rank_example_triple():
    kraus = example_channel().kraus
    assert kraus_ranks(kraus) == 3
    # Gram-eigenvalue oracle agrees.
    flat = kraus.reshape(3, -1)
    eigs = hermitian_eigenvalues(flat.conj() @ flat.T)
    assert int(np.sum(eigs > 1e-9 * eigs[0])) == 3


def test_lifted_states_orthogonal_unitaries():
    psi = make_schmidt_state(SchmidtSpectrum.from_values([0.7, 0.3]))
    assert lifted_rank(np.stack((I2, X)) / np.sqrt(2), psi) == 2


def test_lifted_states_example_pair(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    lifted = lifted_kraus(np.stack((EXAMPLE_T, EXAMPLE_Y)), psi.coords)
    assert abs(np.linalg.norm(lifted[0]) ** 2 - 79 / 162) < 1e-12
    assert abs(np.linalg.norm(lifted[1]) ** 2 - 79 / 162) < 1e-12
    assert abs(np.vdot(lifted[0], lifted[1])) < 1e-12


def test_lifted_states_random_full_rank():
    rng = rng_from(52)
    kraus = tuple(
        (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 6.0 for _ in range(3)
    )
    ch = QuantumChannel(d=3, kraus=kraus)
    psi = make_schmidt_state(random_spectrum(3, rng))
    assert lifted_rank(ch.kraus, psi) == 3


def test_lifted_rank_tracks_kraus_rank_for_dependent_pair():
    k = X / np.sqrt(5.0)
    kraus = QuantumChannel(d=2, kraus=(k, 2.0 * k)).kraus
    psi = make_schmidt_state(SchmidtSpectrum.from_values([0.6, 0.4]))
    assert lifted_rank(kraus, psi) == kraus_ranks(kraus) == 1


def test_lifted_states_reject_zero_coefficient():
    coords = np.zeros(4, dtype=complex)
    coords[0] = 1.0  # second Schmidt amplitude vanishes
    with pytest.raises(ValueError, match="lifted_kraus: zero Schmidt coefficient"):
        lifted_kraus(QuantumChannel(d=2, kraus=(I2,)).kraus, coords)


# ---------------------------------------------------------------------------
# Dilation
# ---------------------------------------------------------------------------

def test_dilation_of_unitary_channel_is_itself():
    u = random_unitaries(3, [14])[0]
    dil = dilation_unitary(QuantumChannel(d=3, kraus=(u,)), seed=2)
    assert max_abs(dil - u) == 0.0


def dilation_loop_reference(channel, seed):
    """Column-by-column dilation: stacked Kraus columns, then slot routing."""
    d, n = channel.d, len(channel.kraus)
    cols = []
    for j in range(d):
        col = np.zeros(d * n, dtype=complex)
        for r, k in enumerate(channel.kraus):
            for i in range(d):
                col[i * n + r] = k[i, j]
        cols.append(col)
    completed = complete_to_unitary_loop(cols, seed)
    positions = [j * n for j in range(d)]
    positions += [j * n + s for s in range(1, n) for j in range(d)]
    u = np.empty_like(completed)
    for k, pos in enumerate(positions):
        u[:, pos] = completed[:, k]
    return u


def dilated_state_reference(channel, psi):
    """Joint (system x ancilla) vector: each lifted Kraus branch tagged by an ancilla level.

    Flat index = (joint two-qudit index) * N + ancilla level.  What ``dilate``
    must produce from the dilation of ``channel`` and ancilla level 0.
    """
    branches = [apply_local(k, psi).coords for k in channel.kraus]
    n_anc = len(branches)
    out = np.zeros(psi.d * psi.d * n_anc, dtype=complex)
    for r, branch in enumerate(branches):
        out[r::n_anc] = branch
    return out


def test_dilation_matches_loop_reference():
    for d, n in ((2, 1), (2, 3), (3, 2), (3, 3), (4, 2)):
        ch = random_channel(d, n, 20 + d * n)
        got = dilation_unitary(ch, seed=d * n)
        assert np.array_equal(got, dilation_loop_reference(ch, d * n))
    triple = example_channel()
    assert np.array_equal(dilation_unitary(triple, seed=6), dilation_loop_reference(triple, 6))


def test_dilation_unitaries_of_a_mixed_seed_stack_match_the_per_channel_loop():
    # One Gram-Schmidt run over the stack gives each channel's own dilation.
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        seeds = [0, 2 ** 64 - 1, 7, 7, 123456789, 3 * d + n]
        kraus = random_trace_preserving_kraus(d, n, [40 + d * n + b for b in range(len(seeds))])
        stacked = dilation_unitaries(kraus, seeds)
        for k, seed, u in zip(kraus, seeds, stacked, strict=True):
            channel = QuantumChannel(d=d, kraus=tuple(k))
            assert np.array_equal(u, dilation_loop_reference(channel, seed))
            assert np.array_equal(u, dilation_unitary(channel, seed))


def test_dilation_requires_trace_preserving():
    with pytest.raises(ValueError):
        dilation_unitary(QuantumChannel(d=2, kraus=(EXAMPLE_T, EXAMPLE_Y)), seed=0)


def test_dilation_reproduces_branch_superposition(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    dil = dilation_unitary(ch, seed=6)
    assert dil.shape == (6, 6)
    assert unitarity_defect(dil) < 1e-10
    assert max_abs(dilate(dil, psi.coords) - dilated_state_reference(ch, psi)) < 1e-12


def test_dilation_matches_operator_sum(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    dil = dilation_unitary(ch, seed=6)
    reduced = trace_out_ancilla_state(dilate(dil, psi.coords), len(ch.kraus))
    assert max_abs(reduced - apply_kraus(ch.kraus, psi.density())) < 1e-12


# One channel draw: dimension, Kraus count, channel and completion seeds, and
# Schmidt weights (the first d are used, normalized).
channel_cases = dict(
    d=st.sampled_from((2, 3, 4)),
    channel_seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4),
)


def spectrum_from_weights(weights, d):
    w = np.asarray(weights[:d])
    return SchmidtSpectrum.from_values(w / w.sum())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n_kraus=st.integers(min_value=1, max_value=3),
    dilation_seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    **channel_cases,
)
def test_dilation_then_trace_is_channel_property(d, n_kraus, channel_seed, dilation_seed, weights):
    psi = make_schmidt_state(spectrum_from_weights(weights, d))
    ch = random_channel(d, n_kraus, channel_seed)
    dil = dilation_unitary(ch, seed=dilation_seed)
    reduced = trace_out_ancilla_state(dilate(dil, psi.coords), len(ch.kraus))
    assert max_abs(reduced - apply_kraus(ch.kraus, psi.density())) <= tolerances.get().equality


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**channel_cases)
def test_orthogonalization_keeps_channel_property(d, channel_seed, weights):
    psi = make_schmidt_state(spectrum_from_weights(weights, d))
    kraus = random_trace_preserving_kraus(d, 2, [channel_seed])
    _, mixed = orthogonalize_kraus_pairs(kraus, psi.coords[None])
    rho = psi.density()
    after = apply_kraus(mixed[0], rho)
    assert max_abs(after - apply_kraus(kraus[0], rho)) <= tolerances.get().equality


def test_dilation_basis_action():
    ch = random_channel(2, 3, 15)
    dil = dilation_unitary(ch, seed=3)
    for i in range(2):
        col = dil[:, i * 3]
        expected = np.zeros(6, dtype=complex)
        for r, k in enumerate(ch.kraus):
            expected[0 * 3 + r] = k[0, i]
            expected[1 * 3 + r] = k[1, i]
        assert max_abs(col - expected) < 1e-12


# ---------------------------------------------------------------------------
# Kraus-pair orthogonalization
# ---------------------------------------------------------------------------

def test_orthogonalize_already_orthogonal_pair():
    psi = make_schmidt_state(uniform_spectrum(2))
    pair = np.stack((I2, X)) / np.sqrt(2)
    result, mixed = orthogonalize_kraus_pairs(pair[None], psi.coords[None])
    assert max_abs(result.v[0] - np.eye(2)) == 0.0
    assert result.z[0] == 0.0
    assert result.residual[0] == 0.0
    assert max_abs(mixed[0] - pair) == 0.0


def test_orthogonalize_random_pairs():
    for k, d in enumerate((2, 3, 4) * 7):
        rng = rng_from(60, k)
        kraus = random_trace_preserving_kraus(d, 2, [61 + k])
        psi = make_schmidt_state(random_spectrum(d, rng))
        result, mixed = orthogonalize_kraus_pairs(kraus, psi.coords[None])
        phi0, phi1 = (apply_local(m, psi).coords for m in mixed[0])
        assert abs(np.vdot(phi0, phi1)) < 1e-10
        assert unitarity_defect(result.v) < 1e-12
        assert abs(result.z[0] - np.exp(1j * result.xi[0]) * np.tan(result.theta[0])) < 1e-12
        # Chosen root never exceeds modulus one (the two roots are reciprocal).
        assert abs(result.z[0]) <= 1.0 + 1e-12
        rho = psi.density()
        assert max_abs(apply_kraus(kraus[0], rho) - apply_kraus(mixed[0], rho)) < 1e-10


def test_orthogonalization_residual_is_the_quadratic_residual():
    for k, d in enumerate((2, 3, 4) * 4):
        kraus = random_trace_preserving_kraus(d, 2, [70 + k])
        psi = make_schmidt_state(random_spectrum(d, rng_from(71, k)))
        result, _ = orthogonalize_kraus_pairs(kraus, psi.coords[None])
        phi0, phi1 = (apply_local(m, psi).coords for m in kraus[0])
        _, residual, orthogonal = orthogonality_quadratics(phi0[None], phi1[None])
        assert not orthogonal[0]
        assert result.residual[0] == residual[0]


def test_orthogonalize_rejects_dependent_pair():
    psi = make_schmidt_state(uniform_spectrum(2))
    k = I2 / np.sqrt(2.0)
    with pytest.raises(ValueError, match="linearly dependent"):
        orthogonalize_kraus_pairs(np.stack((k, k))[None], psi.coords[None])


def test_unitary_mixing_leaves_channel_invariant():
    rng = rng_from(62)
    kraus = random_trace_preserving_kraus(3, 2, [63])[0]
    v = random_unitaries(2, [64])[0]
    k0, k1 = kraus
    mixed = QuantumChannel(
        d=3, kraus=(v[0, 0] * k0 + v[0, 1] * k1, v[1, 0] * k0 + v[1, 1] * k1)
    ).kraus
    for _ in range(3):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert max_abs(apply_kraus(kraus, rho) - apply_kraus(mixed, rho)) < 1e-12


# ---------------------------------------------------------------------------
# Support containment under ancilla measurement
# ---------------------------------------------------------------------------

def containment(channel, psi, measurement, seed):
    """Outcome probabilities and residuals of one channel: ``containment_residuals`` of a one-item stack."""
    prob, residual = containment_residuals(
        channel.kraus[None], psi.coords[None], np.stack(measurement)[None], [seed]
    )
    return prob[0], residual[0]


def test_containment_trivial_measurement(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    prob, residual = containment(example_channel(), psi, [np.eye(3)], seed=7)
    assert abs(prob[0] - 1.0) < 1e-12
    assert residual.max() < 1e-12


def test_containment_example_projective_measurement(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    m0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    m1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    prob, residual = containment(ch, psi, [m0, m1], seed=7)
    assert residual.max() < tolerances.get().containment
    assert max_abs(prob - [79 / 81, 2 / 81]) < 1e-12

    # Outcome 0 keeps the two-branch plane; outcome 1 collapses onto |00>.
    joint = dilated_state_reference(ch, psi)
    post0 = (joint.reshape(4, 3) @ m0.T).reshape(-1)
    rho0 = trace_out_ancilla_state(post0, 3)
    t_lift = apply_local(EXAMPLE_T, psi).coords
    y_lift = apply_local(EXAMPLE_Y, psi).coords
    plane = np.outer(t_lift, t_lift.conj()) / (79 / 162) + np.outer(y_lift, y_lift.conj()) / (
        79 / 162
    )
    assert max_abs(support_projector(rho0) - plane) < 1e-10

    post1 = (joint.reshape(4, 3) @ m1.T).reshape(-1)
    rho1 = trace_out_ancilla_state(post1, 3)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    assert max_abs(support_projector(rho1) - np.outer(e00, e00.conj())) < 1e-10


def test_containment_rejects_incomplete_measurement(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    with pytest.raises(ValueError, match="incomplete measurement set"):
        containment(example_channel(), psi, [np.diag([1.0, 1.0, 0.0]).astype(complex)], seed=1)


# ---------------------------------------------------------------------------
# Stacked kernels: each stack item equals the kernel run on it alone
# ---------------------------------------------------------------------------

def stacked_pairs(d, seeds, spectra):
    kraus = random_trace_preserving_kraus(d, 2, seeds)
    coords = schmidt_coords(np.array([s.lambdas for s in spectra]))
    return kraus, coords


def test_orthogonalize_kraus_pair_is_a_stacked_slice():
    for d in (2, 3, 4):
        spectra = [random_spectrum(d, rng_from(80 + d, k)) for k in range(5)]
        kraus, coords = stacked_pairs(d, [81 + 10 * d + k for k in range(5)], spectra)
        if d == 2:  # one pair that is already orthogonal on its state
            kraus[1] = np.stack((I2, X)) / np.sqrt(2.0)
            coords[1] = make_schmidt_state(uniform_spectrum(2)).coords
        res, mixed = orthogonalize_kraus_pairs(kraus, coords)
        for i in range(5):
            one, alone = orthogonalize_kraus_pairs(kraus[i : i + 1], coords[i : i + 1])
            assert np.array_equal(one.v[0], res.v[i])
            assert (one.z[0], one.theta[0], one.xi[0], one.residual[0]) == (
                res.z[i], res.theta[i], res.xi[i], res.residual[i]
            )
            assert np.array_equal(alone[0], mixed[i])
    assert res.residual.shape == (5,)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    d=st.sampled_from((2, 3, 4)),
    seeds=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=1, max_size=5),
    weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4),
)
def test_stacked_orthogonalization_property(d, seeds, weights):
    tol = tolerances.get()
    spectrum = spectrum_from_weights(weights, d)
    kraus, coords = stacked_pairs(d, seeds, [spectrum] * len(seeds))
    res, mixed = orthogonalize_kraus_pairs(kraus, coords)
    phi = local_action(mixed, coords[:, None])
    assert max_abs(np.einsum("bi,bi->b", phi[:, 0].conj(), phi[:, 1])) <= tol.unitarity
    assert np.all(res.residual <= tol.quadratic)
    assert np.all(np.abs(res.z) <= 1.0 + 1e-12)
    assert unitarity_defect(res.v) <= 1e-12
    rho = np.stack([make_schmidt_state(spectrum).density()] * len(seeds))
    assert max_abs(apply_kraus(mixed, rho) - apply_kraus(kraus, rho)) <= tol.equality


def test_stacked_channel_kernels_are_one_by_one():
    seeds = [90, 91, 92]
    kraus = random_trace_preserving_kraus(2, 3, seeds)
    spectra = [random_spectrum(2, rng_from(93, k)) for k in range(3)]
    coords = schmidt_coords(np.array([s.lambdas for s in spectra]))
    rho = np.stack([random_density(4, rng_from(94, k)) for k in range(3)])
    measurements = random_trace_preserving_kraus(3, 2, [95, 96, 97])
    out = apply_kraus(kraus, rho)
    u = dilation_unitaries(kraus, [7, 8, 9])
    prob, residual = containment_residuals(kraus, coords, measurements, [7, 8, 9])
    for i, seed in enumerate(seeds):
        ch = random_channel(2, 3, seed)
        assert np.array_equal(ch.kraus, kraus[i])
        assert np.array_equal(out[i], apply_kraus(kraus[i], rho[i]))
        assert np.array_equal(u[i], dilation_unitary(ch, 7 + i))
        psi = BipartiteState(d=2, coords=coords[i])
        one_prob, one_residual = containment(ch, psi, measurements[i], 7 + i)
        assert list(one_prob) == list(prob[i])
        assert list(one_residual) == list(residual[i])
        assert kraus_ranks(kraus[i]) == kraus_ranks(kraus)[i] == 3
