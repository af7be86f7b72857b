import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode import tolerances
from densecode.channels import (
    DilationResult,
    QuantumChannel,
    apply_channel,
    apply_dilation,
    apply_kraus,
    containment_residuals,
    dilated_state,
    dilation_unitaries,
    dilation_unitary,
    kraus_rank,
    kraus_ranks,
    lifted_kraus_states,
    orthogonality_roots,
    orthogonalize_kraus_pair,
    orthogonalize_kraus_pairs,
    random_trace_preserving_channel,
    random_trace_preserving_kraus,
    support_containment_check,
    support_projector,
    trace_out_ancilla_state,
)
from densecode.linalg import (
    complete_to_unitary,
    gram,
    hermitian_eigenvalues,
    max_abs,
    random_unitary,
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
from densecode.suites import random_density, random_spectrum

from conftest import EXAMPLE_C, EXAMPLE_T, EXAMPLE_Y, I2, X


def example_channel():
    return QuantumChannel(d=2, kraus=(EXAMPLE_T, EXAMPLE_Y, EXAMPLE_C))


def test_channel_rejects_supernormalized():
    with pytest.raises(ValueError):
        QuantumChannel(d=2, kraus=(2.0 * I2,))


@pytest.mark.parametrize("dtype", (complex, float))
def test_channel_freezes_copies_not_caller_arrays(dtype):
    k = np.eye(2, dtype=dtype)
    ch = QuantumChannel(d=2, kraus=(k,))
    dil = DilationResult(u_tilde=k, ancilla_dim=1)
    assert k.flags.writeable
    assert not ch.kraus[0].flags.writeable
    assert not dil.u_tilde.flags.writeable
    k[0, 0] = 0.0
    assert ch.kraus[0][0, 0] == 1.0
    assert dil.u_tilde[0, 0] == 1.0


def test_apply_identity_channel(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    rho = psi.density()
    out = apply_channel(QuantumChannel(d=2, kraus=(I2,)), rho)
    assert max_abs(out - rho) == 0.0


def test_apply_single_shift_channel(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    out = apply_channel(QuantumChannel(d=2, kraus=(X,)), psi.density())
    shifted = apply_local(X, psi).coords
    assert max_abs(out - np.outer(shifted, shifted.conj())) < 1e-15


def test_example_channel_branch_weights(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    out = apply_channel(ch, psi.density())
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
    tp = random_trace_preserving_channel(d, n_kraus, seed=seed)
    ch = QuantumChannel(d=d, kraus=tuple(scale * k for k in tp.kraus))
    rho = random_density(d * d, rng_from(seed))
    assert max_abs(apply_channel(ch, rho) - lifted_reference(ch, rho)) <= tolerances.get().equality


def test_random_channel_slices_dilation_rows():
    # K_r[i, j] = u[i * n + r, j] for the seeded random unitary u.
    for d, n in ((2, 1), (2, 3), (3, 2), (4, 4)):
        u = random_unitary(d * n, seed=d + n)
        ch = random_trace_preserving_channel(d, n, seed=d + n)
        for r, k in enumerate(ch.kraus):
            expected = np.empty((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    expected[i, j] = u[i * n + r, j]
            assert np.array_equal(k, expected)


def test_trace_preservation_on_random_inputs():
    rng = rng_from(51)
    ch = random_trace_preserving_channel(3, 2, seed=8)
    for _ in range(5):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_kraus_rank_unitary():
    assert kraus_rank(QuantumChannel(d=2, kraus=(I2,))) == 1


def test_kraus_rank_dependent_pair():
    k = X / np.sqrt(5.0)
    assert kraus_rank(QuantumChannel(d=2, kraus=(k, 2.0 * k))) == 1


def test_kraus_rank_example_triple():
    ch = example_channel()
    assert kraus_rank(ch) == 3
    # Gram-eigenvalue oracle agrees.
    g = gram([k.reshape(-1) for k in ch.kraus])
    eigs = hermitian_eigenvalues(g)
    assert int(np.sum(eigs > 1e-9 * eigs[0])) == 3


def test_lifted_states_orthogonal_unitaries():
    psi = make_schmidt_state(SchmidtSpectrum.from_values([0.7, 0.3]))
    ch = QuantumChannel(d=2, kraus=(I2 / np.sqrt(2), X / np.sqrt(2)))
    lifted = lifted_kraus_states(ch, psi)
    g = gram([s.coords for s in lifted])
    eigs = hermitian_eigenvalues(g)
    assert int(np.sum(eigs > 1e-9 * eigs[0])) == 2


def test_lifted_states_example_pair(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = QuantumChannel(d=2, kraus=(EXAMPLE_T, EXAMPLE_Y))
    lifted = lifted_kraus_states(ch, psi)
    assert abs(lifted[0].norm() ** 2 - 79 / 162) < 1e-12
    assert abs(lifted[1].norm() ** 2 - 79 / 162) < 1e-12
    assert abs(np.vdot(lifted[0].coords, lifted[1].coords)) < 1e-12


def test_lifted_states_random_full_rank():
    rng = rng_from(52)
    kraus = tuple(
        (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 6.0 for _ in range(3)
    )
    ch = QuantumChannel(d=3, kraus=kraus)
    psi = make_schmidt_state(random_spectrum(3, rng))
    g = gram([s.coords for s in lifted_kraus_states(ch, psi)])
    eigs = hermitian_eigenvalues(g)
    assert int(np.sum(eigs > 1e-9 * eigs[0])) == 3


def test_lifted_rank_tracks_kraus_rank_for_dependent_pair():
    k = X / np.sqrt(5.0)
    ch = QuantumChannel(d=2, kraus=(k, 2.0 * k))
    psi = make_schmidt_state(SchmidtSpectrum.from_values([0.6, 0.4]))
    g = gram([s.coords for s in lifted_kraus_states(ch, psi)])
    eigs = hermitian_eigenvalues(g)
    rank = int(np.sum(eigs > 1e-9 * eigs[0]))
    assert rank == kraus_rank(ch) == 1


def test_lifted_states_reject_zero_coefficient():
    coords = np.zeros(4, dtype=complex)
    coords[0] = 1.0  # second Schmidt amplitude vanishes
    psi = BipartiteState(d=2, coords=coords)
    with pytest.raises(ValueError):
        lifted_kraus_states(QuantumChannel(d=2, kraus=(I2,)), psi)


# ---------------------------------------------------------------------------
# Dilation
# ---------------------------------------------------------------------------

def test_dilation_of_unitary_channel_is_itself():
    u = random_unitary(3, seed=14)
    dil = dilation_unitary(QuantumChannel(d=3, kraus=(u,)), seed=2)
    assert dil.ancilla_dim == 1
    assert max_abs(dil.u_tilde - u) == 0.0


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
    completed = complete_to_unitary(cols, seed)
    positions = [j * n for j in range(d)]
    positions += [j * n + s for s in range(1, n) for j in range(d)]
    u = np.empty_like(completed)
    for k, pos in enumerate(positions):
        u[:, pos] = completed[:, k]
    return u


def test_dilation_matches_loop_reference():
    for d, n in ((2, 1), (2, 3), (3, 2), (3, 3), (4, 2)):
        ch = random_trace_preserving_channel(d, n, seed=20 + d * n)
        got = dilation_unitary(ch, seed=d * n).u_tilde
        assert np.array_equal(got, dilation_loop_reference(ch, d * n))
    triple = example_channel()
    assert np.array_equal(dilation_unitary(triple, seed=6).u_tilde, dilation_loop_reference(triple, 6))


def test_dilation_requires_trace_preserving():
    with pytest.raises(ValueError):
        dilation_unitary(QuantumChannel(d=2, kraus=(EXAMPLE_T, EXAMPLE_Y)), seed=0)


def test_dilation_reproduces_branch_superposition(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    dil = dilation_unitary(ch, seed=6)
    assert dil.u_tilde.shape == (6, 6)
    assert unitarity_defect(dil.u_tilde) < 1e-10
    assert max_abs(apply_dilation(dil, psi) - dilated_state(ch, psi)) < 1e-12


def test_dilation_matches_operator_sum(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    dil = dilation_unitary(ch, seed=6)
    reduced = trace_out_ancilla_state(apply_dilation(dil, psi), dil.ancilla_dim)
    assert max_abs(reduced - apply_channel(ch, psi.density())) < 1e-12


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
    ch = random_trace_preserving_channel(d, n_kraus, seed=channel_seed)
    dil = dilation_unitary(ch, seed=dilation_seed)
    reduced = trace_out_ancilla_state(apply_dilation(dil, psi), dil.ancilla_dim)
    assert max_abs(reduced - apply_channel(ch, psi.density())) <= tolerances.get().equality


@settings(derandomize=True, max_examples=40, deadline=None)
@given(**channel_cases)
def test_orthogonalization_keeps_channel_property(d, channel_seed, weights):
    psi = make_schmidt_state(spectrum_from_weights(weights, d))
    ch = random_trace_preserving_channel(d, 2, seed=channel_seed)
    _, r0, r1 = orthogonalize_kraus_pair(*ch.kraus, psi)
    rho = psi.density()
    after = apply_channel(QuantumChannel(d=d, kraus=(r0, r1)), rho)
    assert max_abs(after - apply_channel(ch, rho)) <= tolerances.get().equality


def test_dilation_basis_action():
    ch = random_trace_preserving_channel(2, 3, seed=15)
    dil = dilation_unitary(ch, seed=3)
    for i in range(2):
        col = dil.u_tilde[:, i * 3]
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
    result, r0, r1 = orthogonalize_kraus_pair(I2 / np.sqrt(2), X / np.sqrt(2), psi)
    assert max_abs(result.v - np.eye(2)) == 0.0
    assert result.z == 0.0
    assert result.residual == 0.0
    assert max_abs(r0 - I2 / np.sqrt(2)) == 0.0


def test_orthogonalize_random_pairs():
    for k, d in enumerate((2, 3, 4) * 7):
        rng = rng_from(60, k)
        ch = random_trace_preserving_channel(d, 2, seed=61 + k)
        psi = make_schmidt_state(random_spectrum(d, rng))
        result, r0, r1 = orthogonalize_kraus_pair(*ch.kraus, psi)
        phi0 = apply_local(r0, psi).coords
        phi1 = apply_local(r1, psi).coords
        assert abs(np.vdot(phi0, phi1)) < 1e-10
        assert unitarity_defect(result.v) < 1e-12
        assert abs(result.z - np.exp(1j * result.xi) * np.tan(result.theta)) < 1e-12
        # Chosen root never exceeds modulus one (the two roots are reciprocal).
        assert abs(result.z) <= 1.0 + 1e-12
        rho = psi.density()
        before = apply_channel(ch, rho)
        after = apply_channel(QuantumChannel(d=d, kraus=(r0, r1)), rho)
        assert max_abs(before - after) < 1e-10


def test_orthogonalization_residual_is_the_quadratic_residual():
    for k, d in enumerate((2, 3, 4) * 4):
        ch = random_trace_preserving_channel(d, 2, seed=70 + k)
        psi = make_schmidt_state(random_spectrum(d, rng_from(71, k)))
        result, _, _ = orthogonalize_kraus_pair(*ch.kraus, psi)
        phi0, phi1 = (apply_local(m, psi).coords for m in ch.kraus)
        assert result.residual == orthogonality_roots(phi0, phi1)[1]


def test_orthogonalize_rejects_dependent_pair():
    psi = make_schmidt_state(uniform_spectrum(2))
    k = I2 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        orthogonalize_kraus_pair(k, k, psi)


def test_unitary_mixing_leaves_channel_invariant():
    rng = rng_from(62)
    ch = random_trace_preserving_channel(3, 2, seed=63)
    v = random_unitary(2, seed=64)
    k0, k1 = ch.kraus
    mixed = QuantumChannel(
        d=3, kraus=(v[0, 0] * k0 + v[0, 1] * k1, v[1, 0] * k0 + v[1, 1] * k1)
    )
    for _ in range(3):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert max_abs(apply_channel(ch, rho) - apply_channel(mixed, rho)) < 1e-12


# ---------------------------------------------------------------------------
# Support containment under ancilla measurement
# ---------------------------------------------------------------------------

def test_containment_trivial_measurement(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    report = support_containment_check(ch, psi, [np.eye(3)], seed=7)
    assert report.passed
    assert report.max_residual < 1e-12


def test_containment_example_projective_measurement(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ch = example_channel()
    m0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    m1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    report = support_containment_check(ch, psi, [m0, m1], seed=7)
    assert report.passed

    # Outcome 0 keeps the two-branch plane; outcome 1 collapses onto |00>.
    joint = dilated_state(ch, psi)
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
    with pytest.raises(ValueError):
        support_containment_check(
            example_channel(), psi, [np.diag([1.0, 1.0, 0.0])], seed=1
        )


# ---------------------------------------------------------------------------
# Stacked kernels: the per-channel functions are their one-item cases
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
            psi = BipartiteState(d=d, coords=coords[i])
            one, s0, s1 = orthogonalize_kraus_pair(kraus[i, 0], kraus[i, 1], psi)
            assert np.array_equal(one.v, res.v[i])
            assert (one.z, one.theta, one.xi, one.residual) == (
                res.z[i], res.theta[i], res.xi[i], res.residual[i]
            )
            assert np.array_equal(s0, mixed[i, 0]) and np.array_equal(s1, mixed[i, 1])
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
        ch = random_trace_preserving_channel(2, 3, seed)
        psi = BipartiteState(d=2, coords=coords[i])
        assert np.array_equal(out[i], apply_channel(ch, rho[i]))
        assert np.array_equal(u[i], dilation_unitary(ch, 7 + i).u_tilde)
        report = support_containment_check(ch, psi, measurements[i], 7 + i)
        assert [o.probability for o in report.outcomes] == list(prob[i])
        assert [o.residual for o in report.outcomes] == list(residual[i])
        assert kraus_rank(ch) == kraus_ranks(kraus)[i] == 3
