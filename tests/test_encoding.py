import json

import numpy as np
import pytest

from densecode.encoding import (
    UnitaryMessageSet,
    capacity_bound_check,
    certify_distinguishable,
    gram_mass_gradient,
    gram_mass_objective,
    hermitian_from_params,
    message_set_from_json,
    message_set_to_json,
    search_message_set,
    weyl_set,
)
from densecode.encoding import _decompose_generators, _gauss_newton, _gram_and_jacobian
from densecode.linalg import max_abs, rng_from, unitarity_defect
from densecode.states import SchmidtSpectrum, apply_local, make_schmidt_state, uniform_spectrum
from densecode.suites import random_spectrum

from conftest import I2, X, Z


def test_message_set_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMessageSet(d=2, unitaries=(np.array([[1, 0], [0, 0.5]], dtype=complex),))


def test_certify_identity_shift_pair(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    cert = certify_distinguishable(UnitaryMessageSet(d=2, unitaries=(I2, X)), psi)
    assert cert.passed
    assert cert.gram_defect < 1e-14


def test_certify_repeated_unitary_fails(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    cert = certify_distinguishable(UnitaryMessageSet(d=2, unitaries=(I2, I2)), psi)
    assert not cert.passed
    assert abs(cert.gram_defect - 1.0) < 1e-12


def test_certificate_phase_and_left_multiplication_invariance():
    rng = rng_from(71)
    s = random_spectrum(2, rng)
    psi = make_schmidt_state(s)
    base = UnitaryMessageSet(d=2, unitaries=(I2, X))
    cert0 = certify_distinguishable(base, psi)
    phased = UnitaryMessageSet(
        d=2, unitaries=(np.exp(0.7j) * I2, np.exp(-1.2j) * X)
    )
    assert abs(certify_distinguishable(phased, psi).gram_defect - cert0.gram_defect) < 1e-12
    from densecode.linalg import random_unitary

    g = random_unitary(2, seed=72)
    rotated = UnitaryMessageSet(d=2, unitaries=(g @ I2, g @ X))
    assert certify_distinguishable(rotated, psi).passed == cert0.passed


def test_capacity_bound_examples(example_spectrum):
    assert capacity_bound_check(example_spectrum, 3)
    assert not capacity_bound_check(SchmidtSpectrum.from_values([0.9, 0.1]), 3)
    for d in (2, 3):
        assert capacity_bound_check(uniform_spectrum(d), d * d)


def test_weyl_set_d2():
    ops = weyl_set(2).unitaries
    assert max_abs(ops[0] - I2) == 0.0
    assert max_abs(ops[1] - X) == 0.0
    assert max_abs(ops[2] - Z) < 1e-15
    assert max_abs(ops[3] - X @ Z) < 1e-15


def test_weyl_trace_orthogonality_d3():
    ops = weyl_set(3).unitaries
    for a in range(9):
        for b in range(9):
            val = np.trace(ops[a].conj().T @ ops[b])
            want = 3.0 if a == b else 0.0
            assert abs(val - want) < 1e-12


def test_weyl_commutation_witness():
    for d in (2, 3, 5):
        ops = weyl_set(d).unitaries
        x, z = ops[1], ops[d]
        omega = np.exp(2j * np.pi / d)
        assert max_abs(z @ x - omega * x @ z) < 1e-12


def test_weyl_set_certified_on_maximally_entangled():
    for d in (2, 3):
        psi = make_schmidt_state(uniform_spectrum(d))
        assert certify_distinguishable(weyl_set(d), psi).passed


def taylor_exponential(h: np.ndarray) -> np.ndarray:
    """Reference exp(i h) for Hermitian h, by scaled-and-squared Taylor summation."""
    n = h.shape[0]
    a = 1j * h
    scale = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(np.ceil(np.log2(scale))) + 1) if scale > 0.5 else 0
    a = a / (2.0 ** squarings)
    term = np.eye(n, dtype=complex)
    total = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        total = total + term
        if max_abs(term) < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def test_generator_exponential_is_unitary():
    rng = rng_from(73)
    for d in (2, 3, 4):
        count = 3
        theta = rng.standard_normal((count - 1) * d * d)
        _, _, us = _decompose_generators(theta, d, count)
        assert max_abs(us[0] - np.eye(d)) == 0.0
        for k in range(1, count):
            assert unitarity_defect(us[k]) < 1e-13
            # Stacked spectral route agrees with the series route, block by block.
            h = hermitian_from_params(theta[(k - 1) * d * d : k * d * d], d)
            assert max_abs(us[k] - taylor_exponential(h)) < 1e-12
        _, _, us = _decompose_generators(np.zeros(d * d), d, 2)
        assert max_abs(us[1] - np.eye(d)) == 0.0


def test_objective_is_lifted_gram_mass():
    rng = rng_from(75)
    for d, count in ((2, 4), (3, 5)):
        s = random_spectrum(d, rng)
        theta = rng.standard_normal((count - 1) * d * d)
        _, _, us = _decompose_generators(theta, d, count)
        psi = make_schmidt_state(s)
        lifted = np.array([apply_local(u, psi).coords for u in us])
        g = lifted.conj() @ lifted.T
        mass = sum(abs(g[i, j]) ** 2 for i in range(count) for j in range(i + 1, count))
        assert abs(gram_mass_objective(s, theta, count) - mass) < 1e-12


def test_objective_gradient_matches_finite_differences():
    rng = rng_from(74)
    for d, count in ((2, 2), (2, 4), (3, 3)):
        s = random_spectrum(d, rng)
        n = (count - 1) * d * d
        theta = rng.standard_normal(n)
        grad = gram_mass_gradient(s, theta, count)
        h = 1e-6
        fd = np.empty(n)
        for i in range(n):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                gram_mass_objective(s, up, count) - gram_mass_objective(s, down, count)
            ) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


def test_pair_jacobian_matches_finite_differences():
    rng = rng_from(76)
    s = SchmidtSpectrum.from_values([0.4, 0.35, 0.25])
    count = 4
    n = (count - 1) * 9
    theta = rng.standard_normal(n)

    def at(t):
        return _gram_and_jacobian(s, _decompose_generators(t, 3, count))

    _, jac = at(theta)
    h = 1e-6
    for a in range(0, n, 5):
        up, down = theta.copy(), theta.copy()
        up[a] += h
        down[a] -= h
        fd = (at(up)[0] - at(down)[0]) / (2 * h)
        assert np.max(np.abs(fd - jac[:, a])) < 1e-7


def test_stacked_decomposition_matches_each_row():
    rng = rng_from(77)
    for d, count in ((2, 3), (3, 7), (4, 5)):
        stack = rng.standard_normal((12, (count - 1) * d * d))
        stacked = _decompose_generators(stack, d, count)
        assert stacked[2].shape == (12, count, d, d)
        for r, row in enumerate(stack):
            for whole, alone in zip(stacked, _decompose_generators(row, d, count)):
                assert np.array_equal(whole[r], alone)


def sequential_gauss_newton(
    spectrum: SchmidtSpectrum,
    theta: np.ndarray,
    count: int,
    max_rounds: int = 400,
    target: float = 1e-26,
) -> np.ndarray:
    """Reference damped Gauss-Newton that scores each halving with its own objective call."""
    f = gram_mass_objective(spectrum, theta, count)
    for _ in range(max_rounds):
        if f <= target:
            break
        overlaps, jac = _gram_and_jacobian(
            spectrum, _decompose_generators(theta, spectrum.d, count)
        )
        system = np.vstack([jac.real, jac.imag])
        residual = np.concatenate([overlaps.real, overlaps.imag])
        step, *_ = np.linalg.lstsq(system, residual, rcond=None)
        scale = 1.0
        for _ in range(12):
            cand = theta - scale * step
            f_cand = gram_mass_objective(spectrum, cand, count)
            if f_cand < f:
                break
            scale *= 0.5
        else:
            break
        theta, f = cand, f_cand
    return theta


@pytest.mark.parametrize(
    "values, count",
    [
        ([0.6, 0.4], 2),
        ([0.6, 0.4], 3),  # stalls: no halving lowers the objective
        ([0.35, 0.33, 0.32], 3),
        ([0.35, 0.33, 0.32], 7),  # most rounds accept only after halvings
        ([0.26, 0.25, 0.25, 0.24], 5),
    ],
)
def test_gauss_newton_matches_sequential_line_search(values, count):
    s = SchmidtSpectrum.from_values(values)
    for seed in (1, 2):
        start = rng_from(seed).standard_normal((count - 1) * s.d * s.d)
        theta, point = _gauss_newton(s, start, count)
        assert np.array_equal(theta, sequential_gauss_newton(s, start, count))
        for got, fresh in zip(point, _decompose_generators(theta, s.d, count)):
            assert np.array_equal(got, fresh)


def test_search_single_message():
    s = SchmidtSpectrum.from_values([0.6, 0.4])
    ms = search_message_set(s, 1, seed=1)
    assert len(ms) == 1
    assert max_abs(ms.unitaries[0] - I2) == 0.0


def test_search_two_messages_example(example_spectrum):
    ms = search_message_set(example_spectrum, 2, seed=7)
    assert ms is not None
    psi = make_schmidt_state(example_spectrum)
    assert certify_distinguishable(ms, psi).passed


def test_search_full_set_maximally_entangled():
    s = uniform_spectrum(2)
    ms = search_message_set(s, 4, seed=7)
    assert ms is not None
    assert certify_distinguishable(ms, make_schmidt_state(s)).passed


def test_search_rejects_capacity_violation():
    with pytest.raises(ValueError):
        search_message_set(SchmidtSpectrum.from_values([0.9, 0.1]), 3, seed=1)


def test_search_rejects_restart_budget_below_one(example_spectrum):
    for count in (1, 2):
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters must be positive"):
                search_message_set(example_spectrum, count, seed=7, max_iters=max_iters)


def test_message_set_json_round_trip(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    ms = UnitaryMessageSet(d=2, unitaries=(I2, X))
    doc = message_set_to_json(ms, psi, seed=123)
    assert doc["schema"] == "densecode/1"
    back = message_set_from_json(json.loads(json.dumps(doc)))
    assert back.d == 2
    for a, b in zip(back.unitaries, ms.unitaries):
        assert max_abs(a - b) == 0.0
