import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecode.encoding import (
    UnitaryMessageSet,
    capacity_bound_check,
    certify_distinguishable,
    gram_mass_gradient,
    gram_mass_objective,
    hermitian_from_params,
    lift_messages,
    message_set_from_json,
    message_set_to_json,
    search_message_set,
    weyl_set,
)
from densecode import encoding
from densecode.encoding import (
    _exponentials,
    _levenberg_marquardt,
    _mass,
    _messages_at,
    _pair_jacobian,
    _pair_overlaps,
    _upper_pairs,
)
from densecode.linalg import dagger, max_abs, rng_from, unitarity_defect
from densecode.states import SchmidtSpectrum, apply_local, make_schmidt_state, uniform_spectrum

from conftest import I2, X, Z, random_spectrum


def test_message_set_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryMessageSet(d=2, unitaries=(np.array([[1, 0], [0, 0.5]], dtype=complex),))


@pytest.mark.parametrize("dtype", (complex, float))
def test_message_set_freezes_copies_not_caller_arrays(dtype):
    u = np.eye(2, dtype=dtype)
    msgs = UnitaryMessageSet(d=2, unitaries=(u,))
    assert u.flags.writeable
    assert not msgs.unitaries[0].flags.writeable
    u[0, 0] = -1.0
    assert msgs.unitaries[0][0, 0] == 1.0


def test_lift_messages_names_itself_and_both_dimensions(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    with pytest.raises(ValueError) as err:
        lift_messages(weyl_set(3), psi)
    assert str(err.value) == "lift_messages: dimension mismatch (message set d=3, state d=2)"


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
    from densecode.linalg import random_unitaries

    g = random_unitaries(2, [72])[0]
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
        us = _messages_at(theta, d, count)
        assert max_abs(us[0] - np.eye(d)) == 0.0
        assert np.array_equal(us[1:], _exponentials(theta, d))
        for k in range(1, count):
            assert unitarity_defect(us[k]) < 1e-13
            # Stacked spectral route agrees with the series route, block by block.
            h = hermitian_from_params(theta[(k - 1) * d * d : k * d * d], d)
            assert max_abs(us[k] - taylor_exponential(h)) < 1e-12
        assert max_abs(_exponentials(np.zeros(d * d), d)[0] - np.eye(d)) == 0.0


def test_objective_is_lifted_gram_mass():
    rng = rng_from(75)
    for d, count in ((2, 4), (3, 5)):
        s = random_spectrum(d, rng)
        theta = rng.standard_normal((count - 1) * d * d)
        us = _messages_at(theta, d, count)
        psi = make_schmidt_state(s)
        lifted = np.array([apply_local(u, psi).coords for u in us])
        g = lifted.conj() @ lifted.T
        mass = sum(abs(g[i, j]) ** 2 for i in range(count) for j in range(i + 1, count))
        assert abs(gram_mass_objective(s, theta, count) - mass) < 1e-12


def local_step(us: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``us`` with every unitary after the pinned first moved to U_k exp(i H(step_k))."""
    return np.concatenate([us[:1], us[1:] @ _exponentials(step, us.shape[-1])])


def test_objective_gradient_matches_finite_differences():
    # The gradient lives in the local chart at exp(i H(theta)): central
    # differences step each unitary as U_k exp(i H(+-h e_a)).
    rng = rng_from(74)
    for d, count in ((2, 2), (2, 4), (3, 3)):
        s = random_spectrum(d, rng)
        n = (count - 1) * d * d
        theta = rng.standard_normal(n)
        us = _messages_at(theta, d, count)
        grad = gram_mass_gradient(s, theta, count)
        h = 1e-6
        fd = np.empty(n)
        for a in range(n):
            e = h * np.eye(n)[a]
            fd[a] = (
                _mass(_pair_overlaps(s, local_step(us, e)))
                - _mass(_pair_overlaps(s, local_step(us, -e)))
            ) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


def test_generators_match_hermitian_from_params(monkeypatch):
    # The generators are a product with the 0 / 1 / +-i basis, so the
    # eigensolver sees exactly the fancy-indexed fill.
    seen = []
    eigh = np.linalg.eigh

    def spy(h):
        seen.append(h)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = rng_from(77)
    for d in (2, 3, 4):
        count = 4
        theta = rng.standard_normal((count - 1) * d * d)
        seen.clear()
        _exponentials(theta, d)
        assert np.array_equal(seen[0], hermitian_from_params(theta.reshape(count - 1, d * d), d))


def test_objective_and_gradient_at_one_message():
    s = SchmidtSpectrum.from_values([0.6, 0.4])
    assert gram_mass_objective(s, np.zeros(0), 1) == 0.0
    grad = gram_mass_gradient(s, np.zeros(0), 1)
    assert grad.shape == (0,)
    assert _pair_jacobian(s, _messages_at(np.zeros(0), 2, 1)).shape == (0, 0)


@pytest.mark.parametrize("fn", (gram_mass_objective, gram_mass_gradient))
def test_objective_and_gradient_check_parameter_count(fn):
    s = SchmidtSpectrum.from_values([0.6, 0.4])
    wrong = ((np.zeros(8), 2), (np.zeros(3), 2), (np.zeros(4), 1), (np.zeros((2, 4)), 3))
    for theta, count in wrong:
        with pytest.raises(ValueError, match=f"{fn.__name__}: theta must hold"):
            fn(s, theta, count)
    with pytest.raises(ValueError, match=f"{fn.__name__}: count must be positive"):
        fn(s, np.zeros(0), 0)


def reference_jacobian(spectrum: SchmidtSpectrum, us: np.ndarray) -> np.ndarray:
    """Local-chart pair-overlap Jacobian built one pair and one side at a time.

    Overlap (i, j) is tr(Lambda M) with M = U_i^dag U_j.  Moving U_j to
    U_j exp(i s E_p) adds i tr(Lambda M E_p) to first order, and moving U_i
    adds -i tr(E_p M Lambda).
    """
    count, d = len(us), spectrum.d
    lam = np.diag(spectrum.lambdas)
    basis = [hermitian_from_params(e, d) for e in np.eye(d * d)]
    rows = []
    for i, j in zip(*_upper_pairs(count)):
        m = dagger(us[i]) @ us[j]
        row = np.zeros((count - 1, d * d), dtype=complex)
        # U_j enters on the right ...
        row[j - 1] = [1j * np.trace(lam @ m @ e) for e in basis]
        if i >= 1:  # ... and U_i daggered on the left, unless i is the pinned identity.
            row[i - 1] = [-1j * np.trace(e @ m @ lam) for e in basis]
        rows.append(row.ravel())
    return np.array(rows)


def test_pair_jacobian_matches_reference():
    rng = rng_from(78)
    for d in (2, 3, 4):
        for count in sorted({2, 3, d * d - 2}):
            s = random_spectrum(d, rng)
            us = _messages_at(rng.standard_normal((count - 1) * d * d), d, count)
            assert max_abs(_pair_jacobian(s, us) - reference_jacobian(s, us)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    extra=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_jacobian_matches_reference_on_random_spectra(d, extra, seed):
    rng = rng_from(seed)
    count = 2 + extra % (d * d - 1)
    s = random_spectrum(d, rng)
    us = _messages_at(3.0 * rng.standard_normal((count - 1) * d * d), d, count)
    assert max_abs(_pair_jacobian(s, us) - reference_jacobian(s, us)) < 1e-14


def test_pair_jacobian_matches_finite_differences():
    rng = rng_from(76)
    cases = (
        (SchmidtSpectrum.from_values([0.6, 0.4]), 3),
        (SchmidtSpectrum.from_values([0.4, 0.35, 0.25]), 4),
        (SchmidtSpectrum.from_values([0.3, 0.27, 0.23, 0.2]), 4),
    )
    for s, count in cases:
        d = s.d
        n = (count - 1) * d * d
        us = _messages_at(rng.standard_normal(n), d, count)
        jac = _pair_jacobian(s, us)
        h = 1e-6
        for a in range(0, n, 5):
            e = h * np.eye(n)[a]
            fd = (_pair_overlaps(s, local_step(us, e)) - _pair_overlaps(s, local_step(us, -e))) / (2 * h)
            assert np.max(np.abs(fd - jac[:, a])) < 1e-7


@pytest.mark.parametrize(
    "values, count",
    [
        ([0.6, 0.4], 2),
        ([0.6, 0.4], 3),  # d^2 - 1 messages: ends on the progress rule
        ([0.35, 0.33, 0.32], 3),
        ([0.35, 0.33, 0.32], 7),
        ([0.26, 0.25, 0.25, 0.24], 5),
    ],
)
def test_levenberg_marquardt_returns_its_point_and_never_raises_mass(values, count):
    s = SchmidtSpectrum.from_values(values)
    for seed in (1, 2):
        start = _messages_at(rng_from(seed).standard_normal((count - 1) * s.d * s.d), s.d, count)
        us, overlaps = _levenberg_marquardt(s, start)
        assert us.shape == start.shape
        assert np.array_equal(us[0], np.eye(s.d))
        assert unitarity_defect(us) < 1e-12
        assert np.array_equal(overlaps, _pair_overlaps(s, us))
        assert _mass(overlaps) <= _mass(_pair_overlaps(s, start))


def test_levenberg_marquardt_predicted_drop_does_not_cancel():
    # A d=3, count-7 start on which the difference form |r|^2 - mu^2 |y|^2
    # of the model's predicted drop rounds below zero and then to zero.
    s = SchmidtSpectrum.from_values([0.4061792065158033, 0.31466166892217395, 0.27915912456202274])
    start = _messages_at(rng_from(1645176546945092850, 0).standard_normal(6 * 9), 3, 7)
    _, overlaps = _levenberg_marquardt(s, start)
    assert _mass(overlaps) <= _mass(_pair_overlaps(s, start))


@pytest.mark.parametrize(
    "values, count",
    [([0.6, 0.4], 3), ([0.35, 0.33, 0.32], 8), ([0.26, 0.25, 0.25, 0.24], 15)],
)
def test_restart_with_d2_minus_1_messages_stops_on_progress_rule(values, count, monkeypatch):
    # Off the maximally entangled point no d^2 - 1 unitary messages are
    # perfectly distinguishable (Ji et al., PRA 73, 034307), so a restart can
    # only stall; the progress rule must end it well under its 400-step cap.
    s = SchmidtSpectrum.from_values(values)
    psi = make_schmidt_state(s)
    calls = []

    def counted(params, d):
        calls.append(1)
        return _exponentials(params, d)

    monkeypatch.setattr(encoding, "_exponentials", counted)
    for seed in (1, 2):
        start = _messages_at(rng_from(seed, 0).standard_normal((count - 1) * s.d * s.d), s.d, count)
        calls.clear()
        us, _ = _levenberg_marquardt(s, start)
        assert len(calls) <= 100
        assert not certify_distinguishable(UnitaryMessageSet(d=s.d, unitaries=tuple(us)), psi).passed


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


def test_search_certifies_near_uniform_spectrum_in_one_restart():
    # A near-uniform d=3 request whose single restart stalled at a Gram mass
    # of about 1e-7 when the search stepped through the exp(i H(theta))
    # chart; local-chart steps certify it.
    s = SchmidtSpectrum.from_values([0.3335566450599518, 0.333267436789734, 0.33317591815031417])
    ms = search_message_set(s, 7, seed=3859157519740850707, max_iters=1)
    assert ms is not None
    assert len(ms) == 7
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


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1, 2], "not a JSON object"),
        ({"kind": "message-set"}, "field 'd'"),
        ({"kind": "message-set", "d": "two", "unitaries": []}, "field 'd'"),
        ({"kind": "message-set", "d": 2}, "field 'unitaries'"),
        ({"kind": "message-set", "d": 2, "unitaries": [[[1, 0]]]}, "field 'unitaries'"),
        ({"kind": "message-set", "d": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "I"]}, "field 'unitaries'"),
        ({"kind": "message-set", "d": 2.7, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "field 'd'"),
        ({"kind": "message-set", "d": "2", "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "field 'd'"),
        ({"kind": "message-set", "d": 2.0, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "field 'd'"),
        ({"kind": "message-set", "d": True, "unitaries": [[[[1, 0]]]]}, "field 'd'"),
    ],
)
def test_malformed_message_set_document_names_its_field(doc, field):
    with pytest.raises(ValueError, match=field):
        message_set_from_json(doc)
    with pytest.raises(ValueError, match=field):
        message_set_from_json(json.dumps(doc))
