from fractions import Fraction

import numpy as np
import pytest

from densecode.channels import trace_out_ancilla_state
from densecode.linalg import max_abs, random_unitaries, rng_from
from densecode.states import (
    BipartiteState,
    SchmidtSpectrum,
    apply_local,
    make_schmidt_state,
    parse_spectrum,
    uniform_spectrum,
)

from conftest import EXAMPLE_C, EXAMPLE_T, EXAMPLE_Y, I2, X, basis_index, kron, spectrum_of


def test_spectrum_validation():
    with pytest.raises(ValueError, match=r"^SchmidtSpectrum: coefficients sum to 1\.1, not 1$"):
        SchmidtSpectrum(d=2, lambdas=(0.6, 0.5))
    with pytest.raises(ValueError):
        SchmidtSpectrum(d=2, lambdas=(1.0, 0.0))
    with pytest.raises(ValueError):
        SchmidtSpectrum(d=2, lambdas=(0.4, 0.6))  # not descending


def test_spectrum_sorting_is_stable():
    s = SchmidtSpectrum.from_values([0.25, 0.5, 0.25])
    assert s.lambdas == (0.5, 0.25, 0.25)


def test_parse_spectrum_rationals():
    s = parse_spectrum("79/160, 81/160")
    assert s.exact == (Fraction(81, 160), Fraction(79, 160))
    assert s.lambdas[0] == 81 / 160


def test_parse_spectrum_decimals():
    s = parse_spectrum("0.4,0.6")
    assert s.lambdas == (0.6, 0.4)
    assert s.exact == (Fraction(3, 5), Fraction(2, 5))


def test_parse_spectrum_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spectrum("1/0,1")
    with pytest.raises(ValueError):
        parse_spectrum("")


def test_state_does_not_alias_caller_coordinates():
    coords = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = BipartiteState(d=2, coords=coords)
    assert coords.flags.writeable
    assert not psi.coords.flags.writeable
    coords[0] = 5.0
    assert psi.coords[0] == 1.0 and psi.normalized


def test_make_schmidt_state_maximally_entangled():
    psi = make_schmidt_state(uniform_spectrum(2))
    expected = np.zeros(4, dtype=complex)
    expected[basis_index(0, 0, 2)] = 1 / np.sqrt(2)
    expected[basis_index(1, 1, 2)] = 1 / np.sqrt(2)
    assert max_abs(psi.coords - expected) < 1e-15
    assert psi.normalized


def test_make_schmidt_state_example_amplitudes(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    assert abs(psi.coords[0] - 9 / (4 * np.sqrt(10))) < 1e-15
    assert abs(psi.coords[3] - np.sqrt(79) / (4 * np.sqrt(10))) < 1e-15


def test_make_schmidt_state_d3():
    s = SchmidtSpectrum.from_values([3 / 8, 5 / 16, 5 / 16])
    psi = make_schmidt_state(s)
    for j, lam in enumerate((3 / 8, 5 / 16, 5 / 16)):
        assert abs(psi.coords[basis_index(j, j, 3)] - np.sqrt(lam)) < 1e-15


def test_spectrum_round_trip():
    rng = rng_from(41)
    for _ in range(20):
        raw = rng.random(4) + 0.05
        s = SchmidtSpectrum.from_values(raw / raw.sum())
        assert spectrum_of(make_schmidt_state(s)).lambdas == pytest.approx(s.lambdas, abs=1e-14)


def test_apply_local_identity(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    assert max_abs(apply_local(I2, psi).coords - psi.coords) == 0.0


def test_apply_local_shift(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    out = apply_local(X, psi)
    expected = np.zeros(4, dtype=complex)
    expected[basis_index(1, 0, 2)] = 9 / (4 * np.sqrt(10))
    expected[basis_index(0, 1, 2)] = np.sqrt(79) / (4 * np.sqrt(10))
    assert max_abs(out.coords - expected) < 1e-15


def test_apply_local_matches_kron_oracle(example_spectrum):
    # The lifted operator in the module ordering is kron(identity, a).
    psi = make_schmidt_state(example_spectrum)
    rng = rng_from(42)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert max_abs(apply_local(a, psi).coords - kron(I2, a) @ psi.coords) < 1e-14


def test_apply_local_composition():
    rng = rng_from(43)
    s = SchmidtSpectrum.from_values([0.5, 0.3, 0.2])
    psi = make_schmidt_state(s)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        chained = apply_local(a, apply_local(b, psi)).coords
        assert max_abs(apply_local(a @ b, psi).coords - chained) < 1e-12


def test_apply_local_unitary_preserves_norm(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    for seed in range(5):
        out = apply_local(random_unitaries(2, [seed])[0], psi)
        assert abs(out.norm() - 1.0) < 1e-12
        assert out.normalized


def test_apply_local_c_branch_weight(example_spectrum):
    psi = make_schmidt_state(example_spectrum)
    out = apply_local(EXAMPLE_C, psi)
    assert abs(out.norm() ** 2 - 2 / 81) < 1e-15
    assert not out.normalized


def test_bipartite_state_validation():
    with pytest.raises(ValueError):
        BipartiteState(d=2, coords=np.zeros(3, dtype=complex))


def test_partial_trace_product_state():
    rng = rng_from(44)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    anc = np.zeros(3, dtype=complex)
    anc[0] = 1.0
    joint = np.kron(v, anc)  # joint index = system * 3 + ancilla
    assert max_abs(trace_out_ancilla_state(joint, 3) - np.outer(v, v.conj())) < 1e-12


def test_partial_trace_maximally_mixed():
    # The maximally mixed joint state is the mean of the basis projectors.
    out = trace_out_ancilla_state(np.eye(12, dtype=complex), 3).mean(axis=0)
    assert max_abs(out - np.eye(4) / 4) < 1e-14


def test_partial_trace_preserves_trace():
    rng = rng_from(45)
    g = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    out = trace_out_ancilla_state(g, 3)
    assert out.shape == (5, 4, 4)
    assert np.all(np.abs(np.trace(out, axis1=-2, axis2=-1).real - 1.0) < 1e-12)


def test_partial_trace_of_branch_superposition(example_spectrum):
    # Three tagged branches reduce to the sum of the branch projectors.
    psi = make_schmidt_state(example_spectrum)
    branches = [apply_local(k, psi).coords for k in (EXAMPLE_T, EXAMPLE_Y, EXAMPLE_C)]
    joint = np.zeros(12, dtype=complex)
    for r, b in enumerate(branches):
        joint[r::3] = b
    reduced = trace_out_ancilla_state(joint, 3)
    expected = sum(np.outer(b, b.conj()) for b in branches)
    assert max_abs(reduced - expected) < 1e-14
    assert abs(np.trace(reduced).real - 1.0) < 1e-12
