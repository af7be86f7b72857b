import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from densecode import tolerances
from densecode.analysis import (
    CASE_I,
    CASE_II,
    HYPOTHESES_VIOLATED,
    two_kraus_column_identity,
    uniformity_witness,
    verify_necessary_identities,
    weyl_witness,
)
from densecode.channels import random_trace_preserving_kraus
from densecode.encoding import UnitaryMessageSet
from densecode.linalg import rng_from
from densecode.states import SchmidtSpectrum, uniform_spectrum

from conftest import EXAMPLE_C, EXAMPLE_T, EXAMPLE_Y, I2, X, Z, random_spectrum


def test_column_identity_trace_preserving_pair():
    defects = two_kraus_column_identity(I2 / np.sqrt(2), Z / np.sqrt(2))
    assert np.max(defects) < 1e-15


def test_column_identity_reveals_missing_mass():
    # For the sub-normalized pair the diagonal shows the closing channel's weight.
    defects = two_kraus_column_identity(EXAMPLE_T, EXAMPLE_Y)
    want = np.diag(EXAMPLE_C.conj().T @ EXAMPLE_C).real
    assert abs(defects[0, 0] - want[0]) < 1e-12
    assert abs(defects[1, 1] - want[1]) < 1e-12
    assert defects[0, 1] < 1e-12 and defects[1, 0] < 1e-12


def test_column_identity_random_pairs():
    for k in range(100):
        kraus = random_trace_preserving_kraus(int(2 + k % 3), 2, [900 + k])[0]
        assert np.max(two_kraus_column_identity(*kraus)) < 1e-10


def test_identities_weyl_witness_d2():
    spectrum, messages, k0, k1 = weyl_witness(2)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    assert report.case_tag == CASE_I
    assert abs(report.x - 0.5) < 1e-12
    assert report.max_identity_defect() < 1e-10
    assert abs(report.gamma_row - 2.0) < 1e-12


def test_identities_weyl_witness_d3():
    spectrum, messages, k0, k1 = weyl_witness(3)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    assert report.case_tag == CASE_I
    assert report.max_identity_defect() < 1e-9


def test_identities_case_ii_witness():
    spectrum, messages, k0, k1 = weyl_witness(2, x=0.3)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    assert report.case_tag == CASE_II
    assert abs(report.x - 0.3) < 1e-12
    assert "b_formula" in report.defects
    assert report.max_identity_defect() < 1e-9
    assert np.allclose(report.b, 0.3, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=5),
    x=st.floats(min_value=0.05, max_value=0.95).filter(lambda v: abs(v - 0.5) > 1e-3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_identity_chain_property(d, x, seed):
    # An unbalanced witness passes the whole chain; the same Kraus pair on a
    # non-uniform spectrum fails the hypotheses but still reports x and gamma_row.
    tol = tolerances.get()
    spectrum, messages, k0, k1 = weyl_witness(d, x)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    assert report.case_tag == CASE_II
    assert "b_formula" in report.defects
    assert np.max(np.abs(report.b - x)) <= tol.equality
    assert report.max_identity_defect() <= tol.identity

    skewed = random_spectrum(d, rng_from(seed))
    assume(skewed.lambdas[0] - skewed.lambdas[-1] > 1e-3)
    violated = verify_necessary_identities(skewed, messages, k0, k1)
    assert violated.case_tag == HYPOTHESES_VIOLATED
    assert set(violated.defects) == {"completeness", "hypotheses_gram"}
    assert violated.defects["hypotheses_gram"] > tol.identity
    assert abs(violated.x - x) <= tol.equality  # every column of k0 has squared norm x
    lam = np.asarray(skewed.lambdas)
    assert violated.gamma_row == float(np.sum(1.0 / lam) - (d * d - 2))


def test_identities_violated_on_non_maximal_spectrum(example_spectrum):
    messages = UnitaryMessageSet(d=2, unitaries=(I2, X))
    k0 = Z / np.sqrt(2)
    k1 = (X @ Z) / np.sqrt(2)
    report = verify_necessary_identities(example_spectrum, messages, k0, k1)
    assert report.case_tag == HYPOTHESES_VIOLATED
    assert not report.hypotheses_hold
    assert report.defects["hypotheses_gram"] > 1e-9


def test_identities_wrong_message_count(example_spectrum):
    with pytest.raises(ValueError):
        verify_necessary_identities(
            example_spectrum, UnitaryMessageSet(d=2, unitaries=(I2,)), I2, X
        )


def test_case_i_forces_uniform_coefficients():
    spectrum, messages, k0, k1 = weyl_witness(3)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    assert report.case_tag == CASE_I
    assert max(abs(lam - 1 / 3) for lam in spectrum.lambdas) < 1e-9


def test_uniformity_witness_uniform():
    value, uniform = uniformity_witness(uniform_spectrum(5))
    assert value == 5.0
    assert uniform


def test_uniformity_witness_example(example_spectrum):
    value, uniform = uniformity_witness(example_spectrum)
    assert abs(value - (1 + 81 / 79)) < 1e-12
    assert not uniform


def test_uniformity_witness_d3():
    value, uniform = uniformity_witness(SchmidtSpectrum.from_values([0.5, 0.3, 0.2]))
    assert abs(value - (1 + 5 / 3 + 5 / 2)) < 1e-12
    assert not uniform


def test_uniformity_witness_lower_bound():
    rng = rng_from(91)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        value, _ = uniformity_witness(random_spectrum(d, rng))
        assert value >= d - 1e-12

