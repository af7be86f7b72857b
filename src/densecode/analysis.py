"""Numerical checkers for the impossibility identities.

If a spectrum supported one more distinguishable message than the unitary
maximum, the lifted message states plus the two normalized Kraus states of a
rank-2 final message would form an orthonormal basis.  That hypothesis
forces a chain of identities (cross-column cancellation, row sums, a closed
form for the Kraus column masses, a scalar multiple of the identity for
EE' + WW', and finally a uniform spectrum).  Each identity is implemented
here as a defect-reporting check, exercised on witness configurations where
the hypothesis actually holds -- which exist only at the maximally entangled
point; on any other spectrum the hypothesis Gram check fails, and that
failure is itself the observable content of the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .channels import kraus_sums
from .encoding import UnitaryMessageSet, certify_lifted, lift_messages, weyl_set
from .linalg import as_matrix, dagger, max_abs
from .states import SchmidtSpectrum, apply_local, make_schmidt_state, uniform_spectrum

CASE_I = "case-i (x = 1/2)"
CASE_II = "case-ii"
HYPOTHESES_VIOLATED = "hypotheses-violated"


def two_kraus_column_identity(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """Defect matrix |<col_i K0|col_j K0> + <col_i K1|col_j K1> - delta_ij|.

    Vanishes exactly for a trace-preserving pair; for a sub-normalized pair
    the diagonal reveals the missing completeness mass.
    """
    k0 = as_matrix(k0)
    k1 = as_matrix(k1)
    if k0.shape != k1.shape or k0.shape[0] != k0.shape[1]:
        raise ValueError("two_kraus_column_identity: need two square matrices of equal size")
    return np.abs(kraus_sums(np.stack((k0, k1))) - np.eye(k0.shape[0]))


@dataclass(frozen=True, eq=False)
class ImpossibilityReport:
    """Defects of every checked identity for one configuration.

    ``x`` is the squared norm of the first lifted Kraus state, ``b`` the
    column masses of the first Kraus matrix, and ``gamma_row`` the common
    diagonal value sum(1/lambda_j) - (d^2 - 2).  ``case_tag`` records the
    x = 1/2 split, or that the orthonormality hypothesis failed.
    ``defects["hypotheses_gram"]`` is the ``certify_lifted`` Gram defect of
    the extended basis (inf when the two lifted Kraus states do not split
    the unit norm as x, 1 - x); a configuration that violates the
    hypothesis reports only it and ``completeness``.
    """

    x: float
    b: np.ndarray
    gamma_row: float
    case_tag: str
    defects: dict[str, float]

    @property
    def hypotheses_hold(self) -> bool:
        return self.case_tag != HYPOTHESES_VIOLATED

    def max_identity_defect(self) -> float:
        named = {k: v for k, v in self.defects.items() if k != "hypotheses_gram"}
        return max(named.values()) if named else 0.0


def verify_necessary_identities(
    spectrum: SchmidtSpectrum,
    messages: UnitaryMessageSet,
    k0: np.ndarray,
    k1: np.ndarray,
) -> ImpossibilityReport:
    """Check every identity the extra-message hypothesis would force.

    The inputs must already satisfy the hypothesis: the d^2 - 2 lifted
    messages together with the two normalized lifted Kraus states must pass
    a full orthonormality Gram check.  Nothing is orthogonalized here; a
    pair whose lifted states overlap should first go through
    ``channels.orthogonalize_kraus_pairs``.  A failing Gram check is reported
    via the case tag, not silently repaired.
    """
    tol = tolerances.get()
    d = spectrum.d
    k0 = as_matrix(k0)
    k1 = as_matrix(k1)
    if len(messages) != d * d - 2:
        raise ValueError(f"verify_necessary_identities: need d^2-2 = {d*d-2} messages")
    psi = make_schmidt_state(spectrum)
    lam = np.asarray(spectrum.lambdas)

    phi0 = apply_local(k0, psi).coords
    phi1 = apply_local(k1, psi).coords
    x = float(np.vdot(phi0, phi0).real)
    one_minus_x = float(np.vdot(phi1, phi1).real)
    gamma_row = float(np.sum(1.0 / lam) - (d * d - 2))
    b = np.real(np.sum(np.abs(k0) ** 2, axis=0))

    defects = {
        "completeness": float(np.max(two_kraus_column_identity(k0, k1))),
        "hypotheses_gram": float("inf"),
    }
    if 0.0 < x < 1.0 and abs(x + one_minus_x - 1.0) < tol.identity:
        basis = np.vstack(
            (lift_messages(messages, psi), phi0 / np.sqrt(x), phi1 / np.sqrt(1.0 - x))
        )
        defects["hypotheses_gram"] = certify_lifted(basis).gram_defect

    case_tag = HYPOTHESES_VIOLATED
    if defects["hypotheses_gram"] < tol.identity:
        case_tag = CASE_I if abs(x - 0.5) < tol.case_split else CASE_II

        # Cross-column cancellation: for i != j the two weighted column inner
        # products must cancel exactly.
        g0 = dagger(k0) @ k0
        g1 = dagger(k1) @ k1
        weight = np.sqrt(np.outer(lam, lam))
        cross = weight * (g0 / x + g1 / (1.0 - x))
        np.fill_diagonal(cross, 0.0)
        defects["cross_column"] = max_abs(cross)

        # Row sums: lambda_j [d^2 - 2 + b_j/x + (1-b_j)/(1-x)] = d for every j.
        row = lam * (d * d - 2 + b / x + (1.0 - b) / (1.0 - x)) - d
        defects["row_sum"] = float(np.max(np.abs(row)))

        # Closed form for the column masses (only defined away from x = 1/2).
        if case_tag == CASE_II:
            b_closed = -x / (1.0 - 2.0 * x) + x * (1.0 - x) / (1.0 - 2.0 * x) * (
                d / lam + 2.0 - d * d
            )
            defects["b_formula"] = float(np.max(np.abs(b - b_closed)))

        # Row Gram: EE' + WW' must be gamma_row times the identity, with E and
        # W the normalized Kraus matrices.
        e_mat = k0 / np.sqrt(x)
        w_mat = k1 / np.sqrt(1.0 - x)
        defects["row_gram"] = max_abs(
            e_mat @ dagger(e_mat) + w_mat @ dagger(w_mat) - gamma_row * np.eye(d)
        )

        # Terminal condition: the coefficient ratios must sum to d exactly.
        defects["terminal"] = abs(uniformity_witness(spectrum)[0] - d)

    return ImpossibilityReport(x=x, b=b, gamma_row=gamma_row, case_tag=case_tag, defects=defects)


def uniformity_witness(spectrum: SchmidtSpectrum) -> tuple[float, bool]:
    """Sum of lambda0/lambda_j; equals d exactly iff the spectrum is uniform."""
    lam = np.asarray(spectrum.lambdas)
    if np.any(lam <= 0.0):
        raise ValueError("uniformity_witness: zero coefficient")
    value = float(np.sum(lam[0] / lam))
    return value, abs(value - spectrum.d) < tolerances.get().unitarity


def weyl_witness(
    d: int, x: float = 0.5
) -> tuple[SchmidtSpectrum, UnitaryMessageSet, np.ndarray, np.ndarray]:
    """A configuration satisfying the extra-message hypothesis at the uniform spectrum.

    The first d^2 - 2 shift/clock unitaries are the messages and the last two,
    scaled by sqrt(x) and sqrt(1-x), form the trace-preserving Kraus pair.
    ``x = 1/2`` lands in case (i); any other weight exercises case (ii).
    """
    if not 0.0 < x < 1.0:
        raise ValueError("weyl_witness: x must lie strictly between 0 and 1")
    spectrum = uniform_spectrum(d)
    full = weyl_set(d)
    messages = UnitaryMessageSet(d=d, unitaries=full.unitaries[: d * d - 2])
    k0 = np.sqrt(x) * full.unitaries[d * d - 2]
    k1 = np.sqrt(1.0 - x) * full.unitaries[d * d - 1]
    return spectrum, messages, k0, k1
