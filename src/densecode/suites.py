"""Randomized verification suites behind the CLI ``verify`` command.

Each suite runs a seeded batch of configurations through one subsystem and
reports named worst-case defects.  The same functions back the acceptance
tests, so the CLI and the test suite certify identical properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .analysis import CASE_I, CASE_II, uniformity_witness, verify_necessary_identities, weyl_witness
from .channels import (
    QuantumChannel,
    apply_channel,
    apply_dilation,
    dilation_unitary,
    kraus_rank,
    lifted_kraus_states,
    orthogonalize_kraus_pair,
    random_trace_preserving_channel,
    support_containment_check,
    trace_out_ancilla_state,
)
from .linalg import hermitian_eigensystem, max_abs, numerical_rank, rng_from
from .states import SchmidtSpectrum, apply_local, make_schmidt_state


@dataclass(frozen=True)
class Check:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "defect": c.defect, "tolerance": c.tolerance, "pass": c.passed}
                for c in self.checks
            ],
        }


def random_spectrum(d: int, rng: np.random.Generator, floor: float = 0.05) -> SchmidtSpectrum:
    """Random full-support spectrum (floored uniforms, normalized, sorted)."""
    raw = rng.random(d) + floor
    return SchmidtSpectrum.from_values(raw / raw.sum())


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dilation_suite(seed: int, configs: int = 50) -> SuiteReport:
    """Random trace-preserving channels: dilation unitarity and reduction agreement."""
    tol = tolerances.get()
    worst_unitarity = 0.0
    worst_agreement = 0.0
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 4))
        n_kraus = int(rng.integers(2, 4))
        channel = random_trace_preserving_channel(d, n_kraus, seed + 1000 + k)
        spectrum = random_spectrum(d, rng)
        psi = make_schmidt_state(spectrum)
        dil = dilation_unitary(channel, seed + 2000 + k)
        m = dil.u_tilde
        worst_unitarity = max(worst_unitarity, max_abs(m.conj().T @ m - np.eye(m.shape[0])))
        joint = apply_dilation(dil, psi)
        reduced = trace_out_ancilla_state(joint, dil.ancilla_dim)
        direct = apply_channel(channel, psi.density())
        worst_agreement = max(worst_agreement, max_abs(reduced - direct))
    return SuiteReport(
        suite="dilation",
        checks=(
            Check("dilation-unitarity", worst_unitarity, tol.unitarity),
            Check("partial-trace-agreement", worst_agreement, tol.equality),
        ),
    )


def orthogonalize_suite(seed: int, configs: int = 100) -> SuiteReport:
    """Random two-element trace-preserving pairs orthogonalized on random states."""
    tol = tolerances.get()
    worst_overlap = 0.0
    worst_action = 0.0
    worst_residual = 0.0
    dims = (2, 3, 4)
    for k in range(configs):
        rng = rng_from(seed, k)
        d = dims[k % len(dims)]
        channel = random_trace_preserving_channel(d, 2, seed + 3000 + k)
        k0, k1 = channel.kraus
        spectrum = random_spectrum(d, rng)
        psi = make_schmidt_state(spectrum)
        result, r0, r1 = orthogonalize_kraus_pair(k0, k1, psi)
        phi0 = apply_local(r0, psi).coords
        phi1 = apply_local(r1, psi).coords
        worst_overlap = max(worst_overlap, abs(np.vdot(phi0, phi1)))
        rho = random_density(d * d, rng)
        before = apply_channel(channel, rho)
        after = apply_channel(QuantumChannel(d=d, kraus=(r0, r1)), rho)
        worst_action = max(worst_action, max_abs(before - after))
        # Both quadratic roots must satisfy the orthogonality equation.
        worst_residual = max(worst_residual, result.residual)
    return SuiteReport(
        suite="orthogonalize",
        checks=(
            Check("lifted-overlap", worst_overlap, tol.unitarity),
            Check("channel-action-deviation", worst_action, tol.unitarity),
            Check("quadratic-residual", worst_residual, tol.quadratic),
        ),
    )


def random_kraus_collection(d: int, size: int, rng: np.random.Generator) -> QuantumChannel:
    """Random linearly independent Kraus matrices, scaled under the completeness bound."""
    kraus = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(size)
    ]
    total = sum(k.conj().T @ k for k in kraus)
    top, _ = hermitian_eigensystem(total)
    scale = 0.9 / np.sqrt(top[0])
    return QuantumChannel(d=d, kraus=tuple(scale * k for k in kraus))


def independence_suite(seed: int, configs: int = 100) -> SuiteReport:
    """Lifting preserves linear independence: Gram rank equals collection size."""
    mismatches = 0
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 5))
        size = int(rng.integers(2, 5))
        channel = random_kraus_collection(d, size, rng)
        if kraus_rank(channel) != size:
            mismatches += 1  # dependent draw has probability zero
            continue
        spectrum = random_spectrum(d, rng)
        psi = make_schmidt_state(spectrum)
        lifted = lifted_kraus_states(channel, psi)
        if numerical_rank([s.coords for s in lifted]) != size:
            mismatches += 1
    return SuiteReport(
        suite="independence",
        checks=(Check("lifted-gram-rank-mismatches", float(mismatches), 0.0),),
    )


def identities_suite(d: int = 2) -> SuiteReport:
    """Witness configurations at the uniform spectrum pass every identity check.

    Runs the balanced witness (equal Kraus weights, x = 1/2) and an
    unbalanced one (x = 0.3) exercising the diagonal-column branch with its
    closed form for the column masses.
    """
    tol = tolerances.get()
    spectrum, messages, k0, k1 = weyl_witness(d)
    report = verify_necessary_identities(spectrum, messages, k0, k1)
    case_defect = 0.0 if report.case_tag == CASE_I else 1.0
    value, uniform = uniformity_witness(spectrum)
    skew = verify_necessary_identities(*weyl_witness(d, x=0.3))
    skew_case = 0.0 if skew.case_tag == CASE_II and "b_formula" in skew.defects else 1.0
    return SuiteReport(
        suite="identities",
        checks=(
            Check("hypotheses-gram", report.defects["hypotheses_gram"], tol.identity),
            Check("cross-column", report.defects["cross_column"], tol.identity),
            Check("row-sum", report.defects["row_sum"], tol.identity),
            Check("row-gram", report.defects["row_gram"], tol.identity),
            Check("terminal-ratio-sum", report.defects["terminal"], tol.identity),
            Check("completeness", report.defects["completeness"], tol.identity),
            Check("case-tag-is-balanced", case_defect, 0.0),
            Check("unbalanced-case-tag", skew_case, 0.0),
            Check("unbalanced-identities", skew.max_identity_defect(), tol.identity),
            Check("uniformity-witness", abs(value - d), tol.equality),
            Check("uniformity-flag", 0.0 if uniform else 1.0, 0.0),
        ),
    )


def containment_suite(seed: int, configs: int = 50) -> SuiteReport:
    """Ancilla measurements never steer outside the channel output support."""
    tol = tolerances.get()
    worst = 0.0
    for k in range(configs):
        rng = rng_from(seed, k)
        d, n_kraus = 2, 3
        channel = random_trace_preserving_channel(d, n_kraus, seed + 4000 + k)
        spectrum = random_spectrum(d, rng)
        psi = make_schmidt_state(spectrum)
        n_outcomes = int(rng.integers(2, 4))
        measurement = random_trace_preserving_channel(n_kraus, n_outcomes, seed + 5000 + k).kraus
        report = support_containment_check(channel, psi, measurement, seed + 6000 + k)
        worst = max(worst, report.max_residual)
    return SuiteReport(
        suite="containment",
        checks=(Check("containment-residual", worst, tol.containment),),
    )


SUITE_ALIASES = {
    "dilation": "dilation",
    "appendix-b": "dilation",
    "orthogonalize": "orthogonalize",
    "appendix-c": "orthogonalize",
    "independence": "independence",
    "lemma": "independence",
    "identities": "identities",
    "section-3": "identities",
    "containment": "containment",
    "support": "containment",
}

SUITE_RUNNERS = {
    "dilation": lambda seed, d: dilation_suite(seed),
    "orthogonalize": lambda seed, d: orthogonalize_suite(seed),
    "independence": lambda seed, d: independence_suite(seed),
    "identities": lambda seed, d: identities_suite(d),
    "containment": lambda seed, d: containment_suite(seed),
}

SUITE_NAMES = tuple(SUITE_RUNNERS)


def run_suite(name: str, seed: int, d: int = 2) -> list[SuiteReport]:
    """Run one named suite (or ``all``); aliases are accepted."""
    if name == "all":
        names = SUITE_NAMES
    elif name in SUITE_ALIASES:
        names = (SUITE_ALIASES[name],)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [SUITE_RUNNERS[n](seed, d) for n in names]
