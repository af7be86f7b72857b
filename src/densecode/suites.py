"""Randomized verification suites behind the CLI ``verify`` command.

Each suite runs a seeded batch of configurations through one subsystem and
reports named worst-case defects.  The same functions back the acceptance
tests, so the CLI and the test suite certify identical properties.

A suite works in two steps.  It first draws every configuration's inputs,
configuration k from its own stream ``rng_from(seed, k)`` and seeds
``seed + 1000 + k`` and so on.  The streams come from ``rng_streams``, which
derives all of a suite's Philox keys in one batch, and a configuration takes
one call per distribution; its spectrum uniforms become spectra once per
group of equal dimension.  It then groups the configurations by shape and
runs every gate once per group on stacked arrays, the dilation's
Gram-Schmidt completion included.  Only the draw calls run per configuration.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances
from .analysis import CASE_I, CASE_II, uniformity_witness, verify_necessary_identities, weyl_witness
from .channels import (
    apply_kraus,
    containment_residuals,
    dilate,
    dilation_unitaries,
    kraus_ranks,
    kraus_sums,
    lifted_kraus,
    orthogonalize_kraus_pairs,
    random_trace_preserving_kraus,
    trace_out_ancilla_state,
    validate_kraus,
)
from .linalg import dagger, hermitian_eigenvalues, max_abs, numerical_ranks, rng_streams, unitarity_defect
from .states import pure_densities, schmidt_coords, validate_spectra


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


DILATION_CONFIGS = 50        # configurations per suite run
ORTHOGONALIZE_CONFIGS = 100
INDEPENDENCE_CONFIGS = 100
CONTAINMENT_CONFIGS = 50
SPECTRUM_FLOOR = 0.05        # added to each spectrum uniform before normalizing


class Config(NamedTuple):
    """One drawn configuration of a suite."""

    k: int                            # index: selects the stream and the seed offsets
    d: int
    n: int                            # Kraus count (collection size in the independence suite)
    lam: np.ndarray                   # Schmidt spectrum, descending
    gauss: np.ndarray | None = None   # the suite's own Gaussian draws, if any
    outcomes: int = 0                 # ancilla measurement outcomes (containment suite)


def _spectra(uniforms: list[np.ndarray]) -> list[np.ndarray]:
    """Full-support spectra from each ``rng.random(d)`` draw: floored, normalized, descending.

    The arithmetic runs once per group of equal ``d``, row by row as for one draw.
    """
    lam = [None] * len(uniforms)
    for _, group in _groups(list(enumerate(uniforms)), lambda item: len(item[1])):
        raw = np.stack([u for _, u in group]) + SPECTRUM_FLOOR
        for (i, _), row in zip(group, -np.sort(-(raw / raw.sum(axis=1, keepdims=True)), axis=1)):
            lam[i] = row
    return lam


def _ginibre(lead: tuple[int, ...], n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex-Gaussian ``n x n`` matrices ``(*lead, n, n)`` from one draw.

    Each matrix takes its real part, then its imaginary part, matrix by matrix.
    """
    g = rng.standard_normal((*lead, 2, n, n))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _densities(g: np.ndarray) -> np.ndarray:
    """Unit-trace g g^dag for each matrix of a stack."""
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _groups(items: list, key: Callable[..., Hashable]):
    """Items (configurations) grouped by ``key``, in order of first appearance."""
    groups: dict[Hashable, list] = defaultdict(list)
    for c in items:
        groups[key(c)].append(c)
    return groups.items()


def _states(group: list[Config]) -> np.ndarray:
    """Validated spectra of a group as stacked Schmidt-state coordinates."""
    lam = np.stack([c.lam for c in group])
    validate_spectra(lam)
    return schmidt_coords(lam)


def _channels(d: int, n_kraus: int, seeds: list[int]) -> np.ndarray:
    """Validated random trace-preserving Kraus sets, one per seed."""
    kraus = random_trace_preserving_kraus(d, n_kraus, seeds)
    validate_kraus(kraus)
    return kraus


def draw_dilation(seed: int) -> list[Config]:
    """Configurations of ``dilation_suite``: dimension and Kraus count in {2, 3}, then the spectrum."""
    shapes, uniforms = [], []
    for rng in rng_streams(seed, DILATION_CONFIGS):
        d, n_kraus = rng.integers(2, 4, size=2).tolist()
        shapes.append((d, n_kraus))
        uniforms.append(rng.random(d))
    return [Config(k, d, n, lam) for k, ((d, n), lam) in enumerate(zip(shapes, _spectra(uniforms)))]


def dilation_suite(seed: int) -> SuiteReport:
    """Random trace-preserving channels: dilation unitarity and reduction agreement."""
    tol = tolerances.get()
    worst_unitarity = 0.0
    worst_agreement = 0.0
    for (d, n_kraus), group in _groups(draw_dilation(seed), lambda c: (c.d, c.n)):
        kraus = _channels(d, n_kraus, [seed + 1000 + c.k for c in group])
        psi = _states(group)
        u = dilation_unitaries(kraus, [seed + 2000 + c.k for c in group])
        worst_unitarity = max(worst_unitarity, unitarity_defect(u))
        reduced = trace_out_ancilla_state(dilate(u, psi), n_kraus)
        direct = apply_kraus(kraus, pure_densities(psi))
        worst_agreement = max(worst_agreement, max_abs(reduced - direct))
    return SuiteReport(
        suite="dilation",
        checks=(
            Check("dilation-unitarity", worst_unitarity, tol.unitarity),
            Check("partial-trace-agreement", worst_agreement, tol.equality),
        ),
    )


def draw_orthogonalize(seed: int) -> list[Config]:
    """Configurations of ``orthogonalize_suite``: d cycles 2, 3, 4; spectrum, then a density factor."""
    dims = (2, 3, 4)
    uniforms, gauss = [], []
    for k, rng in enumerate(rng_streams(seed, ORTHOGONALIZE_CONFIGS)):
        d = dims[k % len(dims)]
        uniforms.append(rng.random(d))
        gauss.append(_ginibre((), d * d, rng))
    spectra = _spectra(uniforms)
    return [Config(k, dims[k % len(dims)], 2, lam, gauss=g) for k, (lam, g) in enumerate(zip(spectra, gauss))]


def orthogonalize_suite(seed: int) -> SuiteReport:
    """Random two-element trace-preserving pairs orthogonalized on random states."""
    tol = tolerances.get()
    worst_overlap = 0.0
    worst_action = 0.0
    worst_residual = 0.0
    for d, group in _groups(draw_orthogonalize(seed), lambda c: c.d):
        kraus = _channels(d, 2, [seed + 3000 + c.k for c in group])
        psi = _states(group)
        result, mixed = orthogonalize_kraus_pairs(kraus, psi)
        worst_overlap = max(worst_overlap, float(result.overlap.max()))
        validate_kraus(mixed)
        rho = _densities(np.stack([c.gauss for c in group]))
        worst_action = max(worst_action, max_abs(apply_kraus(kraus, rho) - apply_kraus(mixed, rho)))
        # Both quadratic roots must satisfy the orthogonality equation.
        worst_residual = max(worst_residual, float(result.residual.max()))
    return SuiteReport(
        suite="orthogonalize",
        checks=(
            Check("lifted-overlap", worst_overlap, tol.unitarity),
            Check("channel-action-deviation", worst_action, tol.unitarity),
            Check("quadratic-residual", worst_residual, tol.quadratic),
        ),
    )


def draw_independence(seed: int) -> list[Config]:
    """Configurations of ``independence_suite``: d and size in 2..4, the collection, then the spectrum."""
    shapes, uniforms, gauss = [], [], []
    for rng in rng_streams(seed, INDEPENDENCE_CONFIGS):
        d, size = rng.integers(2, 5, size=2).tolist()
        shapes.append((d, size))
        gauss.append(_ginibre((size,), d, rng))
        uniforms.append(rng.random(d))
    return [
        Config(k, d, size, lam, gauss=g)
        for k, ((d, size), lam, g) in enumerate(zip(shapes, _spectra(uniforms), gauss))
    ]


def independence_suite(seed: int) -> SuiteReport:
    """Lifting preserves linear independence: Gram rank equals collection size.

    Each collection is its Gaussian draws scaled so that sum K^dag K has top
    eigenvalue 0.9.  A collection counts as a mismatch when its Kraus rank or
    its lifted Gram rank differs from its size (a dependent draw has
    probability zero).
    """
    mismatches = 0
    for (d, size), group in _groups(draw_independence(seed), lambda c: (c.d, c.n)):
        raw = np.stack([c.gauss for c in group])
        top = hermitian_eigenvalues(kraus_sums(raw))[:, 0]
        kraus = (0.9 / np.sqrt(top))[:, None, None, None] * raw
        validate_kraus(kraus)
        psi = _states(group)
        lifted_rank = numerical_ranks(lifted_kraus(kraus, psi))
        mismatches += int(np.sum((kraus_ranks(kraus) != size) | (lifted_rank != size)))
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


def draw_containment(seed: int) -> list[Config]:
    """Configurations of ``containment_suite``: a d=2 spectrum, then 2 or 3 measurement outcomes."""
    uniforms, outcomes = [], []
    for rng in rng_streams(seed, CONTAINMENT_CONFIGS):
        uniforms.append(rng.random(2))
        outcomes.append(int(rng.integers(2, 4)))
    return [Config(k, 2, 3, lam, outcomes=o) for k, (lam, o) in enumerate(zip(_spectra(uniforms), outcomes))]


def containment_suite(seed: int) -> SuiteReport:
    """Ancilla measurements never steer outside the channel output support."""
    tol = tolerances.get()
    worst = 0.0
    for (d, n_kraus, n_outcomes), group in _groups(
        draw_containment(seed), lambda c: (c.d, c.n, c.outcomes)
    ):
        kraus = _channels(d, n_kraus, [seed + 4000 + c.k for c in group])
        psi = _states(group)
        measurements = _channels(n_kraus, n_outcomes, [seed + 5000 + c.k for c in group])
        _, residual = containment_residuals(
            kraus, psi, measurements, [seed + 6000 + c.k for c in group]
        )
        worst = max(worst, float(residual.max()))
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
