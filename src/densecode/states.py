"""Schmidt spectra, the shared two-qudit state, and local-operator action.

Basis convention for the joint space: the product basis |ij> (i on Alice's
side, j on Bob's) is listed in d groups of d elements, Bob's index selecting
the group, so coordinate (i, j) lives at flat index j*d + i.  With this
ordering the coordinate vector of a lifted operator (A on Alice, identity on
Bob) is obtained by a plain row-wise matrix product.  Spectrum validation,
Schmidt coordinates and local action also work on stacks (leading axes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tolerances
from .linalg import as_matrix, as_vector, frozen


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Ordered squared Schmidt coefficients of the shared state.

    ``lambdas`` sum to one, are strictly positive and descending.  ``exact``
    optionally carries the rational values a spectrum was parsed from (same
    order), used to echo exact inputs back in reports.
    """

    d: int
    lambdas: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("SchmidtSpectrum: qudit dimension must be >= 2")
        if len(self.lambdas) != self.d:
            raise ValueError("SchmidtSpectrum: need exactly d coefficients")
        validate_spectra(np.asarray(self.lambdas, dtype=float))
        if self.exact is not None and len(self.exact) != self.d:
            raise ValueError("SchmidtSpectrum: exact values do not match d")

    @classmethod
    def from_values(cls, values, exact=None) -> "SchmidtSpectrum":
        """Build a spectrum from coefficients in any order (stable descending sort)."""
        vals = [float(v) for v in values]
        order = sorted(range(len(vals)), key=lambda k: -vals[k])
        lambdas = tuple(vals[k] for k in order)
        ex = tuple(exact[k] for k in order) if exact is not None else None
        return cls(d=len(vals), lambdas=lambdas, exact=ex)


def validate_spectra(lam: np.ndarray) -> None:
    """Refuse spectra ``(..., d)`` unless each is finite, positive, descending and sums to one.

    The sum is checked within the equality tolerance.
    """
    if not np.isfinite(lam).all():
        raise ValueError("SchmidtSpectrum: non-finite coefficient")
    sums = lam.sum(axis=-1)
    off = np.abs(sums - 1.0) > tolerances.get().equality
    if off.any():
        raise ValueError(f"SchmidtSpectrum: coefficients sum to {float(sums[off].flat[0])}, not 1")
    if np.any(lam <= 0.0):
        raise ValueError("SchmidtSpectrum: all coefficients must be positive")
    if np.any(np.diff(lam, axis=-1) > 0.0):
        raise ValueError("SchmidtSpectrum: coefficients must be descending")


def uniform_spectrum(d: int) -> SchmidtSpectrum:
    """The maximally entangled spectrum (every coefficient 1/d)."""
    if d < 2:
        raise ValueError(f"uniform_spectrum: qudit dimension must be >= 2, got {d}")
    return SchmidtSpectrum(d=d, lambdas=(1.0 / d,) * d, exact=(Fraction(1, d),) * d)


def parse_spectrum(text: str) -> SchmidtSpectrum:
    """Parse a comma-separated spectrum literal, e.g. ``81/160,79/160``.

    Each entry may be a rational ``p/q`` or a decimal; both are parsed
    exactly and converted once to double precision.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty spectrum literal")
    try:
        exact = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad spectrum literal {text!r}: {err}") from None
    return SchmidtSpectrum.from_values([float(f) for f in exact], exact=exact)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Coordinate vector of a two-qudit state in the d-groups-of-d ordering."""

    d: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = frozen(as_vector(self.coords))
        if coords.size != self.d * self.d:
            raise ValueError("BipartiteState: coordinate count must be d*d")
        object.__setattr__(self, "coords", coords)

    @property
    def normalized(self) -> bool:
        """Whether the norm is 1 within the equality tolerance (false for most branch states)."""
        return abs(self.norm() - 1.0) <= tolerances.get().equality

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def density(self) -> np.ndarray:
        return pure_densities(self.coords)


def pure_densities(coords: np.ndarray) -> np.ndarray:
    """|psi><psi| for each state vector of a stack ``(..., n)``."""
    return coords[..., :, None] * coords.conj()[..., None, :]


def schmidt_coords(lam: np.ndarray) -> np.ndarray:
    """Coordinates of the shared state for each spectrum row of ``lam`` ``(..., d)``.

    Coordinate sqrt(lambda_j) at (j, j), zero elsewhere; no validation.
    """
    d = lam.shape[-1]
    coords = np.zeros(lam.shape[:-1] + (d * d,), dtype=complex)
    coords[..., :: d + 1] = np.sqrt(lam)  # flat index of (j, j) is j * (d + 1)
    return coords


def make_schmidt_state(spectrum: SchmidtSpectrum) -> BipartiteState:
    """The shared state: coordinate sqrt(lambda_j) at (j, j), zero elsewhere."""
    return BipartiteState(d=spectrum.d, coords=schmidt_coords(np.asarray(spectrum.lambdas)))


def local_action(ops: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Coordinates of ``ops`` ``(..., d, d)`` acting on Alice's side of ``coords`` ``(..., d*d)``.

    Leading axes broadcast; no validation.  On a Schmidt state each output
    entry is one product sqrt(lambda_j) * A[i, j], so the result is exact.
    """
    d = ops.shape[-1]
    out = coords.reshape(coords.shape[:-1] + (d, d)) @ np.swapaxes(ops, -1, -2)
    return out.reshape(out.shape[:-2] + (d * d,))


def apply_local(a: np.ndarray, psi: BipartiteState) -> BipartiteState:
    """Act with ``a`` on Alice's side (identity on Bob's); no renormalization."""
    a = as_matrix(a)
    d = psi.d
    if a.shape != (d, d):
        raise ValueError(f"apply_local: operator shape {a.shape} does not match d={d}")
    return BipartiteState(d=d, coords=local_action(a, psi.coords))
