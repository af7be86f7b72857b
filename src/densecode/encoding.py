"""Unitary message sets and perfect-distinguishability certification.

A message set is distinguishable on a shared state when the lifted states
(one per encoding unitary) are orthonormal; the certificate records the
worst Gram defect.  The shift/clock family supplies the standard full-size
set for maximally entangled states, and a seeded numerical search looks for
sets at other spectra by Levenberg-Marquardt descent of the off-diagonal
Gram mass, giving up on a restart once it stops making progress.  A restart
starts from seeded matrix exponentials ``exp(i H)`` and moves each unitary
in its own local chart, ``U -> U exp(i H(s))``, whose Jacobian at s = 0 is
linear in the products ``U_i^H U_j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tolerances
from .linalg import as_matrix, dagger, frozen, max_abs, rng_from, unitarity_defect
from .serialize import SCHEMA, matrix_from_json, matrix_to_json
from .states import BipartiteState, SchmidtSpectrum, local_action, make_schmidt_state


@dataclass(frozen=True, eq=False)
class UnitaryMessageSet:
    """Message unitaries, held as one read-only ``(count, d, d)`` stack."""

    d: int
    unitaries: np.ndarray

    def __post_init__(self) -> None:
        ops = [as_matrix(u) for u in self.unitaries]
        if any(u.shape != (self.d, self.d) for u in ops):
            raise ValueError("UnitaryMessageSet: operator shape does not match d")
        stack = frozen(np.array(ops, dtype=complex).reshape(len(ops), self.d, self.d))
        defect = unitarity_defect(stack)
        if defect >= tolerances.get().unitarity:
            raise ValueError(f"UnitaryMessageSet: unitarity defect {defect:g}")
        object.__setattr__(self, "unitaries", stack)

    def __len__(self) -> int:
        return len(self.unitaries)


@dataclass(frozen=True)
class DistinguishabilityCertificate:
    """Worst deviation of the lifted-state Gram matrix from the identity."""

    gram_defect: float
    passed: bool


def lift_messages(messages: UnitaryMessageSet, psi: BipartiteState) -> np.ndarray:
    """Lifted message states ``(count, d*d)``: row k is U_k on Alice's side of ``psi``."""
    if messages.d != psi.d:
        raise ValueError(
            f"lift_messages: dimension mismatch (message set d={messages.d}, state d={psi.d})"
        )
    return local_action(messages.unitaries, psi.coords)


def certify_lifted(lifted: np.ndarray) -> DistinguishabilityCertificate:
    """Gram-test lifted message states (rows of ``lifted``) for orthonormality."""
    defect = max_abs(lifted.conj() @ lifted.T - np.eye(len(lifted)))
    return DistinguishabilityCertificate(
        gram_defect=float(defect), passed=bool(defect < tolerances.get().certificate)
    )


def certify_distinguishable(
    messages: UnitaryMessageSet, psi: BipartiteState
) -> DistinguishabilityCertificate:
    """Gram-test the lifted message states for orthonormality."""
    return certify_lifted(lift_messages(messages, psi))


def capacity_bound_check(spectrum: SchmidtSpectrum, count: int) -> bool:
    """Whether the largest coefficient admits ``count`` distinguishable messages."""
    if count < 1:
        raise ValueError("capacity_bound_check: count must be positive")
    return spectrum.lambdas[0] <= spectrum.d / count + tolerances.get().equality


def weyl_set(d: int) -> UnitaryMessageSet:
    """The d^2 shift/clock unitaries X^a Z^b, ordered I, X, ..., Z, XZ, ...

    X cycles the basis (X|j> = |j+1 mod d>), Z multiplies |j> by the j-th
    power of the primitive d-th root of unity; element n is X^(n mod d)
    Z^(n div d).  Elements are pairwise trace-orthogonal.
    """
    if d < 2:
        raise ValueError("weyl_set: dimension must be >= 2")
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for n in range(d * d):
        a, b = n % d, n // d
        ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return UnitaryMessageSet(d=d, unitaries=ops)


# ---------------------------------------------------------------------------
# Numerical search for message sets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle of n x n."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def hermitian_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrix from d^2 real parameters (diagonal, then re/im pairs).

    A ``(..., d^2)`` stack of parameter blocks gives a ``(..., d, d)`` stack.
    """
    theta = np.asarray(theta, dtype=float)
    rows, cols = _upper_pairs(d)
    h = np.zeros(theta.shape[:-1] + (d, d), dtype=complex)
    h[..., np.arange(d), np.arange(d)] = theta[..., :d]
    upper = theta[..., d::2] + 1j * theta[..., d + 1 :: 2]
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


@lru_cache(maxsize=None)
def _generator_basis(d: int) -> np.ndarray:
    """Read-only dH/dtheta as ``(d^2, d^2)``: row p is parameter p's Hermitian matrix, flattened."""
    basis = hermitian_from_params(np.eye(d * d), d).reshape(d * d, d * d)
    basis.setflags(write=False)
    return basis


def _generator_params(theta, d: int, count: int, caller: str) -> np.ndarray:
    """``theta`` as a float vector, refused unless it holds ``(count - 1) d^2`` parameters."""
    if count < 1:
        raise ValueError(f"{caller}: count must be positive")
    theta = np.asarray(theta, dtype=float)
    want = (count - 1) * d * d
    if theta.shape != (want,):
        raise ValueError(
            f"{caller}: theta must hold (count - 1) d^2 = {want} parameters, "
            f"got shape {theta.shape}"
        )
    return theta


def _exponentials(params: np.ndarray, d: int) -> np.ndarray:
    """``exp(i H)`` for every ``d^2``-parameter block of ``params``, by one stacked eigensolve.

    The generators are one product with the basis, whose entries 0, 1 and
    +-i make it exact: each H equals ``hermitian_from_params`` of its block
    entry for entry.  Returns ``(blocks, d, d)``.
    """
    h = np.reshape(params, (-1, d * d)) @ _generator_basis(d)
    w, q = np.linalg.eigh(h.reshape(-1, d, d))
    return (q * np.exp(1j * w)[:, None, :]) @ dagger(q)


def _messages_at(theta: np.ndarray, d: int, count: int) -> np.ndarray:
    """The pinned identity, then ``exp(i H_k)`` for each of the ``count - 1`` blocks of ``theta``."""
    us = np.empty((count, d, d), dtype=complex)
    us[0] = np.eye(d)
    us[1:] = _exponentials(theta, d)
    return us


def _pair_overlaps(spectrum: SchmidtSpectrum, us: np.ndarray) -> np.ndarray:
    """Lifted-state overlaps <U_i psi|U_j psi> = tr(U_i^H U_j Lambda) for pairs i < j, in row order."""
    weighted = (us * np.asarray(spectrum.lambdas)).reshape(len(us), -1)
    g = us.reshape(len(us), -1).conj() @ weighted.T
    return g[_upper_pairs(len(us))]


def _mass(overlaps: np.ndarray) -> float:
    """Sum of squared moduli of the pair overlaps: the Gram mass."""
    return float(overlaps.real @ overlaps.real + overlaps.imag @ overlaps.imag)


def gram_mass_objective(spectrum: SchmidtSpectrum, theta: np.ndarray, count: int) -> float:
    """Sum of squared off-diagonal lifted-state overlaps; zero at perfect distinguishability."""
    theta = _generator_params(theta, spectrum.d, count, "gram_mass_objective")
    return _mass(_pair_overlaps(spectrum, _messages_at(theta, spectrum.d, count)))


def gram_mass_gradient(spectrum: SchmidtSpectrum, theta: np.ndarray, count: int) -> np.ndarray:
    """Gradient of the objective, 2 Re(J^H o), in the local chart at ``exp(i H(theta))``.

    ``o`` holds the pair overlaps and ``J`` their Jacobian in the steps
    ``s`` of ``U_k -> U_k exp(i H(s_k))`` at s = 0 (see ``_pair_jacobian``).
    """
    theta = _generator_params(theta, spectrum.d, count, "gram_mass_gradient")
    us = _messages_at(theta, spectrum.d, count)
    return 2.0 * np.real(dagger(_pair_jacobian(spectrum, us)) @ _pair_overlaps(spectrum, us))


def _pair_jacobian(spectrum: SchmidtSpectrum, us: np.ndarray) -> np.ndarray:
    """Jacobian of the pair overlaps in the local chart at ``us``, one row per pair.

    Each free unitary moves as ``U_k -> U_k exp(i H(s_k))``, and the
    derivative is taken at s = 0, where ``U_k`` gains ``i U_k E_p`` along
    basis generator ``E_p``.  Overlap (i, j) is ``tr(Lambda M)`` with
    ``M = U_i^H U_j``, so it gains ``i tr(Lambda M E_p)`` from U_j and
    ``-i tr(E_p M Lambda)`` from U_i.  With ``E_p^T = conj(E_p)`` each is a
    flattened product with the conjugate basis ``B``: ``i vec(Lambda M) @
    conj(B)^T`` and ``-i vec(M Lambda) @ conj(B)^T``.  The pinned identity
    does not move.
    """
    count, d = len(us), spectrum.d
    n = d * d
    lam = np.asarray(spectrum.lambdas)
    i, j = _upper_pairs(count)
    m = dagger(us[i]) @ us[j]
    # U_j enters overlap (i, j) on the right, and U_i daggered on the left.
    sides = np.stack([1j * lam[:, None] * m, -1j * m * lam]).reshape(2, len(i), n)
    sides = sides @ _generator_basis(d).conj().T
    pairs = np.arange(len(i))
    jac = np.zeros((len(i), count - 1, n), dtype=complex)
    jac[pairs, j - 1] = sides[0]
    left = i >= 1  # the pinned identity has no step
    jac[pairs[left], i[left] - 1] = sides[1, left]
    return jac.reshape(len(i), (count - 1) * n)


_STALL_WINDOW = 30  # trial steps over which a restart must make progress
_STALL_DROP = 0.1  # the least fraction of the Gram mass it must shed over them
_MAX_STEPS = 400  # trial steps a restart may take in all
_TARGET_MASS = 1e-26  # the Gram mass at which a restart has converged


def _levenberg_marquardt(spectrum: SchmidtSpectrum, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt descent of the Gram mass from the unitaries ``us``.

    ``us[0]`` stays put; every other unitary takes local steps
    ``U_k -> U_k exp(-i H(s_k))``.  The mass is ``|r|^2`` for the stacked
    residual ``r = [Re o; Im o]`` of the pair overlaps, with Jacobian
    ``A = [Re J; Im J]`` at the current point.  ``A`` has no more rows than
    columns (count <= d^2), so each trial step solves the small dual
    system: ``s = A^T (A A^T + mu I)^-1 r``.  A step that lowers the mass
    is accepted and ``mu`` shrinks by Nielsen's rule
    ``max(1/3, 1 - (2 rho - 1)^3)``, ``rho`` being the achieved over the
    predicted drop; a rejected step multiplies ``mu`` by ``nu``, which then
    doubles.  The Jacobian is recomputed only after an accepted step, and
    the accepted candidate's overlaps are kept for it.  The loop stops at
    ``_TARGET_MASS``, once the mass has fallen by less than ``_STALL_DROP``
    of itself over the last ``_STALL_WINDOW`` trial steps (a restart stuck
    above zero, as when no set of ``count`` exists), or after
    ``_MAX_STEPS`` trial steps.  Returns the final unitaries and their
    pair overlaps.
    """
    d = spectrum.d
    overlaps = _pair_overlaps(spectrum, us)
    f = _mass(overlaps)
    history = [f]  # the mass after each trial step
    eye = np.eye(2 * len(overlaps))
    mu, nu, fresh = None, 2.0, True
    for _ in range(_MAX_STEPS):
        if f <= _TARGET_MASS:
            break
        if len(history) > _STALL_WINDOW and f > (1.0 - _STALL_DROP) * history[-_STALL_WINDOW - 1]:
            break
        if fresh:
            jac = _pair_jacobian(spectrum, us)
            system = np.vstack([jac.real, jac.imag])
            residual = np.concatenate([overlaps.real, overlaps.imag])
            normal = system @ system.T
            if mu is None:
                mu = 1e-3 * float(np.max(np.diag(normal)))
        dual = np.linalg.solve(normal + mu * eye, residual)
        step = system.T @ dual
        cand = np.concatenate([us[:1], us[1:] @ _exponentials(-step, d)])
        cand_overlaps = _pair_overlaps(spectrum, cand)
        f_cand = _mass(cand_overlaps)
        # The linear model's drop |r|^2 - |r - A s|^2, written as a sum of
        # non-negative terms: the difference form cancels to zero once mu
        # dominates A A^T.
        predicted = float(np.sum((normal @ dual) ** 2) + 2.0 * mu * (step @ step))
        fresh = f_cand < f
        if fresh:
            rho = (f - f_cand) / predicted
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            us, f, overlaps = cand, f_cand, cand_overlaps
        else:
            mu *= nu
            nu *= 2.0
        history.append(f)
    return us, overlaps


def search_message_set(
    spectrum: SchmidtSpectrum, count: int, seed: int, max_iters: int = 20
) -> UnitaryMessageSet | None:
    """Search for ``count`` unitaries whose lifted states are orthonormal.

    The first unitary is pinned to the identity (a free gauge).  Restart
    ``r`` starts the rest at ``exp(i H_k)`` for Hermitian generators drawn
    from ``rng_from(seed, r)`` and runs Levenberg-Marquardt on the
    off-diagonal Gram mass, stepping each unitary in its own local chart,
    until the mass is negligible or stops falling.  Returns the first
    certified set, or None once the ``max_iters`` restarts (at least one)
    are exhausted -- existence is not guaranteed away from the maximally
    entangled point, and ``d^2 - 1`` messages never exist there.
    """
    d = spectrum.d
    if count < 1 or count > d * d:
        raise ValueError("search_message_set: count must be between 1 and d^2")
    if max_iters < 1:
        raise ValueError("search_message_set: max_iters must be positive")
    if not capacity_bound_check(spectrum, count):
        raise ValueError("search_message_set: spectrum violates the capacity bound for count")
    if count == 1:
        return UnitaryMessageSet(d=d, unitaries=(np.eye(d, dtype=complex),))
    psi = make_schmidt_state(spectrum)
    n_params = (count - 1) * d * d
    for restart in range(max_iters):
        start = _messages_at(rng_from(seed, restart).standard_normal(n_params), d, count)
        us, _ = _levenberg_marquardt(spectrum, start)
        candidate = UnitaryMessageSet(d=d, unitaries=us)
        if certify_distinguishable(candidate, psi).passed:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def message_set_to_json(
    messages: UnitaryMessageSet,
    psi: BipartiteState,
    seed: int | None = None,
) -> dict:
    cert = certify_distinguishable(messages, psi)
    return {
        "schema": SCHEMA,
        "kind": "message-set",
        "d": messages.d,
        "count": len(messages),
        "unitaries": matrix_to_json(messages.unitaries),
        "certificate_defect": cert.gram_defect,
        "pass": cert.passed,
        "seed": seed,
    }


def message_set_from_json(doc: dict | str) -> UnitaryMessageSet:
    """The message set of a ``message-set`` document; a malformed field raises ``ValueError`` naming it."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("message_set_from_json: document is not a JSON object")
    if doc.get("kind") != "message-set":
        raise ValueError("message_set_from_json: not a message-set document")
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError("message_set_from_json: field 'd' is missing or not an integer")
    try:
        ops = tuple(matrix_from_json(rows) for rows in doc["unitaries"])
    except (KeyError, TypeError, ValueError, IndexError):
        raise ValueError(
            "message_set_from_json: field 'unitaries' is missing or not a list of matrices of [re, im] entries"
        ) from None
    return UnitaryMessageSet(d=d, unitaries=ops)
