"""Quantum operations in operator-sum form.

A channel is an ordered collection of d x d Kraus matrices acting on Alice's
side of the shared state.  Besides application and rank, this module builds
the unitary dilation onto an ancilla, rotates a two-element Kraus pair so its
lifted states become orthogonal, and checks that measuring the ancilla can
only steer the joint state inside the support of the channel output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from . import tolerances
from .linalg import (
    as_matrix,
    complete_to_unitary,
    dagger,
    hermitian_eigensystem,
    max_abs,
    numerical_rank,
    random_unitary,
)
from .states import BipartiteState, apply_local, basis_index


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Ordered Kraus matrices; may be trace-preserving or sub-normalized."""

    d: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        tol = tolerances.get()
        if not self.kraus:
            raise ValueError("QuantumChannel: need at least one Kraus matrix")
        ops = tuple(as_matrix(k).copy() for k in self.kraus)  # frozen below, not the caller's
        for k in ops:
            if k.shape != (self.d, self.d):
                raise ValueError(f"QuantumChannel: Kraus shape {k.shape} != ({self.d}, {self.d})")
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        top = hermitian_eigensystem(self._ksum())[0][0]
        if top > 1.0 + tol.unitarity:
            raise ValueError(f"QuantumChannel: sum K^dag K exceeds the identity (top eigenvalue {top:g})")

    def _ksum(self) -> np.ndarray:
        total = np.zeros((self.d, self.d), dtype=complex)
        for k in self.kraus:
            total += dagger(k) @ k
        return total

    def completeness_defect(self) -> float:
        """Max-modulus distance of sum K^dag K from the identity."""
        return max_abs(self._ksum() - np.eye(self.d))

    def is_trace_preserving(self) -> bool:
        return self.completeness_defect() < tolerances.get().unitarity


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action on a joint density operator, sum (I x K) rho (I x K)^dag.

    Each K acts on Alice's (fast) index, so the sum is two batched products
    over the stacked Kraus matrices: rho's rows are split as (Bob, Alice),
    and then its columns.
    """
    tol = tolerances.get()
    rho = as_matrix(rho)
    d = channel.d
    if rho.shape != (d * d, d * d):
        raise ValueError(f"apply_channel: density operator shape {rho.shape} != ({d*d}, {d*d})")
    if max_abs(rho - dagger(rho)) > tol.unitarity:
        raise ValueError("apply_channel: density operator is not Hermitian")
    if float(np.trace(rho).real) > 1.0 + tol.unitarity:
        raise ValueError("apply_channel: density operator trace exceeds 1")
    ks = np.stack(channel.kraus)
    left = (ks[:, None] @ rho.reshape(d, d, d * d)).reshape(len(ks), d * d, d, d)
    return (left @ dagger(ks)[:, None]).sum(0).reshape(d * d, d * d)


def kraus_rank(channel: QuantumChannel) -> int:
    """Dimension of the span of the vectorized Kraus matrices.

    Counted by ``linalg.numerical_rank``.
    """
    if all(max_abs(k) == 0.0 for k in channel.kraus):
        raise ValueError("kraus_rank: all-zero channel")
    return numerical_rank([k.reshape(-1) for k in channel.kraus])


def lifted_kraus_states(channel: QuantumChannel, psi: BipartiteState) -> list[BipartiteState]:
    """Each Kraus matrix applied locally to the shared state.

    For linearly independent Kraus matrices and a full-support Schmidt state
    the outputs are linearly independent, so their Gram rank equals the
    channel's Kraus rank.
    """
    d = channel.d
    if psi.d != d:
        raise ValueError("lifted_kraus_states: state dimension mismatch")
    amps = [abs(psi.coords[basis_index(j, j, d)]) for j in range(d)]
    if min(amps) <= tolerances.get().equality:
        raise ValueError("lifted_kraus_states: zero Schmidt coefficient detected")
    return [apply_local(k, psi) for k in channel.kraus]


# ---------------------------------------------------------------------------
# Unitary dilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DilationResult:
    """Unitary on (qudit x ancilla) whose ancilla-0 column block stacks the Kraus matrices."""

    u_tilde: np.ndarray
    ancilla_dim: int

    def __post_init__(self) -> None:
        u = as_matrix(self.u_tilde).copy()
        u.setflags(write=False)
        object.__setattr__(self, "u_tilde", u)


def dilation_unitary(channel: QuantumChannel, seed: int) -> DilationResult:
    """Extend a trace-preserving channel to a unitary on qudit + N-level ancilla.

    Joint index convention (i, r) -> i*N + r, ancilla fastest.  Column (j, 0)
    holds entry K^(r)[i, j] at row (i, r); those d columns are orthonormal
    exactly when the channel is trace-preserving, and the remaining columns
    come from the seeded completion.
    """
    tol = tolerances.get()
    defect = channel.completeness_defect()
    if defect >= tol.unitarity:
        raise ValueError(f"dilation_unitary: channel is not trace-preserving (defect {defect:g})")
    d = channel.d
    n_anc = len(channel.kraus)
    cols = np.stack(channel.kraus, axis=1).reshape(d * n_anc, d)
    completed = complete_to_unitary(cols.T, seed)
    # Route completed column s*d + j to slot j*n_anc + s: the stacked columns
    # land on ancilla input 0, the completion fills the other ancilla inputs.
    u = np.empty_like(completed)
    u[:, np.arange(d * n_anc).reshape(d, n_anc).T.reshape(-1)] = completed
    return DilationResult(u_tilde=u, ancilla_dim=n_anc)


def dilated_state(channel: QuantumChannel, psi: BipartiteState) -> np.ndarray:
    """Joint (system x ancilla) vector: each lifted Kraus branch tagged by an ancilla level.

    Flat index = (joint two-qudit index) * N + ancilla level.
    """
    branches = [apply_local(k, psi).coords for k in channel.kraus]
    n_anc = len(branches)
    out = np.zeros(psi.d * psi.d * n_anc, dtype=complex)
    for r, branch in enumerate(branches):
        out[r::n_anc] = branch
    return out


def apply_dilation(dilation: DilationResult, psi: BipartiteState) -> np.ndarray:
    """Apply the dilation unitary to (shared state) x (ancilla in level 0)."""
    d = psi.d
    n_anc = dilation.ancilla_dim
    joint = np.zeros(d * d * n_anc, dtype=complex)
    joint[0::n_anc] = psi.coords
    # The unitary touches Alice's index and the ancilla; Bob's index rides along.
    blocks = joint.reshape(d, d * n_anc)
    return (blocks @ dilation.u_tilde.T).reshape(-1)


def trace_out_ancilla_state(joint: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """Reduced joint-system density operator of a pure (system x ancilla) vector."""
    vec = np.asarray(joint, dtype=complex).reshape(-1)
    sys_dim = vec.size // ancilla_dim
    r = vec.reshape(sys_dim, ancilla_dim)
    return r @ dagger(r)


# ---------------------------------------------------------------------------
# Orthogonalization of a two-element Kraus pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrthogonalizationResult:
    """2x2 unitary mixing a Kraus pair, with the root and angles that built it.

    ``residual`` is the worse of the two roots' residuals in the
    orthogonality quadratic (``orthogonality_roots``), 0.0 when the pair
    was already orthogonal.
    """

    v: np.ndarray
    z: complex
    theta: float
    xi: float
    residual: float


def orthogonality_roots(
    phi0: np.ndarray, phi1: np.ndarray
) -> tuple[tuple[complex, complex], float] | None:
    """Both roots of the orthogonality quadratic for lifted states ``phi0``, ``phi1``.

    The quadratic is a z^2 + b z + c = 0 with a = -<phi_1|phi_0>,
    b = <phi_0|phi_0> - <phi_1|phi_1> and c = <phi_0|phi_1>; its discriminant
    is real and positive.  Returns the roots and their worst residual
    |a z^2 + b z + c|, or None when the states are already orthogonal.
    """
    c = complex(np.vdot(phi0, phi1))
    if abs(c) < 1e-13:
        return None
    a = -np.conj(c)
    b = float(np.vdot(phi0, phi0).real - np.vdot(phi1, phi1).real)
    root_disc = np.sqrt(complex(b * b - 4.0 * a * c))
    roots = ((-b + root_disc) / (2.0 * a), (-b - root_disc) / (2.0 * a))
    return roots, max(abs(a * z * z + b * z + c) for z in roots)


def orthogonalize_kraus_pair(
    k0: np.ndarray, k1: np.ndarray, psi: BipartiteState
) -> tuple[OrthogonalizationResult, np.ndarray, np.ndarray]:
    """Mix a trace-preserving Kraus pair so the lifted states become orthogonal.

    Writing phi_a for the lifted states, the overlap of the mixed pair
    vanishes iff z = e^{i xi} tan(theta) solves

        -z^2 <phi_1|phi_0> + z (<phi_0|phi_0> - <phi_1|phi_1>) + <phi_0|phi_1> = 0.

    The root of smaller modulus is taken (tie: smaller principal argument);
    the two roots have reciprocal moduli, so the chosen rotation angle never
    exceeds pi/4 and the mixing matrix is well defined.  One overall phase is
    free and fixed to zero, making the output deterministic.  Returns the
    mixing data (with the worst root residual of the quadratic) plus the two
    replacement Kraus matrices; the replacement channel acts identically to
    the original.
    """
    tol = tolerances.get()
    k0 = as_matrix(k0)
    k1 = as_matrix(k1)
    d = psi.d
    if k0.shape != (d, d) or k1.shape != (d, d):
        raise ValueError("orthogonalize_kraus_pair: operator shapes do not match d")
    if numerical_rank([k0.reshape(-1), k1.reshape(-1)]) < 2:
        raise ValueError("orthogonalize_kraus_pair: Kraus matrices are linearly dependent")
    tp_defect = max_abs(dagger(k0) @ k0 + dagger(k1) @ k1 - np.eye(d))
    if tp_defect > tol.unitarity:
        raise ValueError(
            f"orthogonalize_kraus_pair: pair is not trace-preserving (defect {tp_defect:g})"
        )

    quadratic = orthogonality_roots(apply_local(k0, psi).coords, apply_local(k1, psi).coords)
    if quadratic is None:
        v = np.eye(2, dtype=complex)
        result = OrthogonalizationResult(v=v, z=0.0 + 0.0j, theta=0.0, xi=0.0, residual=0.0)
        return result, k0.copy(), k1.copy()
    roots, residual = quadratic
    if residual > tol.quadratic:
        raise RuntimeError(f"orthogonalize_kraus_pair: root residual {residual:g}")
    z = min(roots, key=lambda r: (abs(r), math.atan2(r.imag, r.real)))

    theta = math.atan(abs(z))
    xi = math.atan2(z.imag, z.real)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    phase = complex(np.exp(1j * xi))
    v = np.array(
        [[cos_t, -np.conj(phase) * sin_t], [phase * sin_t, cos_t]], dtype=complex
    )
    r0 = v[0, 0] * k0 + v[0, 1] * k1
    r1 = v[1, 0] * k0 + v[1, 1] * k1
    mixed_overlap = abs(np.vdot(apply_local(r0, psi).coords, apply_local(r1, psi).coords))
    if mixed_overlap > tol.unitarity:
        raise RuntimeError(f"orthogonalize_kraus_pair: residual overlap {mixed_overlap:g}")
    result = OrthogonalizationResult(v=v, z=complex(z), theta=theta, xi=xi, residual=residual)
    return result, r0, r1


# ---------------------------------------------------------------------------
# Ancilla measurement cannot steer outside the channel support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainmentOutcome:
    outcome: int
    probability: float
    residual: float


@dataclass(frozen=True)
class SupportContainmentReport:
    outcomes: tuple[ContainmentOutcome, ...]
    max_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "outcomes": [
                {"outcome": o.outcome, "probability": o.probability, "residual": o.residual}
                for o in self.outcomes
            ],
            "max_residual": self.max_residual,
            "pass": self.passed,
        }


def support_projector(rho: np.ndarray) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above the support cutoff."""
    tol = tolerances.get()
    w, v = hermitian_eigensystem(rho)
    cutoff = tol.support * max(float(np.trace(np.asarray(rho)).real), 0.0)
    cols = v[:, w > cutoff]
    return cols @ dagger(cols)


def support_containment_check(
    channel: QuantumChannel,
    psi: BipartiteState,
    measurement: Sequence[np.ndarray],
    seed: int,
) -> SupportContainmentReport:
    """Verify that measuring the ancilla keeps the joint state inside the channel support.

    The channel is dilated with the given seed, the dilation applied to the
    shared state, and each measurement operator applied to the ancilla.  For
    every outcome the reduced joint density operator is compared against the
    support projector of the plain channel output; the residual is the
    max-modulus mass outside that support.
    """
    tol = tolerances.get()
    n_anc = len(channel.kraus)
    ops = [as_matrix(m) for m in measurement]
    if not ops:
        raise ValueError("support_containment_check: empty measurement set")
    for m in ops:
        if m.shape != (n_anc, n_anc):
            raise ValueError("support_containment_check: measurement operator has wrong shape")
    total = sum(dagger(m) @ m for m in ops)
    if max_abs(total - np.eye(n_anc)) > tol.unitarity:
        raise ValueError("support_containment_check: incomplete measurement set")

    dilation = dilation_unitary(channel, seed)
    joint = apply_dilation(dilation, psi)
    sigma = apply_channel(channel, psi.density())
    proj = support_projector(sigma)
    complement = np.eye(proj.shape[0]) - proj

    d2 = psi.d * psi.d
    outcomes = []
    for y, m in enumerate(ops):
        post = (joint.reshape(d2, n_anc) @ m.T).reshape(-1)
        rho_y = trace_out_ancilla_state(post, n_anc)
        prob = float(np.trace(rho_y).real)
        if prob > tol.equality:
            residual = max_abs(complement @ (rho_y / prob) @ complement)
        else:
            residual = 0.0
        outcomes.append(ContainmentOutcome(outcome=y, probability=prob, residual=residual))
    max_residual = max(o.residual for o in outcomes)
    return SupportContainmentReport(
        outcomes=tuple(outcomes),
        max_residual=max_residual,
        passed=max_residual < tol.containment,
    )


def random_trace_preserving_channel(d: int, n_kraus: int, seed: int) -> QuantumChannel:
    """Seeded random trace-preserving channel (slices of a random dilation unitary)."""
    # K_r[i, j] = u[i * n_kraus + r, j]
    slices = random_unitary(d * n_kraus, seed)[:, :d].reshape(d, n_kraus, d)
    return QuantumChannel(d=d, kraus=tuple(slices[:, r, :] for r in range(n_kraus)))
