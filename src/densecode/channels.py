"""Quantum operations in operator-sum form, stacked over leading axes.

A channel is an ordered collection of d x d Kraus matrices acting on Alice's
side of the shared state.  Every operation here takes a stack of Kraus sets
``(..., n, d, d)``: ``apply_kraus`` applies them to joint densities,
``kraus_ranks`` and ``lifted_kraus`` count and lift them,
``dilation_unitaries`` and ``dilate`` build and apply the unitary dilation
onto an ancilla, ``orthogonalize_kraus_pairs`` rotates two-element pairs so
their lifted states become orthogonal, and ``containment_residuals`` checks
that measuring the ancilla only steers the joint state inside the support of
the channel output.  ``QuantumChannel`` holds its Kraus matrices as one
read-only ``(n, d, d)`` stack, so one channel is the one-item stack
``channel.kraus[None]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .linalg import (
    as_matrices,
    as_matrix,
    complete_to_unitaries,
    dagger,
    frozen,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    max_abs,
    numerical_ranks,
    random_unitaries,
)
from .states import local_action, pure_densities


def kraus_sums(kraus: np.ndarray) -> np.ndarray:
    """sum_r K_r^dag K_r for each Kraus set of a stack ``(..., n, d, d)``."""
    return (dagger(kraus) @ kraus).sum(axis=-3)


def validate_kraus(kraus: np.ndarray) -> None:
    """Refuse any Kraus set of a stack ``(..., n, d, d)`` whose sum K^dag K exceeds the identity."""
    top = hermitian_eigenvalues(kraus_sums(kraus))[..., 0]
    if np.any(top > 1.0 + tolerances.get().unitarity):
        raise ValueError(
            f"QuantumChannel: sum K^dag K exceeds the identity (top eigenvalue {top.max():g})"
        )


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Ordered Kraus matrices, one read-only ``(n, d, d)`` stack; trace-preserving or sub-normalized."""

    d: int
    kraus: np.ndarray

    def __post_init__(self) -> None:
        if len(self.kraus) == 0:
            raise ValueError("QuantumChannel: need at least one Kraus matrix")
        ops = [as_matrix(k) for k in self.kraus]
        for k in ops:
            if k.shape != (self.d, self.d):
                raise ValueError(f"QuantumChannel: Kraus shape {k.shape} != ({self.d}, {self.d})")
        object.__setattr__(self, "kraus", frozen(ops))
        validate_kraus(self.kraus)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action of Kraus sets ``(..., n, d, d)`` on joint densities ``(..., d*d, d*d)``.

    Computes sum (I x K) rho (I x K)^dag with each K on Alice's (fast)
    index, as two batched products over the Kraus axis: rho's rows are split
    as (Bob, Alice), and then its columns.  The leading axes of ``kraus``
    and ``rho`` must match.
    """
    tol = tolerances.get()
    rho = as_matrices(rho)
    n, d = kraus.shape[-3], kraus.shape[-1]
    if rho.shape[-2:] != (d * d, d * d):
        raise ValueError(f"apply_kraus: density operator shape {rho.shape[-2:]} != ({d*d}, {d*d})")
    if max_abs(rho - dagger(rho)) > tol.unitarity:
        raise ValueError("apply_kraus: density operator is not Hermitian")
    if np.any(np.trace(rho, axis1=-2, axis2=-1).real > 1.0 + tol.unitarity):
        raise ValueError("apply_kraus: density operator trace exceeds 1")
    batch = rho.shape[:-2]
    left = (kraus[..., :, None, :, :] @ rho.reshape(batch + (1, d, d, d * d))).reshape(
        batch + (n, d * d, d, d)
    )
    out = (left @ dagger(kraus)[..., :, None, :, :]).sum(axis=-4)
    return out.reshape(batch + (d * d, d * d))


def kraus_ranks(kraus: np.ndarray) -> np.ndarray:
    """Dimension of the span of each stacked Kraus set's vectorized matrices ``(..., n, d, d)``.

    Counted by ``linalg.numerical_ranks``.
    """
    if np.any(np.abs(kraus).max(axis=(-3, -2, -1)) == 0.0):
        raise ValueError("kraus_ranks: all-zero channel")
    return numerical_ranks(kraus.reshape(kraus.shape[:-2] + (-1,)))


def lifted_kraus(kraus: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Each Kraus matrix of a stack ``(..., n, d, d)`` applied locally to Schmidt states ``(..., d*d)``.

    For linearly independent Kraus matrices and a full-support Schmidt state
    the outputs are linearly independent, so their Gram rank equals the
    Kraus rank.  Returns ``(..., n, d*d)``.
    """
    d = kraus.shape[-1]
    amps = np.abs(coords[..., :: d + 1])  # the (j, j) coordinates
    if np.any(amps <= tolerances.get().equality):
        raise ValueError("lifted_kraus: zero Schmidt coefficient detected")
    return local_action(kraus, coords[..., None, :])


# ---------------------------------------------------------------------------
# Unitary dilation
# ---------------------------------------------------------------------------

def dilation_unitaries(kraus: np.ndarray, seeds) -> np.ndarray:
    """Dilation unitaries of trace-preserving Kraus sets ``(B, n, d, d)``, one seed each.

    Joint index convention (i, r) -> i*N + r, ancilla fastest.  Column (j, 0)
    holds entry K^(r)[i, j] at row (i, r); those d columns are orthonormal
    exactly when the channel is trace-preserving, and the remaining columns
    come from the seeded completion (``complete_to_unitaries``), one modified
    Gram-Schmidt run over the whole stack.  Returns ``(B, d*n, d*n)``.
    """
    tol = tolerances.get()
    defects = np.abs(kraus_sums(kraus) - np.eye(kraus.shape[-1])).max(axis=(-2, -1))
    if np.any(defects >= tol.unitarity):
        raise ValueError(
            f"dilation_unitary: channel is not trace-preserving (defect {defects.max():g})"
        )
    b, n_anc, d, _ = kraus.shape
    cols = kraus.transpose(0, 3, 2, 1).reshape(b, d, d * n_anc)  # column j, row (i, r)
    completed = complete_to_unitaries(cols, seeds)
    # Route completed column s*d + j to slot j*n_anc + s: the stacked columns
    # land on ancilla input 0, the completion fills the other ancilla inputs.
    u = np.empty_like(completed)
    u[..., np.arange(d * n_anc).reshape(d, n_anc).T.reshape(-1)] = completed
    return u


def dilation_unitary(channel: QuantumChannel, seed: int) -> np.ndarray:
    """Extend a trace-preserving channel to a unitary on qudit + N-level ancilla.

    The one-channel case of ``dilation_unitaries``, as a read-only
    ``(d*N, d*N)`` array; the ancilla dimension N is ``len(channel.kraus)``.
    """
    return frozen(dilation_unitaries(channel.kraus[None], [seed])[0])


def dilate(u: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Dilation unitaries ``(..., d*N, d*N)`` applied to states ``(..., d*d)`` x (ancilla level 0)."""
    d = math.isqrt(coords.shape[-1])
    n_anc = u.shape[-1] // d
    joint = np.zeros(coords.shape[:-1] + (d * d * n_anc,), dtype=complex)
    joint[..., 0::n_anc] = coords
    # The unitary touches Alice's index and the ancilla; Bob's index rides along.
    blocks = joint.reshape(coords.shape[:-1] + (d, d * n_anc))
    out = blocks @ np.swapaxes(u, -1, -2)
    return out.reshape(coords.shape[:-1] + (-1,))


def trace_out_ancilla_state(joint: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """Reduced joint-system density operator of pure (system x ancilla) vectors ``(..., s*N)``."""
    vec = np.asarray(joint, dtype=complex)
    r = vec.reshape(vec.shape[:-1] + (vec.shape[-1] // ancilla_dim, ancilla_dim))
    return r @ dagger(r)


# ---------------------------------------------------------------------------
# Orthogonalization of a two-element Kraus pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrthogonalizationResult:
    """2x2 unitary mixing a Kraus pair, with the root and angles that built it.

    Every field is an array over the stack of ``orthogonalize_kraus_pairs``.
    ``residual`` is the worse of the two roots' residuals in the
    orthogonality quadratic (``orthogonality_quadratics``), 0.0 where the
    pair was already orthogonal.  ``overlap`` is |<phi_0|phi_1>| of the
    mixed pair's lifted states, the value the final gate compares against
    the unitarity tolerance.
    """

    v: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    residual: np.ndarray
    overlap: np.ndarray


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> over the last axis of two stacks of vectors."""
    return np.einsum("...i,...i->...", a.conj(), b)


def orthogonality_quadratics(
    phi0: np.ndarray, phi1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both roots of the orthogonality quadratic for stacks of lifted states ``(..., n)``.

    The quadratic is a z^2 + b z + c = 0 with a = -<phi_1|phi_0>,
    b = <phi_0|phi_0> - <phi_1|phi_1> and c = <phi_0|phi_1>; its discriminant
    is real and positive.  Returns the roots ``(..., 2)``, their worst
    residual |a z^2 + b z + c| and a mask of the pairs that are already
    orthogonal (|c| below ``tolerances.ALREADY_ORTHOGONAL``), whose roots and
    residual are zero.
    """
    c = _inner(phi0, phi1)
    orthogonal = np.abs(c) < tolerances.ALREADY_ORTHOGONAL
    a = np.where(orthogonal, -1.0, -np.conj(c))
    b = _inner(phi0, phi0).real - _inner(phi1, phi1).real
    root_disc = np.sqrt(b * b - 4.0 * a * c)
    roots = np.stack(((-b + root_disc) / (2.0 * a), (-b - root_disc) / (2.0 * a)), axis=-1)
    roots[orthogonal] = 0.0
    residual = np.abs(a[..., None] * roots * roots + b[..., None] * roots + c[..., None]).max(axis=-1)
    return roots, np.where(orthogonal, 0.0, residual), orthogonal


def orthogonalize_kraus_pairs(
    pairs: np.ndarray, coords: np.ndarray
) -> tuple[OrthogonalizationResult, np.ndarray]:
    """Mix trace-preserving Kraus pairs ``(B, 2, d, d)`` so their lifted states on ``coords`` become orthogonal.

    Writing phi_a for the lifted states, the overlap of the mixed pair
    vanishes iff z = e^{i xi} tan(theta) solves

        -z^2 <phi_1|phi_0> + z (<phi_0|phi_0> - <phi_1|phi_1>) + <phi_0|phi_1> = 0.

    The root of smaller modulus is taken (tie: smaller principal argument);
    the two roots have reciprocal moduli, so the chosen rotation angle never
    exceeds pi/4 and the mixing matrix is well defined.  One overall phase is
    free and fixed to zero, making the output deterministic.  An already
    orthogonal pair is kept as it is.  Returns the mixing data (arrays over
    the stack, with the worst root residual of each quadratic and the
    overlap left in each mixed pair) and the replacement pairs
    ``(B, 2, d, d)``; each replacement channel acts identically to the
    original.
    """
    tol = tolerances.get()
    d = pairs.shape[-1]
    if np.any(numerical_ranks(pairs.reshape(pairs.shape[:-2] + (d * d,))) < 2):
        raise ValueError("orthogonalize_kraus_pairs: Kraus matrices are linearly dependent")
    tp_defect = max_abs(kraus_sums(pairs) - np.eye(d))
    if tp_defect > tol.unitarity:
        raise ValueError(
            f"orthogonalize_kraus_pairs: pair is not trace-preserving (defect {tp_defect:g})"
        )

    phi = local_action(pairs, coords[..., None, :])
    roots, residual, orthogonal = orthogonality_quadratics(phi[..., 0, :], phi[..., 1, :])
    if residual.max() > tol.quadratic:
        raise RuntimeError(f"orthogonalize_kraus_pairs: root residual {residual.max():g}")
    modulus, angle = np.abs(roots), np.arctan2(roots.imag, roots.real)
    second = (modulus[..., 1] < modulus[..., 0]) | (
        (modulus[..., 1] == modulus[..., 0]) & (angle[..., 1] < angle[..., 0])
    )
    z = np.where(second, roots[..., 1], roots[..., 0])

    theta = np.arctan(np.abs(z))
    xi = np.arctan2(z.imag, z.real)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    phase = np.exp(1j * xi)
    v = np.stack(
        (np.stack((cos_t, -np.conj(phase) * sin_t), -1), np.stack((phase * sin_t, cos_t), -1)), -2
    )
    v[orthogonal] = np.eye(2)
    k0, k1 = pairs[..., :1, :, :], pairs[..., 1:, :, :]
    mixed = v[..., :, 0, None, None] * k0 + v[..., :, 1, None, None] * k1
    mixed = np.where(orthogonal[..., None, None, None], pairs, mixed)
    lifted = local_action(mixed, coords[..., None, :])
    overlap = np.abs(_inner(lifted[..., 0, :], lifted[..., 1, :]))
    if overlap.max() > tol.unitarity:
        raise RuntimeError(f"orthogonalize_kraus_pairs: residual overlap {overlap.max():g}")
    result = OrthogonalizationResult(v=v, z=z, theta=theta, xi=xi, residual=residual, overlap=overlap)
    return result, mixed


# ---------------------------------------------------------------------------
# Ancilla measurement cannot steer outside the channel support
# ---------------------------------------------------------------------------

def support_projector(rho: np.ndarray) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above the support cutoff.

    ``rho`` may be a stack ``(..., n, n)``; the cutoff is the support
    tolerance times each matrix's trace.
    """
    tol = tolerances.get()
    w, v = hermitian_eigensystem(rho)
    trace = np.trace(np.asarray(rho), axis1=-2, axis2=-1).real
    cols = v * (w > tol.support * np.maximum(trace, 0.0)[..., None])[..., None, :]
    return cols @ dagger(cols)


def containment_residuals(
    kraus: np.ndarray, coords: np.ndarray, measurements: np.ndarray, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and out-of-support residuals of measuring the dilation ancilla.

    Stacked over channels: Kraus sets ``(B, n, d, d)``, states ``(B, d*d)``,
    ancilla measurements ``(B, m, n, n)`` and one dilation seed each.  Each
    channel is dilated with its seed, the dilation applied to the state, and
    each measurement operator applied to the ancilla.  For every outcome the
    reduced joint density operator is compared against the support projector
    of the plain channel output; the residual is the max-modulus mass
    outside that support (0.0 for an outcome of probability below the
    equality tolerance).  Returns two ``(B, m)`` arrays.
    """
    tol = tolerances.get()
    n_anc = kraus.shape[-3]
    if measurements.shape[-2:] != (n_anc, n_anc):
        raise ValueError("containment_residuals: measurement operator has wrong shape")
    if max_abs(kraus_sums(measurements) - np.eye(n_anc)) > tol.unitarity:
        raise ValueError("containment_residuals: incomplete measurement set")

    joint = dilate(dilation_unitaries(kraus, seeds), coords)
    proj = support_projector(apply_kraus(kraus, pure_densities(coords)))
    complement = (np.eye(proj.shape[-1]) - proj)[:, None]

    b, d2 = coords.shape
    post = joint.reshape(b, 1, d2, n_anc) @ np.swapaxes(measurements, -1, -2)
    rho = trace_out_ancilla_state(post.reshape(b, -1, d2 * n_anc), n_anc)
    prob = np.trace(rho, axis1=-2, axis2=-1).real
    seen = prob > tol.equality
    scaled = rho / np.where(seen, prob, 1.0)[..., None, None]
    residual = np.abs(complement @ scaled @ complement).max(axis=(-2, -1))
    return prob, np.where(seen, residual, 0.0)


def random_trace_preserving_kraus(d: int, n_kraus: int, seeds) -> np.ndarray:
    """Seeded random trace-preserving Kraus sets ``(len(seeds), n_kraus, d, d)``.

    Slices of a random dilation unitary: K_r[i, j] = u[i * n_kraus + r, j].
    """
    u = random_unitaries(d * n_kraus, seeds)
    return u[:, :, :d].reshape(-1, d, n_kraus, d).transpose(0, 2, 1, 3)
