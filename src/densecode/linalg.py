"""Dense complex matrix kernel for small dimensions.

Products, adjoints and Hermitian eigensystems defer to numpy (LAPACK) on
complex128 arrays (pairs of double-precision reals), and so do seeded random
unitaries (one QR of a complex-Gaussian draw).  Eigensystems, ranks, random
unitaries and the unitary completion work on stacks of matrices (leading
axes).  The one piece with bespoke numerics lives here: seeded unitary
completion by modified Gram-Schmidt, kept because protocol bundles print its
columns at full precision, run once over a whole stack of sets.  All
functions are pure; randomized ones take explicit seeds and are reproducible
bit for bit.  ``frozen`` makes the read-only copy that every value object of
the package holds in place of its caller's array.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import tolerances

_MASK64 = (1 << 64) - 1
# Draws a completion column may take before its redraw threshold counts as
# unreachable.  At the default threshold a redraw almost never happens, and
# even at 1.3 (more than half the draws of a set's last column rejected) a
# column that needs this many has odds below 1e-240.
_MAX_DRAWS = 1000


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator (Philox) for ``seed``, on a derived substream.

    Extra integers select independent substreams (restart index, trial
    index, ...) so concurrent consumers never share state.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def as_matrices(a) -> np.ndarray:
    """A matrix, or a stack of matrices ``(..., m, n)``, as a finite complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    m = as_matrices(a)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def as_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    return x


def frozen(a) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``: no later write, and no write to ``a``, reaches it."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(np.asarray(a), -1, -2).conj()


def max_abs(a) -> float:
    """Entrywise max-modulus norm."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def unitarity_defect(m: np.ndarray) -> float:
    """Max-modulus distance of m^dag m from the identity (the worst over a stack)."""
    m = as_matrices(m)
    return max_abs(dagger(m) @ m - np.eye(m.shape[-1]))


def _sweep(v: np.ndarray, rows: list, rows_conj: list, order) -> np.ndarray:
    """Modified Gram-Schmidt: sweep draws ``v (B, P, 1, n)`` against rows ``order``, in order.

    ``rows[i]`` is row i of each set as ``(B, 1, 1, n)`` and ``rows_conj[i]``
    its conjugate as a column ``(B, 1, n, 1)``.  Each overlap is one batched
    vector product, the same BLAS dot as ``np.vdot``, so every set's
    arithmetic is that of a one-set loop.
    """
    for i in order:
        v = v - (v @ rows_conj[i]) * rows[i]
    return v


def complete_to_unitaries(columns: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Extend each stacked set of orthonormal columns ``(B, k, n)`` to an ``n x n`` unitary.

    Set b's columns are reproduced bit-exactly as the leading columns of its
    unitary.  Missing columns are drawn from ``rng_from(seeds[b])`` as
    complex-Gaussian vectors and orthogonalized by modified Gram-Schmidt
    against everything before them, in two passes; a draw whose projected
    norm falls below the redraw threshold is discarded and the set's next
    draw is taken, up to ``_MAX_DRAWS`` draws per column.  The global phase
    of added columns is whatever the draw produces; only phase-invariant
    quantities should be compared.

    One Gram-Schmidt run covers the whole stack, and each set's result is
    bit for bit that of completing it alone: a set reads its stream in the
    same order, and each step is the same product for every set.  The first
    pass over the inputs does not depend on earlier draws, so it runs on all
    of a set's pending draws at once.  Returns ``(B, n, n)``.

    Raises
    ------
    ValueError : columns not finite, too many, or not orthonormal within
        tolerance; or a column whose ``_MAX_DRAWS`` draws all fall below the
        ``completion_redraw`` threshold.
    RuntimeError : a completed matrix misses unitarity.
    """
    tol = tolerances.get()
    # Contiguous rows: the Gram-Schmidt products below see the same memory
    # layout whatever the caller passed.
    cols = np.ascontiguousarray(columns, dtype=complex)
    if cols.ndim != 3 or len(cols) != len(seeds):
        raise ValueError("complete_to_unitary: columns must be a (B, k, n) stack, one seed per set")
    if not np.isfinite(cols).all():
        raise ValueError("complete_to_unitary: columns have non-finite entries")
    b, k, n = cols.shape
    if k > n:
        raise ValueError(f"complete_to_unitary: {k} columns exceed dimension {n}")
    if max_abs(cols.conj() @ np.swapaxes(cols, -1, -2) - np.eye(k)) > tol.unitarity:
        raise ValueError("complete_to_unitary: input columns are not orthonormal")

    basis = np.empty((b, n, n), dtype=complex)  # row j of set b is column j of its unitary
    basis[:, :k] = cols
    basis_conj = basis.conj()
    rows = [basis[:, None, i : i + 1] for i in range(n)]
    rows_conj = [basis_conj[:, None, i, :, None] for i in range(n)]
    rngs = [rng_from(seed) for seed in seeds]

    def drawn(count: int, sets) -> np.ndarray:
        # Real then imaginary part of each draw: the order of two
        # ``standard_normal(n)`` calls per column.
        g = np.array([rngs[t].standard_normal((count, 2, 1, n)) for t in sets])
        g = g.reshape(len(sets), count, 2, 1, n)
        return g[:, :, 0] + 1j * g[:, :, 1]

    # The first pass over the inputs, for every pending draw at once.
    pending = _sweep(drawn(n - k, range(b)), rows, rows_conj, range(k))
    for j in range(k, n):
        draws = np.ones(b, dtype=int)
        while True:
            # The rest of the first pass, then the second pass over everything.
            v = _sweep(pending[:, j - k, None], rows, rows_conj, (*range(k, j), *range(j)))
            re, im = v.real, v.imag
            norm = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))
            redraw = norm < tol.completion_redraw
            if not redraw.any():
                break
            draws += redraw.reshape(b)
            if draws.max() > _MAX_DRAWS:
                raise ValueError(
                    f"complete_to_unitary: {_MAX_DRAWS} draws for column {j} all fell below "
                    f"completion_redraw = {tol.completion_redraw:g}"
                )
            for t in np.flatnonzero(redraw):  # set t takes its next draw, and queues a fresh one
                own = [r[t : t + 1] for r in rows], [r[t : t + 1] for r in rows_conj]
                fresh = _sweep(drawn(1, [t]), *own, range(k))
                pending[t, j - k :] = np.concatenate((pending[t, j - k + 1 :], fresh[0]))
        np.divide(v, norm, out=rows[j])
        np.conjugate(basis[:, j], out=basis_conj[:, j])
    m = np.ascontiguousarray(np.swapaxes(basis, -1, -2))
    defect = unitarity_defect(m)
    if defect > tol.unitarity:
        raise RuntimeError(f"complete_to_unitary: completion defect {defect:g}")
    return m


def complete_to_unitary(columns: Sequence[np.ndarray] | np.ndarray, seed: int) -> np.ndarray:
    """Extend orthonormal columns (a sequence of vectors) to a square unitary matrix.

    The one-set case of ``complete_to_unitaries``, which makes every check.
    """
    return complete_to_unitaries(np.asarray(columns, dtype=complex)[None], [seed])[0]


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix, or of each in a stack.

    LAPACK (``np.linalg.eigh``) on the symmetrised input.  Returns ``(w, v)``
    with ``v`` unitary, columns ordered to match ``w``.
    """
    a = as_matrices(h)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("hermitian_eigensystem: matrix is not square")
    if max_abs(a - dagger(a)) > tolerances.get().unitarity:
        raise ValueError("hermitian_eigensystem: matrix is not Hermitian")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w[..., ::-1], v[..., ::-1]


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each in a stack, descending."""
    w, _ = hermitian_eigensystem(h)
    return w


def numerical_ranks(vectors: np.ndarray) -> np.ndarray:
    """Dimension of the span of each vector collection in a stack ``(..., count, n)``.

    The rows of the last two axes are one collection.  Gram eigenvalues at
    or below the ``rank`` tolerance times the largest count as zero.
    """
    v = as_matrices(vectors)
    eigs = hermitian_eigenvalues(v.conj() @ np.swapaxes(v, -1, -2))
    return np.sum(eigs > tolerances.get().rank * eigs[..., :1], axis=-1)


def random_unitaries(n: int, seeds: Sequence[int]) -> np.ndarray:
    """Seeded Haar-random unitaries, one per seed: phase-fixed Q factors of Ginibre draws.

    Column k of a draw is the same complex-Gaussian vector that the
    completion of an empty set, ``complete_to_unitaries(np.empty((1, 0, n)),
    [seed])``, draws for its column k; one stacked LAPACK QR replaces the
    Gram-Schmidt loop, and dividing the phases of R's diagonal out of Q makes
    that diagonal positive, as in Gram-Schmidt
    (Mezzadri, Notices AMS 54, 2007).  The two agree to rounding.  Returns
    ``(len(seeds), n, n)``.
    """
    draws = np.array([rng_from(seed).standard_normal((n, 2, n)) for seed in seeds])
    q, r = np.linalg.qr(np.swapaxes(draws[:, :, 0] + 1j * draws[:, :, 1], -1, -2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    defect = unitarity_defect(q)
    if not defect <= tolerances.get().unitarity:  # also refuses NaN from a zero pivot
        raise RuntimeError(f"random_unitaries: defect {defect:g}")
    return q
