import numpy as np
import pytest

from densecode import protocol, tolerances
from densecode.channels import QuantumChannel, random_trace_preserving_kraus, trace_out_ancilla_state
from densecode.linalg import as_matrix, rng_from
from densecode.protocol import (
    SIM_CHUNK,
    VARIANT_MEASURE,
    build_bundle,
    build_decoder,
    default_messages,
    normalize_variant,
)
from densecode.states import SchmidtSpectrum, parse_spectrum
from densecode.suites import Config

SEED = 0x5EED_D0DE

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

# The worked two-qubit instance: completed unitary, Kraus triple, spectrum.
_S395 = np.sqrt(395.0) / 40
_S5 = 9 * np.sqrt(5.0) / 40
_S10 = 9 * np.sqrt(10.0) / 40
_S790 = np.sqrt(790.0) / 40
EXAMPLE_M = np.array(
    [
        [_S10, 0, _S395, _S395],
        [0, _S10, _S395, -_S395],
        [0, _S790, -_S5, _S5],
        [_S790, 0, -_S5, -_S5],
    ],
    dtype=complex,
)
EXAMPLE_T = np.array([[79 / 162, -0.5], [79 / 162, -0.5]], dtype=complex)
EXAMPLE_Y = np.array([[79 / 162, 0.5], [-79 / 162, -0.5]], dtype=complex)
EXAMPLE_C = np.diag([np.sqrt(320 / 6561), 0.0]).astype(complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product oracle; entry ((i*p+k), (j*q+l)) is a[i,j] * b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def basis_index(i: int, j: int, d: int) -> int:
    """Flat coordinate index of |ij> in the d-groups-of-d ordering (Bob's index j selects the group)."""
    return j * d + i


def complete_to_unitary_loop(
    columns, seed: int, *, dim: int | None = None, rejected: list | None = None
) -> np.ndarray:
    """Modified Gram-Schmidt completion of one set of orthonormal columns, one draw at a time.

    The per-set loop that ``complete_to_unitaries`` must match bit for bit:
    each missing column is a fresh complex Gaussian from ``rng_from(seed)``
    (real part, then imaginary part), swept twice against every earlier
    column with ``np.vdot`` and normalized with ``np.linalg.norm``; a draw
    whose norm falls below the redraw threshold is discarded (its norm is
    appended to ``rejected``).
    """
    tol = tolerances.get()
    cols = np.ascontiguousarray(columns, dtype=complex)
    n = cols.shape[-1] if dim is None else int(dim)
    basis = list(cols.reshape(-1, n))
    rng = rng_from(seed)
    while len(basis) < n:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(2):
            for u in basis:
                v = v - np.vdot(u, v) * u
        norm = float(np.linalg.norm(v))
        if norm < tol.completion_redraw:
            if rejected is not None:
                rejected.append(norm)
            continue
        basis.append(v / norm)
    return np.column_stack(basis)


def bob_distribution_loop(decoder, encoded) -> np.ndarray:
    """Per-projector reference for ``protocol.bob_distribution``: one trace per projector."""
    if encoded.ancilla_dim == 1:
        rho = np.outer(encoded.state, encoded.state.conj())
    else:
        rho = trace_out_ancilla_state(encoded.state, encoded.ancilla_dim)
    probs = np.array([float(np.trace(p @ rho).real) for p in decoder.projectors])
    probs = np.clip(probs, 0.0, None)
    residual = max(0.0, 1.0 - float(probs.sum()))
    return np.append(probs, residual)


def simulate_counting_loop(bundle, decoder, message, trials, variant, seed) -> dict[str, int]:
    """Histogram of ``protocol.simulate`` with every chunk drawn and every threshold counted.

    The chunked loop ``simulate`` must match count for count: chunk ``k``
    draws its trial uniforms from ``rng_from(seed, k)``, then, for the
    measured final message, one abort uniform per trial whatever p1 is;
    aborted trials are pushed past every threshold, and each outcome's count
    is the difference of the counts under consecutive cumulative thresholds.
    """
    variant = normalize_variant(variant)
    measured = message == len(bundle.messages) and variant == VARIANT_MEASURE
    cum = np.cumsum(protocol.bob_distribution(decoder, protocol._delivered(bundle, message, variant)))
    thresholds = cum[: decoder.n_outcomes]
    below = [0] * len(thresholds)
    aborted = 0
    for chunk, start in enumerate(range(0, trials, SIM_CHUNK)):
        n = min(SIM_CHUNK, trials - start)
        rng = rng_from(seed, chunk)
        u = rng.random(n)
        if measured:
            abort = rng.random(n) < bundle.p1
            aborted += np.count_nonzero(abort)
            u[abort] = np.inf
        below = [b + np.count_nonzero(u < c) for b, c in zip(below, thresholds)]
    counts = {str(j): int(hi - lo) for j, (lo, hi) in enumerate(zip([0, *below], below))}
    counts["aborted"] = int(aborted)
    counts["undetected"] = int(trials - aborted - below[-1])
    return counts


def hermitian_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrix from d^2 real parameters (diagonal, then re/im pairs), by fancy-indexed fill.

    The reference for ``encoding._generator_basis``.  A ``(..., d^2)`` stack
    of parameter blocks gives a ``(..., d, d)`` stack.
    """
    theta = np.asarray(theta, dtype=float)
    rows, cols = np.triu_indices(d, 1)
    h = np.zeros(theta.shape[:-1] + (d, d), dtype=complex)
    h[..., np.arange(d), np.arange(d)] = theta[..., :d]
    upper = theta[..., d::2] + 1j * theta[..., d + 1 :: 2]
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


def spectrum_values(d: int, rng: np.random.Generator, floor: float = 0.05) -> np.ndarray:
    """Random full-support spectrum values (floored uniforms, normalized, descending)."""
    raw = rng.random(d) + floor
    return -np.sort(-(raw / raw.sum()))


def ginibre(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Complex-Gaussian draw: a real ``shape`` draw, then an imaginary one."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw_dilation_loop(seed: int, configs: int) -> list[Config]:
    """Reference for ``suites.draw_dilation``: configuration k from ``rng_from(seed, k)``, draw by draw."""
    out = []
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 4))
        n_kraus = int(rng.integers(2, 4))
        out.append(Config(k, d, n_kraus, spectrum_values(d, rng)))
    return out


def draw_orthogonalize_loop(seed: int, configs: int) -> list[Config]:
    """Reference for ``suites.draw_orthogonalize``."""
    dims = (2, 3, 4)
    out = []
    for k in range(configs):
        rng = rng_from(seed, k)
        d = dims[k % len(dims)]
        lam = spectrum_values(d, rng)
        out.append(Config(k, d, 2, lam, gauss=ginibre((d * d, d * d), rng)))
    return out


def draw_independence_loop(seed: int, configs: int) -> list[Config]:
    """Reference for ``suites.draw_independence``."""
    out = []
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 5))
        size = int(rng.integers(2, 5))
        gauss = np.stack([ginibre((d, d), rng) for _ in range(size)])
        out.append(Config(k, d, size, spectrum_values(d, rng), gauss=gauss))
    return out


def draw_containment_loop(seed: int, configs: int) -> list[Config]:
    """Reference for ``suites.draw_containment``."""
    out = []
    for k in range(configs):
        rng = rng_from(seed, k)
        lam = spectrum_values(2, rng)
        out.append(Config(k, 2, 3, lam, outcomes=int(rng.integers(2, 4))))
    return out


def random_spectrum(d: int, rng: np.random.Generator, floor: float = 0.05) -> SchmidtSpectrum:
    """Random full-support spectrum (floored uniforms, normalized, sorted)."""
    return SchmidtSpectrum.from_values(spectrum_values(d, rng, floor))


def random_channel(d: int, n_kraus: int, seed: int) -> QuantumChannel:
    """One seeded random trace-preserving channel: a one-item stack of ``random_trace_preserving_kraus``."""
    return QuantumChannel(d=d, kraus=tuple(random_trace_preserving_kraus(d, n_kraus, [seed])[0]))


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace g g^dag of one complex-Ginibre draw g ``(n, n)``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def spectrum_of(state) -> SchmidtSpectrum:
    """Read a spectrum back off a Schmidt-diagonal state (squared amplitudes at (j, j))."""
    d = state.d
    lam = [abs(state.coords[basis_index(j, j, d)]) ** 2 for j in range(d)]
    return SchmidtSpectrum.from_values(lam)


@pytest.fixture(scope="session")
def example_spectrum():
    return parse_spectrum("81/160,79/160")


@pytest.fixture(scope="session")
def example_bundle(example_spectrum):
    return build_bundle(example_spectrum, default_messages(2), seed=SEED)


@pytest.fixture(scope="session")
def example_decoder(example_bundle):
    return build_decoder(example_bundle)
