import numpy as np
import pytest

from densecode.channels import QuantumChannel, random_trace_preserving_kraus
from densecode.linalg import as_matrix
from densecode.protocol import build_bundle, build_decoder, default_messages
from densecode.states import SchmidtSpectrum, parse_spectrum
from densecode.suites import spectrum_values

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
