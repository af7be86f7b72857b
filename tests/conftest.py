import numpy as np
import pytest

from densecode.linalg import as_matrix
from densecode.protocol import build_bundle, build_decoder, default_messages
from densecode.states import SchmidtSpectrum, basis_index, parse_spectrum

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
