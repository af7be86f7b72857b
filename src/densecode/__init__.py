"""Dense coding on a shared two-qudit state.

Library layout:

- ``linalg``: dense complex kernel (seeded unitary completion, stacked
  LAPACK Hermitian eigensystems, ranks and random unitaries)
- ``states``: Schmidt spectra, the shared state, local action
- ``channels``: stacked operator-sum kernels: application, dilation,
  Kraus-pair orthogonalization, ancilla-measurement support containment
- ``encoding``: unitary message sets, distinguishability certificates, the
  shift/clock basis, numerical message-set search
- ``protocol``: the extra-message construction, decoding, Monte-Carlo runs
- ``analysis``: defect-reporting checkers for the impossibility identities
- ``suites``: randomized verification suites (shared by CLI and tests)
- ``cli``: the ``densecode`` command
"""

from .analysis import (
    ImpossibilityReport,
    two_kraus_column_identity,
    uniformity_witness,
    verify_necessary_identities,
    weyl_witness,
)
from .channels import (
    OrthogonalizationResult,
    QuantumChannel,
    dilation_unitary,
)
from .encoding import (
    DistinguishabilityCertificate,
    UnitaryMessageSet,
    capacity_bound_check,
    certify_distinguishable,
    search_message_set,
    weyl_set,
)
from .protocol import (
    Decoder,
    ProtocolBundle,
    SimulationReport,
    BundleError,
    bob_distribution,
    build_bundle,
    build_decoder,
    compute_R,
    default_messages,
    encode_message,
    p1_bound_general,
    p1_equal_tail,
    simulate,
)
from .states import (
    BipartiteState,
    SchmidtSpectrum,
    apply_local,
    make_schmidt_state,
    parse_spectrum,
    uniform_spectrum,
)

__version__ = "0.1.0"
