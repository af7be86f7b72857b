"""Dense coding on a shared two-qudit state.

Library layout:

- ``linalg``: dense complex kernel (Kronecker/Gram products, seeded unitary
  completion, cyclic Jacobi eigensolver, diagonal square roots)
- ``states``: Schmidt spectra, the shared state, local action, partial trace
- ``channels``: operator-sum channels, dilation, Kraus-pair orthogonalization,
  ancilla-measurement support containment
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
    DilationResult,
    OrthogonalizationResult,
    QuantumChannel,
    SupportContainmentReport,
    apply_channel,
    apply_dilation,
    dilated_state,
    dilation_unitary,
    kraus_rank,
    lifted_kraus_states,
    orthogonalize_kraus_pair,
    random_trace_preserving_channel,
    support_containment_check,
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
    abort_probability,
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
    partial_trace_ancilla,
    uniform_spectrum,
)

__version__ = "0.1.0"
