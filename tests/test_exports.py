"""The names ``densecode`` exports.

Each channel, state and linalg operation has one stacked kernel in its
module; a one-item wrapper with no caller should not join the package
surface unnoticed.  Extending this list is a deliberate API change.
"""

import types

import densecode

EXPORTS = {
    "BipartiteState",
    "BundleError",
    "Decoder",
    "DistinguishabilityCertificate",
    "ImpossibilityReport",
    "OrthogonalizationResult",
    "ProtocolBundle",
    "QuantumChannel",
    "SchmidtSpectrum",
    "SimulationReport",
    "UnitaryMessageSet",
    "apply_local",
    "bob_distribution",
    "build_bundle",
    "build_decoder",
    "capacity_bound_check",
    "certify_distinguishable",
    "compute_R",
    "default_messages",
    "dilation_unitary",
    "encode_message",
    "make_schmidt_state",
    "p1_bound_general",
    "p1_equal_tail",
    "parse_spectrum",
    "search_message_set",
    "simulate",
    "two_kraus_column_identity",
    "uniform_spectrum",
    "uniformity_witness",
    "verify_necessary_identities",
    "weyl_set",
    "weyl_witness",
}


def test_package_exports_exactly_the_public_names():
    public = {
        name
        for name, value in vars(densecode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
