"""End-to-end dense-coding construction and simulation.

Given a spectrum admitting d^2 - 2 distinguishable unitary messages, the
lifted message coordinates are completed to a square unitary whose two added
columns define the Kraus pair (T, Y); the diagonal remainder C closes the
Kraus condition T'T + Y'Y + C'C = I.  The sender encodes the final message by
dilating (T, Y, C) onto a three-level ancilla; measuring the ancilla either
leaves the two good branches (probability 1 - p1) or aborts.  The receiver
decodes with rank-1 projectors onto the unitary messages plus one rank-2
projector onto the (T, Y) branch plane, and never confuses two messages.

All derived quantities are validated eagerly at construction: each bundle
invariant is a checkable equation of the construction, and silent drift
would invalidate everything downstream.  For the same reason every array a
bundle or decoder holds is a read-only copy (``linalg.frozen``): a write to
it raises instead of changing later decodes or the emitted JSON.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .channels import QuantumChannel, dilation_unitary, trace_out_ancilla_state
from .encoding import UnitaryMessageSet, certify_lifted, lift_messages, weyl_set
from .linalg import complete_to_unitary, dagger, frozen, max_abs, rng_from, unitarity_defect
from .serialize import SCHEMA, matrix_to_json, sig15
from .states import SchmidtSpectrum, local_action, make_schmidt_state

VARIANT_MEASURE = "with-ancilla-measurement"
VARIANT_NO_MEASURE = "without-ancilla-measurement"

_VARIANT_ALIASES = {
    "measure": VARIANT_MEASURE,
    "no-measure": VARIANT_NO_MEASURE,
    VARIANT_MEASURE: VARIANT_MEASURE,
    VARIANT_NO_MEASURE: VARIANT_NO_MEASURE,
}


def normalize_variant(variant: str) -> str:
    try:
        return _VARIANT_ALIASES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


class BundleError(ValueError):
    """A protocol invariant failed; carries the offending defects by name."""

    def __init__(self, message: str, defects: dict[str, float] | None = None):
        super().__init__(message)
        self.defects = defects or {}


def compute_R(spectrum: SchmidtSpectrum) -> np.ndarray:
    """The positive slack d - (d^2 - 2) * lambda_j, nondecreasing in j.

    Requires the largest coefficient strictly below d / (d^2 - 2); beyond
    that the construction has no room for the extra message.
    """
    d = spectrum.d
    bound = d / (d * d - 2)
    if spectrum.lambdas[0] >= bound - tolerances.get().equality:
        raise BundleError(
            f"spectrum too skewed: lambda0={spectrum.lambdas[0]:.12g} >= d/(d^2-2)={bound:.12g}"
        )
    return d - (d * d - 2) * np.asarray(spectrum.lambdas)


def gamma_from_spectrum(spectrum: SchmidtSpectrum) -> np.ndarray:
    """Closed-form diagonal of C'C: d(lambda_j - lambda_min) / (lambda_j * R_min)."""
    lam = np.asarray(spectrum.lambdas)
    r = compute_R(spectrum)
    return spectrum.d * (lam - lam[-1]) / (lam * r[-1])


def default_messages(d: int) -> UnitaryMessageSet | None:
    """Built-in message set: identity and shift at d=2 (valid for every spectrum)."""
    if d == 2:
        return UnitaryMessageSet(d=2, unitaries=weyl_set(2).unitaries[:2])
    return None


@dataclass(frozen=True, eq=False)
class ProtocolBundle:
    """The validated construction for one spectrum; every array field is read-only."""

    spectrum: SchmidtSpectrum
    messages: UnitaryMessageSet
    m: np.ndarray                     # d^2 x d^2 completed unitary; columns -2, -1 give T, Y
    t: np.ndarray
    y: np.ndarray
    c: np.ndarray
    gamma: np.ndarray                 # diagonal of C'C
    r: np.ndarray                     # slack profile from compute_R
    p1: float                         # final-message abort probability
    p_t: float
    p_y: float
    lifted: np.ndarray                # (d^2 - 2) x d^2: U_k applied to the shared state
    branches: np.ndarray              # 3 x d^2: T, Y and C applied to the shared state
    dilation: np.ndarray              # 3d x 3d unitary dilating (T, Y, C) onto the ancilla
    seed: int
    defects: dict[str, float] = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.spectrum.d

    @property
    def n_messages(self) -> int:
        """Total message count: the unitary ones plus the channel-encoded one."""
        return len(self.messages) + 1

    def channel(self) -> QuantumChannel:
        return QuantumChannel(d=self.d, kraus=(self.t, self.y, self.c))


def build_bundle(
    spectrum: SchmidtSpectrum, messages: UnitaryMessageSet, seed: int
) -> ProtocolBundle:
    """Construct and validate the full protocol data for one spectrum.

    Raises BundleError naming the first failing invariant.  The derived
    scalars (gamma, p1, p_t, p_y) depend only on the spectrum; the matrices
    M, T, Y depend on the seeded completion as well.
    """
    tol = tolerances.get()
    d = spectrum.d
    if messages.d != d:
        raise BundleError("message set dimension does not match spectrum")
    if len(messages) != d * d - 2:
        raise BundleError(f"need exactly d^2-2 = {d*d-2} messages, got {len(messages)}")

    psi = make_schmidt_state(spectrum)
    lifted = frozen(lift_messages(messages, psi))
    cert = certify_lifted(lifted)
    if not cert.passed:
        raise BundleError(
            f"distinguishability certificate fails (defect {cert.gram_defect:g})",
            {"certificate": cert.gram_defect},
        )
    if cert.gram_defect > tol.unitarity:  # the completion's orthonormality gate
        raise BundleError(
            f"certified set is not orthonormal to the {tol.unitarity:g} gate (defect {cert.gram_defect:g})",
            {"certificate": cert.gram_defect},
        )
    r = compute_R(spectrum)
    lam = np.asarray(spectrum.lambdas)

    m = frozen(complete_to_unitary(lifted, seed))

    # Column entries regrouped by Bob's index give the d x d matrices.
    coef = np.sqrt(lam[-1]) / (np.sqrt(lam) * np.sqrt(r[-1]))
    t = m[:, -2].reshape(d, d).T * coef[None, :]
    y = m[:, -1].reshape(d, d).T * coef[None, :]

    # C'C is the remainder, which must be a positive diagonal matrix; a
    # slightly negative diagonal entry counts as zero.
    remainder = np.eye(d) - dagger(t) @ t - dagger(y) @ y
    diagonal = np.real(np.diag(remainder))
    off_psd = max_abs(remainder - np.diag(np.maximum(diagonal, 0.0)))
    if not off_psd <= tol.unitarity:  # also refuses NaN
        raise BundleError(
            f"Kraus remainder I - T'T - Y'Y is not a positive diagonal matrix (defect {off_psd:g})",
            {"remainder": off_psd},
        )
    # Diagonal entries that vanish by construction (every index tied with the
    # smallest coefficient) carry O(eps) junk whose square root would pollute
    # the C branch at the 1e-8 level; snap them to exact zeros.
    root = np.sqrt(np.maximum(diagonal, 0.0))
    root[np.abs(diagonal) <= tol.equality] = 0.0
    gamma = root ** 2
    c = np.diag(root).astype(complex)

    defects: dict[str, float] = {"certificate": cert.gram_defect}
    defects["kraus_condition"] = max_abs(dagger(t) @ t + dagger(y) @ y + dagger(c) @ c - np.eye(d))
    defects["gamma_last"] = abs(float(diagonal[-1]))
    defects["gamma_formula"] = max_abs(gamma - gamma_from_spectrum(spectrum))
    overshoot = gamma - d * d * (lam - lam[-1]) / (2.0 * lam)
    defects["gamma_overestimate"] = max(0.0, float(np.max(overshoot)))

    branches = frozen(local_action(np.stack((t, y, c)), psi.coords))
    p_t, p_y, p_c = (float(np.linalg.norm(b) ** 2) for b in branches)
    p1 = float(np.sum(lam * gamma))
    expected_tail = float(lam[-1] / r[-1])
    defects["p_t"] = abs(p_t - expected_tail)
    defects["p_y"] = abs(p_y - expected_tail)
    defects["p_total"] = abs(p_t + p_y + p1 - 1.0)
    defects["p1_c_branch"] = abs(p1 - p_c)

    gates = {
        "kraus_condition": tol.bundle,
        "gamma_last": tol.equality,
        "gamma_formula": tol.bundle,
        "gamma_overestimate": tol.bundle,
        "p_t": tol.bundle,
        "p_y": tol.bundle,
        "p_total": tol.bundle,
        "p1_c_branch": tol.equality,
    }
    for name, gate in gates.items():
        if defects[name] > gate:
            raise BundleError(f"invariant {name} fails: defect {defects[name]:g} > {gate:g}", defects)

    dilation = dilation_unitary(QuantumChannel(d=d, kraus=(t, y, c)), seed)
    defects["dilation_unitarity"] = unitarity_defect(dilation)
    if defects["dilation_unitarity"] > tol.unitarity:
        raise BundleError("dilation unitarity fails", defects)

    return ProtocolBundle(
        spectrum=spectrum,
        messages=messages,
        m=m,
        t=frozen(t),
        y=frozen(y),
        c=frozen(c),
        gamma=frozen(gamma),
        r=frozen(r),
        p1=p1,
        p_t=p_t,
        p_y=p_y,
        lifted=lifted,
        branches=branches,
        dilation=dilation,
        seed=seed,
        defects=defects,
    )


def p1_bound_general(spectrum: SchmidtSpectrum) -> float:
    """Spectrum-only overestimate of p1: (d^3 (d-1) / 2) (lambda0 - 1/d)."""
    d = spectrum.d
    return (d ** 3) * (d - 1) / 2.0 * (spectrum.lambdas[0] - 1.0 / d)


def p1_equal_tail(d: int, lambda0: float) -> tuple[float, float]:
    """Exact p1 and its bound when all coefficients but the largest are equal.

    exact = d^2 (lambda0 - 1/d) / (d^2 (lambda0 - 1/d) + 2 (1 - lambda0))
    bound = d^3 / (2 (d - 1)) * (lambda0 - 1/d)
    """
    if d < 2:
        raise ValueError("p1_equal_tail: dimension must be >= 2")
    lo, hi = 1.0 / d, d / (d * d - 2)
    if not (lo <= lambda0 < hi):
        raise ValueError(f"p1_equal_tail: lambda0={lambda0!r} outside [{lo:.12g}, {hi:.12g})")
    excess = lambda0 - 1.0 / d
    exact = d * d * excess / (d * d * excess + 2.0 * (1.0 - lambda0))
    bound = d ** 3 / (2.0 * (d - 1)) * excess
    if exact > bound + tolerances.get().equality:
        raise RuntimeError("p1_equal_tail: exact value exceeded its bound")
    return exact, bound


def equal_tail_spectrum(d: int, lambda0: float) -> SchmidtSpectrum:
    """Spectrum with largest coefficient lambda0 and a flat tail."""
    tail = (1.0 - lambda0) / (d - 1)
    return SchmidtSpectrum.from_values([lambda0] + [tail] * (d - 1))


def bounds_rows(d: int, lambda0s) -> list[dict[str, float]]:
    """Sweep rows (d, lambda0, exact p1, general bound, equal-tail bound)."""
    eq = tolerances.get().equality
    rows = []
    for lam0 in lambda0s:
        exact, bound_tail = p1_equal_tail(d, float(lam0))
        bound_gen = p1_bound_general(equal_tail_spectrum(d, float(lam0)))
        if bound_tail > bound_gen + eq:  # p1_equal_tail has checked exact <= bound_tail
            raise RuntimeError(f"bound ordering violated at d={d}, lambda0={lam0}")
        rows.append(
            {
                "d": d,
                "lambda0": float(lam0),
                "p1_exact": exact,
                "p1_bound_general": bound_gen,
                "p1_bound_equal_tail": bound_tail,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Decoding and simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Decoder:
    """Read-only ``(n, d^2, d^2)`` stack of orthogonal projectors, one per message; the last has rank 2."""

    projectors: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)


def build_decoder(bundle: ProtocolBundle) -> Decoder:
    """One rank-1 projector per lifted message, then the plane of the T and Y branches.

    The gates run over the whole stack: each projector must be Hermitian and
    idempotent, and each pair must multiply to zero.  The first failure in
    (projector i, then pairs (j, i) for j < i) order is raised.
    """
    tol = tolerances.get()
    rows = np.concatenate((bundle.lifted, bundle.branches[:2]))
    outers = rows[:, :, None] * rows.conj()[:, None, :]
    projs = outers[:-1]
    projs[-1] = outers[-2] / bundle.p_t + outers[-1] / bundle.p_y
    worst = (-2, -1)
    bad = (np.abs(projs - dagger(projs)).max(axis=worst) > tol.unitarity) | (
        np.abs(projs @ projs - projs).max(axis=worst) > tol.unitarity
    )
    # overlap[j, i] gates the largest entry of P_j P_i for j < i.
    order = np.arange(len(projs))
    overlap = (np.abs(projs[:, None] @ projs).max(axis=worst) > tol.unitarity) & (
        order[:, None] < order
    )
    for i in np.flatnonzero(bad | overlap.any(axis=0)):
        if bad[i]:
            raise BundleError(f"decoder projector {i} is not an orthogonal projector")
        j = np.flatnonzero(overlap[:, i])[0]
        raise BundleError(f"decoder projectors {j} and {i} are not orthogonal")
    return Decoder(projectors=frozen(projs))


@dataclass(frozen=True, eq=False)
class EncodedMessage:
    """State produced by one encoding attempt.

    ``state`` is a coordinate vector on the joint system (ancilla_dim == 1)
    or on joint x ancilla with the ancilla index fastest.  ``aborted`` marks
    a final-message attempt whose ancilla measurement forces a retry; the
    post-abort joint state is still reported.
    """

    state: np.ndarray
    ancilla_dim: int
    aborted: bool


def _check_message(bundle: ProtocolBundle, index: int, caller: str) -> None:
    last = bundle.n_messages - 1
    if not 0 <= index <= last:
        raise ValueError(f"{caller}: index {index} out of range 0..{last}")


def _delivered(bundle: ProtocolBundle, index: int, variant: str) -> EncodedMessage:
    """The encoded state of message ``index`` when the encoding does not abort."""
    if index < len(bundle.messages):
        return EncodedMessage(state=bundle.lifted[index], ancilla_dim=1, aborted=False)
    # Branch rows transposed give joint x ancilla coordinates, ancilla index fastest.
    if variant == VARIANT_NO_MEASURE:
        return EncodedMessage(state=bundle.branches.T.reshape(-1), ancilla_dim=3, aborted=False)
    survived = np.zeros_like(bundle.branches)
    if bundle.p1 < 1.0:
        survived[:2] = bundle.branches[:2] / np.sqrt(1.0 - bundle.p1)
    return EncodedMessage(state=survived.T.reshape(-1), ancilla_dim=3, aborted=False)


def encode_message(
    bundle: ProtocolBundle, index: int, variant: str, rng: np.random.Generator | None
) -> EncodedMessage:
    """Encode message ``index``; the final index uses the dilated channel.

    With ancilla measurement, the outcome is sampled (abort probability p1)
    and the surviving two-branch superposition is renormalized; without it,
    the full three-branch state is returned and no abort can happen.  ``rng``
    is read only to sample that abort, so it may be None on every other path.
    """
    variant = normalize_variant(variant)
    _check_message(bundle, index, "encode_message")
    measured = index == len(bundle.messages) and variant == VARIANT_MEASURE
    if measured and bundle.p1 > 0.0:
        if rng is None:
            raise ValueError("encode_message: the measured final message needs an rng to sample its abort")
        if float(rng.random()) < bundle.p1:
            aborted = bundle.branches[2] / np.sqrt(bundle.p1)
            return EncodedMessage(state=aborted, ancilla_dim=1, aborted=True)
    return _delivered(bundle, index, variant)


def bob_distribution(decoder: Decoder, encoded: EncodedMessage) -> np.ndarray:
    """Probabilities of each decoder outcome plus a trailing undetected slot."""
    if encoded.ancilla_dim == 1:
        rho = np.outer(encoded.state, encoded.state.conj())
    else:
        rho = trace_out_ancilla_state(encoded.state, encoded.ancilla_dim)
    probs = np.clip(np.trace(decoder.projectors @ rho, axis1=-2, axis2=-1).real, 0.0, None)
    residual = max(0.0, 1.0 - float(probs.sum()))
    return np.append(probs, residual)


# Trials per derived stream in ``simulate``; part of the seed -> histogram contract.
SIM_CHUNK = 2 ** 13


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    message_sent: int
    variant: str
    seed: int
    outcome_histogram: dict[str, int]

    def __post_init__(self) -> None:
        if sum(self.outcome_histogram.values()) != self.trials:
            raise ValueError("SimulationReport: histogram total differs from trials")


def simulate(
    bundle: ProtocolBundle,
    decoder: Decoder,
    message: int,
    trials: int,
    variant: str,
    seed: int,
) -> SimulationReport:
    """Monte-Carlo run: encode, then sample the receiver's projective outcome.

    Trials run in chunks of ``SIM_CHUNK``; chunk ``k`` draws from the derived
    stream ``rng_from(seed, k)``.  Each trial takes one uniform, inverted
    through the cumulative receiver distribution, and the measured final
    message with p1 > 0 takes a second one per trial, after them, for its
    ancilla abort.  A chunk counts its uniforms under each cumulative
    threshold, aborts pushed past them all, for that inversion's histogram
    without a per-trial code (one multinomial per chunk is faster but changes
    every seed's).  A seed therefore fixes the histogram whatever order the
    chunks run in.  A uniform lies in [0, 1), so a threshold <= 0 has none
    below it and one >= 1 every kept one: only the other thresholds (NaN
    included, with none below) are counted from the draws.  At p1 == 0 an
    abort draw would abort nothing.  So a message with nothing to count and
    no abort to sample, such as a perfectly distinguishable unitary one,
    builds no stream, and each histogram is the one that drawing and
    counting everything gives.
    Residual probability mass outside the decoder projectors lands in an
    explicit ``undetected`` bucket rather than being renormalized away.
    """
    variant = normalize_variant(variant)
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValueError(f"simulate: trials must be an integer, got {trials!r}")
    # numpy integers become ints, which the report's JSON document can print
    trials, message, seed = operator.index(trials), operator.index(message), operator.index(seed)
    if trials < 1:
        raise ValueError("simulate: trials must be >= 1")
    _check_message(bundle, message, "simulate")
    sample_abort = message == len(bundle.messages) and variant == VARIANT_MEASURE and bundle.p1 > 0.0
    cum = np.cumsum(bob_distribution(decoder, _delivered(bundle, message, variant)))

    thresholds = cum[: decoder.n_outcomes].tolist()
    counted = [j for j, c in enumerate(thresholds) if not (c <= 0.0 or c >= 1.0)]
    tally = dict.fromkeys(counted, 0)
    aborted = 0
    if counted or sample_abort:
        for chunk, start in enumerate(range(0, trials, SIM_CHUNK)):
            n = min(SIM_CHUNK, trials - start)
            rng = rng_from(seed, chunk)
            u = rng.random(n)
            if sample_abort:
                abort = rng.random(n) < bundle.p1
                aborted += np.count_nonzero(abort)
                u[abort] = np.inf
            for j in counted:
                tally[j] += np.count_nonzero(u < thresholds[j])
    kept = trials - aborted
    below = [tally.get(j, kept if c >= 1.0 else 0) for j, c in enumerate(thresholds)]

    counts = {str(j): int(hi - lo) for j, (lo, hi) in enumerate(zip([0, *below], below))}
    counts["aborted"] = int(aborted)
    counts["undetected"] = int(trials - aborted - below[-1])
    return SimulationReport(
        trials=trials,
        message_sent=message,
        variant=variant,
        seed=seed,
        outcome_histogram=counts,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def spectrum_to_json(spectrum: SchmidtSpectrum) -> dict:
    return {
        "d": spectrum.d,
        "lambdas": [sig15(x) for x in spectrum.lambdas],
        "exact": [str(f) for f in spectrum.exact] if spectrum.exact is not None else None,
    }


def bundle_to_json(bundle: ProtocolBundle) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "bundle",
        "spectrum": spectrum_to_json(bundle.spectrum),
        "seed": bundle.seed,
        "tolerances": tolerances.get().as_dict(),
        "messages": matrix_to_json(bundle.messages.unitaries),
        "m": matrix_to_json(bundle.m),
        "v": matrix_to_json(bundle.m[:, -2]),
        "w": matrix_to_json(bundle.m[:, -1]),
        "t": matrix_to_json(bundle.t),
        "y": matrix_to_json(bundle.y),
        "c": matrix_to_json(bundle.c),
        "gamma": [sig15(x) for x in bundle.gamma],
        "r": [sig15(x) for x in bundle.r],
        "p1": sig15(bundle.p1),
        "p_t": sig15(bundle.p_t),
        "p_y": sig15(bundle.p_y),
        "dilation": {
            "ancilla_dim": len(bundle.branches),
            "u_tilde": matrix_to_json(bundle.dilation),
        },
        "invariant_defects": {k: float(v) for k, v in sorted(bundle.defects.items())},
    }


def report_to_json(report: SimulationReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "simulation",
        "trials": report.trials,
        "message_sent": report.message_sent,
        "variant": report.variant,
        "seed": report.seed,
        "outcome_histogram": dict(sorted(report.outcome_histogram.items())),
    }
