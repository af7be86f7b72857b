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
would invalidate everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tolerances
from .channels import (
    DilationResult,
    QuantumChannel,
    dilation_unitary,
    trace_out_ancilla_state,
)
from .encoding import UnitaryMessageSet, certify_distinguishable, weyl_set
from .linalg import complete_to_unitary, dagger, max_abs, rng_from, sqrt_psd_diagonal
from .serialize import SCHEMA, matrix_to_json, sig15, vector_to_json
from .states import SchmidtSpectrum, apply_local, make_schmidt_state

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
    spectrum: SchmidtSpectrum
    messages: UnitaryMessageSet
    m: np.ndarray                     # completed square unitary of lifted columns
    v: np.ndarray                     # penultimate column of m
    w: np.ndarray                     # final column of m
    t: np.ndarray
    y: np.ndarray
    c: np.ndarray
    gamma: np.ndarray                 # diagonal of C'C
    r: np.ndarray                     # slack profile from compute_R
    p1: float                         # final-message abort probability
    p_t: float
    p_y: float
    dilation: DilationResult
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
    cert = certify_distinguishable(messages, psi)
    if not cert.passed:
        raise BundleError(
            f"distinguishability certificate fails (defect {cert.gram_defect:g})",
            {"certificate": cert.gram_defect},
        )
    r = compute_R(spectrum)
    lam = np.asarray(spectrum.lambdas)

    lifted_cols = [apply_local(u, psi).coords for u in messages.unitaries]
    m = complete_to_unitary(lifted_cols, seed)
    v = m[:, -2].copy()
    w = m[:, -1].copy()

    # Column entries regrouped by Bob's index give the d x d matrices.
    coef = np.sqrt(lam[-1]) / (np.sqrt(lam) * np.sqrt(r[-1]))
    t = v.reshape(d, d).T * coef[None, :]
    y = w.reshape(d, d).T * coef[None, :]

    remainder = np.eye(d) - dagger(t) @ t - dagger(y) @ y
    c = sqrt_psd_diagonal(remainder)
    gamma = np.real(np.diag(c)) ** 2
    # Diagonal entries that vanish by construction (every index tied with the
    # smallest coefficient) carry O(eps) junk whose square root would pollute
    # the C branch at the 1e-8 level; snap them to exact zeros.
    raw_last = abs(float(np.real(np.diag(remainder))[-1]))
    gamma[np.abs(np.real(np.diag(remainder))) <= tol.equality] = 0.0
    c = np.diag(np.sqrt(gamma)).astype(complex)

    defects: dict[str, float] = {"certificate": cert.gram_defect}
    defects["kraus_condition"] = max_abs(dagger(t) @ t + dagger(y) @ y + dagger(c) @ c - np.eye(d))
    defects["gamma_last"] = raw_last
    defects["gamma_formula"] = max_abs(gamma - gamma_from_spectrum(spectrum))
    overshoot = gamma - d * d * (lam - lam[-1]) / (2.0 * lam)
    defects["gamma_overestimate"] = max(0.0, float(np.max(overshoot)))

    p_t = float(np.linalg.norm(apply_local(t, psi).coords) ** 2)
    p_y = float(np.linalg.norm(apply_local(y, psi).coords) ** 2)
    p1 = float(np.sum(lam * gamma))
    expected_tail = float(lam[-1] / r[-1])
    defects["p_t"] = abs(p_t - expected_tail)
    defects["p_y"] = abs(p_y - expected_tail)
    defects["p_total"] = abs(p_t + p_y + p1 - 1.0)
    defects["p1_c_branch"] = abs(p1 - float(np.linalg.norm(apply_local(c, psi).coords) ** 2))

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
    defects["dilation_unitarity"] = max_abs(
        dagger(dilation.u_tilde) @ dilation.u_tilde - np.eye(d * dilation.ancilla_dim)
    )
    if defects["dilation_unitarity"] > tol.unitarity:
        raise BundleError("dilation unitarity fails", defects)

    return ProtocolBundle(
        spectrum=spectrum,
        messages=messages,
        m=m,
        v=v,
        w=w,
        t=t,
        y=y,
        c=c,
        gamma=gamma,
        r=r,
        p1=p1,
        p_t=p_t,
        p_y=p_y,
        dilation=dilation,
        seed=seed,
        defects=defects,
    )


def abort_probability(bundle: ProtocolBundle) -> float:
    """The ancilla-outcome-1 probability p1 = sum_j lambda_j gamma_j.

    This is the chance the final-message encoding aborts; the protocol
    delivers the message with probability 1 - p1.  Cross-checked against the
    C-branch norm and the closed form 1 - 2*lambda_min/R_min.
    """
    tol = tolerances.get()
    lam = np.asarray(bundle.spectrum.lambdas)
    p1 = float(np.sum(lam * bundle.gamma))
    psi = make_schmidt_state(bundle.spectrum)
    branch = float(np.linalg.norm(apply_local(bundle.c, psi).coords) ** 2)
    closed = 1.0 - 2.0 * lam[-1] / bundle.r[-1]
    if abs(p1 - branch) > tol.equality or abs(p1 - closed) > tol.bundle:
        raise BundleError(
            f"p1 routes disagree: sum {p1:.17g}, branch {branch:.17g}, closed {closed:.17g}"
        )
    return p1


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
        if exact > bound_tail + eq or bound_tail > bound_gen + eq:
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
    """Orthogonal projectors, one per message; the last is the rank-2 branch plane."""

    projectors: tuple[np.ndarray, ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)


def build_decoder(bundle: ProtocolBundle) -> Decoder:
    tol = tolerances.get()
    psi = make_schmidt_state(bundle.spectrum)
    projs = []
    for u in bundle.messages.unitaries:
        vec = apply_local(u, psi).coords
        projs.append(np.outer(vec, vec.conj()))
    t_lift = apply_local(bundle.t, psi).coords
    y_lift = apply_local(bundle.y, psi).coords
    projs.append(
        np.outer(t_lift, t_lift.conj()) / bundle.p_t
        + np.outer(y_lift, y_lift.conj()) / bundle.p_y
    )
    for i, p in enumerate(projs):
        if max_abs(p - dagger(p)) > tol.unitarity or max_abs(p @ p - p) > tol.unitarity:
            raise BundleError(f"decoder projector {i} is not an orthogonal projector")
        for j in range(i):
            if max_abs(projs[j] @ p) > tol.unitarity:
                raise BundleError(f"decoder projectors {j} and {i} are not orthogonal")
    return Decoder(projectors=tuple(projs))


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
    ancilla_outcome: int | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _encoded_states(bundle: ProtocolBundle):
    """Per-bundle cache of every deterministic encoding output."""
    d = bundle.d
    psi = make_schmidt_state(bundle.spectrum)
    lifted = tuple(_frozen(apply_local(u, psi).coords) for u in bundle.messages.unitaries)
    t_branch = apply_local(bundle.t, psi).coords
    y_branch = apply_local(bundle.y, psi).coords
    c_branch = apply_local(bundle.c, psi).coords
    n_anc = 3
    full = np.zeros(d * d * n_anc, dtype=complex)
    full[0::n_anc] = t_branch
    full[1::n_anc] = y_branch
    full[2::n_anc] = c_branch
    survived = np.zeros_like(full)
    if bundle.p1 < 1.0:
        survived[0::n_anc] = t_branch / np.sqrt(1.0 - bundle.p1)
        survived[1::n_anc] = y_branch / np.sqrt(1.0 - bundle.p1)
    aborted = _frozen(c_branch / np.sqrt(bundle.p1)) if bundle.p1 > 0.0 else None
    return lifted, _frozen(full), _frozen(survived), aborted


def _check_message(bundle: ProtocolBundle, index: int, caller: str) -> None:
    last = bundle.n_messages - 1
    if not 0 <= index <= last:
        raise ValueError(f"{caller}: index {index} out of range 0..{last}")


def _delivered(bundle: ProtocolBundle, index: int, variant: str) -> EncodedMessage:
    """The encoded state of message ``index`` when the encoding does not abort."""
    lifted, full, survived, _ = _encoded_states(bundle)
    if index < len(bundle.messages):
        return EncodedMessage(state=lifted[index], ancilla_dim=1, aborted=False, ancilla_outcome=None)
    if variant == VARIANT_NO_MEASURE:
        return EncodedMessage(state=full, ancilla_dim=3, aborted=False, ancilla_outcome=None)
    return EncodedMessage(state=survived, ancilla_dim=3, aborted=False, ancilla_outcome=0)


def encode_message(
    bundle: ProtocolBundle, index: int, variant: str, rng: np.random.Generator
) -> EncodedMessage:
    """Encode message ``index``; the final index uses the dilated channel.

    With ancilla measurement, the outcome is sampled (abort probability p1)
    and the surviving two-branch superposition is renormalized; without it,
    the full three-branch state is returned and no abort can happen.
    """
    variant = normalize_variant(variant)
    _check_message(bundle, index, "encode_message")
    if index == len(bundle.messages) and variant == VARIANT_MEASURE:
        aborted = _encoded_states(bundle)[3]
        if aborted is not None and float(rng.random()) < bundle.p1:
            return EncodedMessage(state=aborted, ancilla_dim=1, aborted=True, ancilla_outcome=1)
    return _delivered(bundle, index, variant)


def bob_distribution(decoder: Decoder, encoded: EncodedMessage) -> np.ndarray:
    """Probabilities of each decoder outcome plus a trailing undetected slot."""
    if encoded.ancilla_dim == 1:
        rho = np.outer(encoded.state, encoded.state.conj())
    else:
        rho = trace_out_ancilla_state(encoded.state, encoded.ancilla_dim)
    probs = np.array([float(np.trace(p @ rho).real) for p in decoder.projectors])
    probs = np.clip(probs, 0.0, None)
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
    message takes a second one per trial for its ancilla abort (probability
    p1).  A seed therefore fixes the histogram whatever order the chunks run
    in.  Residual probability mass outside the decoder projectors lands in
    an explicit ``undetected`` bucket rather than being renormalized away.
    """
    variant = normalize_variant(variant)
    if trials < 1:
        raise ValueError("simulate: trials must be >= 1")
    _check_message(bundle, message, "simulate")
    measured = message == len(bundle.messages) and variant == VARIANT_MEASURE
    cum = np.cumsum(bob_distribution(decoder, _delivered(bundle, message, variant)))

    n_out = decoder.n_outcomes
    undetected, aborted = n_out, n_out + 1
    tally = np.zeros(n_out + 2, dtype=np.int64)
    for chunk, start in enumerate(range(0, trials, SIM_CHUNK)):
        n = min(SIM_CHUNK, trials - start)
        rng = rng_from(seed, chunk)
        codes = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), undetected)
        if measured:
            codes[rng.random(n) < bundle.p1] = aborted
        tally += np.bincount(codes, minlength=n_out + 2)

    counts = {str(j): int(tally[j]) for j in range(n_out)}
    counts["aborted"] = int(tally[aborted])
    counts["undetected"] = int(tally[undetected])
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
        "messages": [matrix_to_json(u) for u in bundle.messages.unitaries],
        "m": matrix_to_json(bundle.m),
        "v": vector_to_json(bundle.v),
        "w": vector_to_json(bundle.w),
        "t": matrix_to_json(bundle.t),
        "y": matrix_to_json(bundle.y),
        "c": matrix_to_json(bundle.c),
        "gamma": [sig15(x) for x in bundle.gamma],
        "r": [sig15(x) for x in bundle.r],
        "p1": sig15(bundle.p1),
        "p_t": sig15(bundle.p_t),
        "p_y": sig15(bundle.p_y),
        "dilation": {
            "ancilla_dim": bundle.dilation.ancilla_dim,
            "u_tilde": matrix_to_json(bundle.dilation.u_tilde),
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
