"""The four benchmark workloads: seeded inputs, timed requests, output checks.

Each workload is a closed loop with one client.  A *pass* is a fixed number
of requests whose inputs are drawn from (workload seed, pass index); the
next request is sent only after the previous one returns.  ``request`` is
the only timed code: it calls the public densecode API and opens one span
per layer call.  ``check`` runs afterwards, untimed, and returns the names
of the checks the outputs failed (empty when the request is correct).

References are exact where the paper gives them (the d=2 instance) and
otherwise closed forms or independent recomputations, compared at the
package's own tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from densecode import tolerances
from densecode.encoding import message_set_to_json, search_message_set
from densecode.linalg import max_abs
from densecode.protocol import (
    VARIANT_MEASURE,
    VARIANT_NO_MEASURE,
    SimulationReport,
    bob_distribution,
    build_bundle,
    build_decoder,
    bundle_to_json,
    default_messages,
    encode_message,
    report_to_json,
    simulate,
)
from densecode.serialize import dumps, sig15
from densecode.states import SchmidtSpectrum, apply_local, make_schmidt_state, parse_spectrum
from densecode.suites import SUITE_NAMES, run_suite

EXAMPLE_SPECTRUM = "81/160,79/160"

# (message, variant) pairs cycled by the d=2 workloads: every message of the
# built-in set plus the channel-encoded one, under both protocol variants.
D2_COMBOS = tuple((m, v) for v in (VARIANT_MEASURE, VARIANT_NO_MEASURE) for m in range(3))

# Two-sided Gaussian tail mass beyond 5 sigma.  A Monte-Carlo count fails when
# Bernstein's inequality gives its deviation at most this probability.  For
# large counts the window is about 5.5 sigma plus a few counts, wider than a
# plain 5-sigma window; unlike that window it keeps its false-alarm rate where
# n*p is small, as in the 30-trial runs.
_LOG_TAIL = math.log(2.0 / math.erfc(5.0 / math.sqrt(2.0)))

_MASK63 = (1 << 63) - 1


def draw(seed: int, salt: int, index: int) -> np.random.Generator:
    """Generator for the inputs of pass ``index`` of the workload salted ``salt``."""
    return np.random.default_rng([seed & _MASK63, salt, index])


def new_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 62))


def closed_form_p1(spectrum: SchmidtSpectrum) -> float:
    """Abort probability 1 - 2 lambda_min / R_min with R_min = d - (d^2 - 2) lambda_min."""
    d = spectrum.d
    lam_min = spectrum.lambdas[-1]
    return 1.0 - 2.0 * lam_min / (d - (d * d - 2) * lam_min)


def no_measure_distribution(bundle, decoder) -> np.ndarray:
    """Decoder outcome probabilities of the unmeasured final message.

    Sums the three Kraus branches directly, apart from the package's
    dilation and partial-trace route that ``encode_message`` takes.
    """
    psi = make_schmidt_state(bundle.spectrum)
    branches = [apply_local(k, psi).coords for k in (bundle.t, bundle.y, bundle.c)]
    return np.array(
        [sum(float(np.vdot(b, p @ b).real) for b in branches) for p in decoder.projectors]
    )


def histogram_failures(report: SimulationReport, probs: dict[str, float]) -> list[str]:
    """Outcome counts outside the 5-sigma tail of their exact probabilities."""
    eq = tolerances.get().equality
    n = report.trials
    bad = []
    for key, count in report.outcome_histogram.items():
        p = probs.get(key, 0.0)
        if p <= eq:
            if count:
                bad.append(f"misidentified:{key}")
            continue
        var = n * p * (1.0 - p)
        allowed = _LOG_TAIL / 3.0 + math.sqrt((_LOG_TAIL / 3.0) ** 2 + 2.0 * var * _LOG_TAIL)
        if abs(count - n * p) > allowed:
            bad.append(f"mc-5sigma:{key}")
    return bad


def gram_defect(messages, spectrum: SchmidtSpectrum) -> float:
    """Largest Gram-matrix defect of the messages lifted onto the Schmidt state."""
    psi = make_schmidt_state(spectrum)
    lifted = np.array([apply_local(u, psi).coords for u in messages.unitaries])
    return max_abs(lifted.conj() @ lifted.T - np.eye(len(lifted)))


def reference_probs(bundle, decoder, message: int, variant: str) -> dict[str, float]:
    last = bundle.d * bundle.d - 2
    if message < last:
        return {str(message): 1.0}
    p1 = closed_form_p1(bundle.spectrum)
    if variant == VARIANT_MEASURE:
        return {"aborted": p1, str(last): 1.0 - p1}
    return {str(k): p for k, p in enumerate(no_measure_distribution(bundle, decoder))}


def bundle_failures(bundle, decoder) -> list[str]:
    """p1 against its closed form; decoder projectors against summing to I."""
    eq = tolerances.get().equality
    bad = []
    if abs(bundle.p1 - closed_form_p1(bundle.spectrum)) > eq:
        bad.append("p1-closed-form")
    n = bundle.d * bundle.d
    if max_abs(sum(decoder.projectors) - np.eye(n)) > eq:
        bad.append("projectors-sum-to-identity")
    return bad


@dataclass(frozen=True)
class SimRequest:
    spectrum: SchmidtSpectrum
    bundle_seed: int
    message: int
    variant: str
    sim_seed: int
    search_seed: int = 0


class MCLong:
    """One bundle built in set-up; each request is one long simulate call.

    A request runs 1e5 trials, the size of the package's documented long run
    (``simulate --trials 100000``), so per-call costs weigh as they do there.
    """

    name = "mc-long"
    salt = 1
    trials = 100_000
    # The paper's d=2 instance: exact scalars and unmeasured final-message outcomes.
    exact = {
        "gamma_0": Fraction(320, 6561),
        "p_1": Fraction(2, 81),
        "p_T": Fraction(79, 162),
        "p_Y": Fraction(79, 162),
    }
    exact_no_measure = (Fraction(1, 80), Fraction(0), Fraction(79, 80))

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        spectrum = parse_spectrum(EXAMPLE_SPECTRUM)
        with tr.span("protocol.build_bundle"):
            self.bundle = build_bundle(spectrum, default_messages(2), seed)
        with tr.span("protocol.build_decoder"):
            self.decoder = build_decoder(self.bundle)

    def setup_failures(self) -> list[str]:
        eq = tolerances.get().equality
        b = self.bundle
        got = {"gamma_0": b.gamma[0], "p_1": b.p1, "p_T": b.p_t, "p_Y": b.p_y}
        bad = [f"exact:{k}" for k, want in self.exact.items() if abs(got[k] - float(want)) > eq]
        dist = bob_distribution(self.decoder, encode_message(b, 2, VARIANT_NO_MEASURE, None))
        bad += [
            f"exact:no_measure_outcome_{k}"
            for k, want in enumerate(self.exact_no_measure)
            if abs(dist[k] - float(want)) > eq
        ]
        return bad + bundle_failures(b, self.decoder)

    def batch(self, index: int) -> list[SimRequest]:
        rng = draw(self.seed, self.salt, index)
        spectrum = self.bundle.spectrum
        return [SimRequest(spectrum, self.seed, m, v, new_seed(rng)) for m, v in D2_COMBOS]

    def request(self, req: SimRequest, tr) -> dict:
        with tr.span("protocol.simulate", trials=self.trials):
            report = simulate(self.bundle, self.decoder, req.message, self.trials, req.variant, req.sim_seed)
        with tr.span("serialize.doc"):
            doc = dumps(report_to_json(report))
        return {"bundle": self.bundle, "report": report, "doc": doc}

    def probs(self, req: SimRequest) -> dict[str, float]:
        if req.message == 2 and req.variant == VARIANT_NO_MEASURE:
            return {str(k): float(p) for k, p in enumerate(self.exact_no_measure)}
        if req.message == 2:
            p1 = float(self.exact["p_1"])
            return {"aborted": p1, "2": 1.0 - p1}
        return {str(req.message): 1.0}

    def check(self, req: SimRequest, out: dict) -> list[str]:
        report = out["report"]
        bad = histogram_failures(report, self.probs(req))
        if json.loads(out["doc"])["outcome_histogram"] != report.outcome_histogram:
            bad.append("doc:outcome_histogram")
        return bad


class SweepD2:
    """Many fresh d=2 bundles, each with an exact distribution and a short run."""

    name = "sweep-d2"
    salt = 2
    batch_size = 24
    trials = 30

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        self.messages = default_messages(2)

    def batch(self, index: int) -> list[SimRequest]:
        rng = draw(self.seed, self.salt, index)
        reqs = []
        for k in range(self.batch_size):
            lam0 = 0.5 + 0.5 * float(rng.random())
            m, v = D2_COMBOS[k % len(D2_COMBOS)]
            spectrum = SchmidtSpectrum.from_values([lam0, 1.0 - lam0])
            reqs.append(SimRequest(spectrum, new_seed(rng), m, v, new_seed(rng)))
        return reqs

    def request(self, req: SimRequest, tr) -> dict:
        with tr.span("protocol.build_bundle"):
            bundle = build_bundle(req.spectrum, self.messages, req.bundle_seed)
        with tr.span("protocol.build_decoder"):
            decoder = build_decoder(bundle)
        with tr.span("protocol.exact_distribution"):
            dist = bob_distribution(decoder, encode_message(bundle, 2, VARIANT_NO_MEASURE, None))
        with tr.span("protocol.simulate", trials=self.trials):
            report = simulate(bundle, decoder, req.message, self.trials, req.variant, req.sim_seed)
        with tr.span("serialize.doc"):
            doc = dumps(bundle_to_json(bundle))
        return {"bundle": bundle, "decoder": decoder, "dist": dist, "report": report, "doc": doc}

    def check(self, req: SimRequest, out: dict) -> list[str]:
        bundle, decoder = out["bundle"], out["decoder"]
        bad = bundle_failures(bundle, decoder)
        eq = tolerances.get().equality
        dist = out["dist"]  # decoder outcomes, then the undetected remainder
        if max_abs(dist[:-1] - no_measure_distribution(bundle, decoder)) > eq or dist[-1] > eq:
            bad.append("exact-distribution")
        bad += histogram_failures(out["report"], reference_probs(bundle, decoder, req.message, req.variant))
        if json.loads(out["doc"])["p1"] != sig15(bundle.p1):
            bad.append("doc:p1")
        return bad


class CallFailed(RuntimeError):
    """A documented way for a request to fail: counted as failed, with no output to check.

    Any other exception from a request marks the run incorrect.
    """


class Uncertified(CallFailed):
    """Search returned no certified message set."""


class RefusedSet(CallFailed):
    """``build_bundle`` refused a certified set whose Gram defect lies between the gates.

    Search certifies at ``tolerances.certificate`` (1e-9) and ``build_bundle``
    needs ``tolerances.unitarity`` (1e-10), so such a set passes the first and
    fails the second.  This is a defect of the package, reported, not hidden.
    """


class SearchD3:
    """Message-set search at d=3 across the admissible range, then the protocol on it.

    Each request gets one search restart, so its cost is one descent and
    polish whether or not it certifies a set.  Spectra where search finds
    no set stay in the draw; each such request counts as failed.
    """

    name = "search-d3"
    salt = 3
    batch_size = 6  # at about 6 s a search, one pass sets the run time, whatever --seconds is
    count = 7
    restarts = 1
    trials = 30
    lo, hi = 1.0 / 3.0, 3.0 / 7.0  # lambda0 range: uniform up to the d/(d^2-2) bound

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed

    def batch(self, index: int) -> list[SimRequest]:
        # One lambda0 per equal-width stratum, so every pass spans the range.
        rng = draw(self.seed, self.salt, index)
        width = (self.hi - self.lo) / self.batch_size
        reqs = []
        for k in range(self.batch_size):
            lam0 = self.lo + (k + float(rng.random())) * width
            lam1 = (1.0 - lam0) / 2.0 + float(rng.random()) * (lam0 - (1.0 - lam0) / 2.0)
            spectrum = SchmidtSpectrum.from_values([lam0, lam1, 1.0 - lam0 - lam1])
            # The channel-encoded message follows the count unitary ones.
            reqs.append(
                SimRequest(spectrum, new_seed(rng), self.count, VARIANT_MEASURE, new_seed(rng), new_seed(rng))
            )
        return reqs

    def request(self, req: SimRequest, tr) -> dict:
        with tr.span("encoding.search_message_set", count=self.count) as attrs:
            messages = search_message_set(req.spectrum, self.count, req.search_seed, max_iters=self.restarts)
            attrs["certified"] = messages is not None
        if messages is None:
            raise Uncertified(f"no certified set of {self.count} at lambda={req.spectrum.lambdas}")
        try:
            with tr.span("protocol.build_bundle"):
                bundle = build_bundle(req.spectrum, messages, req.bundle_seed)
        except ValueError as exc:
            defect = gram_defect(messages, req.spectrum)
            gates = tolerances.get()
            if gates.unitarity < defect <= gates.certificate:
                raise RefusedSet(f"Gram defect {defect:.2g} at lambda={req.spectrum.lambdas}") from exc
            raise
        with tr.span("protocol.build_decoder"):
            decoder = build_decoder(bundle)
        with tr.span("protocol.simulate", trials=self.trials):
            report = simulate(bundle, decoder, req.message, self.trials, req.variant, req.sim_seed)
        with tr.span("serialize.doc"):
            doc = dumps(message_set_to_json(messages, make_schmidt_state(req.spectrum), seed=req.search_seed))
        return {"messages": messages, "bundle": bundle, "decoder": decoder, "report": report, "doc": doc}

    def check(self, req: SimRequest, out: dict) -> list[str]:
        messages = out["messages"]
        certified = gram_defect(messages, req.spectrum) <= tolerances.get().certificate
        bad = [] if len(messages.unitaries) == self.count and certified else ["certificate"]
        bundle, decoder = out["bundle"], out["decoder"]
        bad += bundle_failures(bundle, decoder)
        bad += histogram_failures(out["report"], reference_probs(bundle, decoder, req.message, req.variant))
        doc = json.loads(out["doc"])
        if not doc["pass"] or doc["count"] != self.count:
            bad.append("doc:message-set")
        return bad


class VerifySuites:
    """The five randomized verification suites; one suite call is one request."""

    name = "verify-suites"
    salt = 4

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed

    def batch(self, index: int) -> list[tuple[str, int]]:
        rng = draw(self.seed, self.salt, index)
        return [(name, int(rng.integers(1 << 32))) for name in SUITE_NAMES]

    def request(self, req: tuple[str, int], tr) -> dict:
        name, seed = req
        with tr.span(f"suites.{name}") as attrs:
            reports = run_suite(name, seed)
            attrs["checks_failed"] = sum(not c.passed for r in reports for c in r.checks)
        return {"reports": reports}

    def check(self, req: tuple[str, int], out: dict) -> list[str]:
        return [f"{r.suite}:{c.name}" for r in out["reports"] for c in r.checks if not c.passed]


WORKLOADS = {w.name: w for w in (MCLong, SweepD2, SearchD3, VerifySuites)}
