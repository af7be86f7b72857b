"""One benchmark worker: set up one workload, measure it, report as JSON.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  The worker prints ``READY`` once its inputs are built (``run.py``
times set-up up to that line), then one JSON line with its results.

With ``--trace 0`` it runs the workload for ``--seconds`` and reports the
end-to-end figures.  With ``--trace 1`` it runs the same passes untraced for
half the time and traced for the other half, then a *tour* (the first
requests of the other workloads, traced) for layers the workload never
calls, then the kernel probes; it reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import NULL, Tracer, layer_metrics

# densecode and numpy are imported inside functions: main times the first import.
ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURE_NOTES = 10


class Tally:
    """Requests attempted and failed, with the first few failure reasons.

    A request fails when its call fails in a documented way (``CallFailed``),
    raises anything else, or returns outputs that fail a check; the last two
    kinds (``wrong``) make the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def add(self, where: str, failures: list[str], wrong: bool) -> None:
        self.attempted += 1
        self.wrong += wrong
        if failures:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{where}: {', '.join(failures)}")


class Reference:
    """The host's speed, sampled between requests as the time of a fixed task.

    The host's speed drifts by tens of percent within minutes, which no
    amount of work in one run averages out.  Each request's latency divided
    by the reference time measured around it cancels that drift.  The task
    calls no densecode code, so a change to the package moves the ratio as
    much as it moves the time.
    """

    interval_s = 0.5
    runs = 21  # a sample is the median of this many runs: single runs vary by 10% and more
    window = 3  # a request's reference is the median of this many samples on each side of it

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a0 = np.random.default_rng(0).standard_normal((4, 4)) + 0j
        self.samples: list[float] = []
        self.last = float("-inf")

    def task(self) -> None:
        np, a = self.np, self.a0
        total = 0
        for i in range(20_000):  # interpreter work, as in densecode's Python loops
            total += i * i
        for _ in range(60):  # small complex products, as in densecode's numpy calls
            b = a @ a.conj().T
            a = b / np.linalg.norm(b) + self.a0

    def sample(self, force: bool = False) -> int:
        """Time the task if one is due; return the index of the latest sample."""
        if force or perf_counter() - self.last >= self.interval_s:
            runs = []
            for _ in range(self.runs):
                t0 = perf_counter()
                self.task()
                runs.append(perf_counter() - t0)
            self.last = perf_counter()
            self.samples.append(statistics.median(runs))
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Median of the samples nearest a request whose preceding sample is ``index``."""
        return statistics.median(self.samples[max(0, index + 1 - self.window) : index + 1 + self.window])


@dataclass
class Passes:
    """What a closed loop measured: raw seconds and reference-normalised figures."""

    walls: list[float] = field(default_factory=list)  # per pass: sum of its request latencies
    latencies: list[float] = field(default_factory=list)
    ref_walls: list[float] = field(default_factory=list)  # the same, in reference units
    ref_latencies: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    first_outputs: list[dict] = field(default_factory=list)  # outputs of pass 0


def run_passes(wl, tr, seconds: float, tally: Tally, max_requests: int | None = None) -> Passes:
    """Closed loop over whole passes until the next pass would overrun ``seconds``.

    Only the call into densecode is timed; checks and reference samples run
    between requests.
    """
    from workloads import CallFailed

    out = Passes()
    ref = Reference()
    marks: list[tuple[int, int, float]] = []  # (pass, reference index, latency)
    start = perf_counter()
    index = 0
    while True:
        reqs = wl.batch(index)[:max_requests]
        wall = 0.0
        for k, req in enumerate(reqs):
            before = ref.sample()
            tr.request = (index, k)
            t0 = perf_counter()
            try:
                result = wl.request(req, tr)
            except Exception as exc:  # no output to check; only a documented failure leaves the run correct
                dt = perf_counter() - t0
                failures, wrong = [f"raised {type(exc).__name__}: {exc}"], not isinstance(exc, CallFailed)
            else:
                dt = perf_counter() - t0
                failures = wl.check(req, result)
                wrong = bool(failures)
                if index == 0:
                    out.first_outputs.append(result)
            wall += dt
            marks.append((index, before, dt))
            tally.add(f"{wl.name} pass {index} request {k}", failures, wrong)
        tr.request = None
        out.walls.append(wall)
        index += 1
        if max_requests is not None or perf_counter() - start + statistics.median(out.walls) > seconds:
            break
    ref.sample(force=True)
    out.ref_walls = [0.0] * index
    for p, before, dt in marks:
        scaled = dt / ref.around(before)
        out.latencies.append(dt)
        out.ref_latencies.append(scaled)
        out.ref_walls[p] += scaled
    out.reference_s = ref.samples
    return out


def check_set_up(wl, tally: Tally):
    """Check a workload's fixed inputs; a failed check counts as one wrong request."""
    failures = wl.setup_failures() if hasattr(wl, "setup_failures") else []
    if failures:
        tally.add(f"{wl.name} set-up", failures, wrong=True)
    return wl


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe(fn, target_s: float = 0.02, repeats: int = 5) -> float:
    """Median per-call microseconds of ``fn`` over ``repeats`` timed loops."""
    t0 = perf_counter()
    fn()
    n = max(1, int(target_s / max(perf_counter() - t0, 1e-7)))
    per_call = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        per_call.append((perf_counter() - t0) / n)
    return 1e6 * statistics.median(per_call)


def kernel_probes(seed: int, bundles: list) -> dict[str, float]:
    """Public linalg/encoding/channels/states calls on the shapes the workloads use."""
    import numpy as np

    from densecode.channels import dilation_unitary
    from densecode.encoding import gram_mass_gradient, gram_mass_objective
    from densecode.linalg import complete_to_unitary, hermitian_eigensystem, rng_from
    from densecode.states import SchmidtSpectrum, make_schmidt_state

    rng = np.random.default_rng([seed & ((1 << 63) - 1), 99])

    def hermitian(n: int) -> np.ndarray:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (g + g.conj().T) / 2.0

    def columns(n: int, k: int) -> list[np.ndarray]:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return list(q.T[:k])

    h3, h4 = hermitian(3), hermitian(4)
    cols4, cols9 = columns(4, 2), columns(9, 7)
    spectrum3 = SchmidtSpectrum.from_values([0.38, 0.33, 0.29])
    theta = rng.standard_normal(6 * 9)
    trial = iter(range(1 << 62))
    out = {
        "linalg.rng_from_us": probe(lambda: rng_from(seed, next(trial))),
        "linalg.hermitian_eigensystem.n3_us": probe(lambda: hermitian_eigensystem(h3)),
        "linalg.hermitian_eigensystem.n4_us": probe(lambda: hermitian_eigensystem(h4)),
        "linalg.complete_to_unitary.n4_us": probe(lambda: complete_to_unitary(cols4, seed)),
        "linalg.complete_to_unitary.n9_us": probe(lambda: complete_to_unitary(cols9, seed)),
        "encoding.gram_mass_objective_us": probe(lambda: gram_mass_objective(spectrum3, theta, 7)),
        "encoding.gram_mass_gradient_us": probe(lambda: gram_mass_gradient(spectrum3, theta, 7)),
    }
    channels = [b.channel() for b in bundles]
    spectra = [b.spectrum for b in bundles]
    out["channels.dilation_unitary_us"] = statistics.median(
        probe(lambda c=c: dilation_unitary(c, seed), target_s=0.004, repeats=3) for c in channels
    )
    out["states.make_schmidt_state_us"] = statistics.median(
        probe(lambda s=s: make_schmidt_state(s), target_s=0.002, repeats=3) for s in spectra
    )
    return out


def distinct_bundles(outputs: list[dict], limit: int = 8) -> list:
    seen: dict[int, object] = {}
    for out in outputs:
        b = out.get("bundle")
        if b is not None:
            seen.setdefault(id(b), b)
    return list(seen.values())[:limit]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_tracer = Tracer()  # set-up spans are always kept; they cost nothing per request
    with setup_tracer.span("cli.import"):
        import densecode.cli  # noqa: F401  (the whole package, as the command loads it)
    src = (ROOT / "src").resolve()
    if src not in Path(densecode.cli.__file__).resolve().parents:
        raise SystemExit(f"densecode imported from {densecode.cli.__file__}, not from {src}")

    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, setup_tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    check_set_up(wl, tally)

    result: dict = {"machine": machine()}
    if not args.trace:
        run = run_passes(wl, NULL, args.seconds, tally)
        result["end_to_end"] = {
            "passes": len(run.walls),
            "wall_s": statistics.median(run.walls),
            "wall_ref": statistics.median(run.ref_walls),
            "latencies_s": run.latencies,
            "ref_latencies": run.ref_latencies,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tr = Tracer()
        plain = run_passes(wl, NULL, args.seconds / 2, tally)
        run = run_passes(wl, tr, args.seconds / 2, tally)
        metrics = layer_metrics(setup_tracer.spans + tr.spans)
        sources = dict.fromkeys(metrics, "workload")
        tour = Tracer()
        toured: list[dict] = []
        for other in WORKLOADS.values():
            if other is cls:
                continue
            # One request is enough for the slow single-call layers; a full pass elsewhere.
            single = 1 if other.name in ("mc-long", "search-d3") else None
            toured += run_passes(check_set_up(other(args.seed, tour), tally), tour, 0.0, tally, single).first_outputs
        for name, value in layer_metrics(tour.spans).items():
            if name not in metrics:
                metrics[name], sources[name] = value, "tour"
        probes = kernel_probes(args.seed, distinct_bundles(run.first_outputs) or distinct_bundles(toured))
        metrics.update(probes)
        sources.update(dict.fromkeys(probes, "probe"))
        metrics["trace.overhead_ratio"] = statistics.median(run.ref_walls) / statistics.median(plain.ref_walls)
        sources["trace.overhead_ratio"] = "workload"
        result["per_layer"] = {"metrics": metrics, "sources": sources}
    result["machine"]["reference_ms"] = 1e3 * statistics.median(run.reference_s)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        failure_notes=tally.notes,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
