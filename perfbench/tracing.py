"""Spans around the harness's calls into each densecode layer.

A span records a layer call's name, attributes, start and end, and the
request it belongs to; all spans stay in memory until the run ends.
Tracing inside the package itself is not done here: every span is opened by
the benchmark's own code, around one public call.

``NULL`` is the tracer of untraced runs: its spans cost one attribute lookup
and a reusable no-op context manager, so end-to-end timings carry no tracing.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

# A simulate call with at least this many trials counts as a long run; its
# cost is reported per trial, the cost of shorter ones per call.
LONG_SIMULATE = 1000


class Span:
    __slots__ = ("tracer", "name", "attrs", "start", "end", "request")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> dict:
        self.request = self.tracer.request
        self.tracer.spans.append(self)
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``request`` is the id that the spans of one request share."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: tuple[int, int] | None = None

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)


class _NullTracer:
    request = None

    def __init__(self) -> None:
        self._null = nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


NULL = _NullTracer()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derivable from ``spans``; layers with no span are absent.

    Times are medians per call, except simulate's long runs (time per trial)
    and search (mean seconds per call, since a handful of calls is typical).
    Counts are taken over pass 0 only, so that they repeat exactly for a seed.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def median_of(name: str, scale: float) -> float | None:
        got = by_name.get(name)
        return scale * statistics.median(s.seconds for s in got) if got else None

    def first_pass(name: str) -> list[Span]:
        return [s for s in by_name.get(name, ()) if s.request is not None and s.request[0] == 0]

    out: dict[str, float | None] = {}
    sims = by_name.get("protocol.simulate", [])
    long_runs = [s for s in sims if s.attrs["trials"] >= LONG_SIMULATE]
    short_runs = [s for s in sims if s.attrs["trials"] < LONG_SIMULATE]
    if long_runs:
        out["protocol.simulate_us_per_trial"] = 1e6 * sum(s.seconds for s in long_runs) / sum(
            s.attrs["trials"] for s in long_runs
        )
    if short_runs:
        out["protocol.simulate_short_call_us"] = 1e6 * statistics.median(s.seconds for s in short_runs)
    if sims:
        out["protocol.simulate_trials"] = sum(s.attrs["trials"] for s in first_pass("protocol.simulate"))
    out["protocol.build_bundle_ms"] = median_of("protocol.build_bundle", 1e3)
    out["protocol.build_decoder_ms"] = median_of("protocol.build_decoder", 1e3)
    out["protocol.exact_distribution_us"] = median_of("protocol.exact_distribution", 1e6)
    searches = by_name.get("encoding.search_message_set", [])
    if searches:
        out["encoding.search_message_set_s"] = statistics.fmean(s.seconds for s in searches)
        out["encoding.search_success_ratio"] = sum(s.attrs["certified"] for s in searches) / len(searches)
    suite_spans = [s for s in spans if s.name.startswith("suites.")]
    for name in {s.name for s in suite_spans}:
        out[f"{name}_ms"] = median_of(name, 1e3)
    if suite_spans:
        out["suites.checks_failed"] = sum(
            s.attrs["checks_failed"] for s in suite_spans if s.request is not None and s.request[0] == 0
        )
    out["serialize.doc_us"] = median_of("serialize.doc", 1e6)
    out["cli.import_s"] = median_of("cli.import", 1.0)
    return {k: v for k, v in out.items() if v is not None}

