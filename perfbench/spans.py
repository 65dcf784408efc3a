"""Tracing owned by the benchmark: in-memory spans recorded by wrappers
around the public functions of each dohazard module.

A wrapper is installed at the name its caller looks the function up by:
``dohazard.cli.<name>`` for what the CLI imports by name, the module
attribute for ``oracle``, ``backdoor`` and ``frontdoor``, and
``RngStream.uniform`` for draws, which ``normal`` and ``exponential`` call,
so a draw is counted once. Wrappers exist only while ``installed`` is
active; untraced passes run the program's own functions.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one pass, kept in memory; a span's parent is the span open
    when it started (the program is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.fit_inputs = None  # (dataset, covariate names) of the last fit_cox call

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """Span id -> duration minus the time covered by its child spans."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _traced(tracer: Tracer, fn, name: str, before=None, after=None):
    """fn wrapped in a span; before(bound args) and after(bound args, result)
    return attributes to record."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if before or after:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
        with tracer.span(name, **(before(bound.arguments) if before else {})) as attrs:
            result = fn(*args, **kwargs)
        if after:
            attrs.update(after(bound.arguments, result))
        return result

    return wrapper


def _patch_table(tracer: Tracer):
    import dohazard.backdoor as bd
    import dohazard.cli as cli
    import dohazard.frontdoor as fd
    import dohazard.oracle as orc
    from dohazard.stats import RngStream

    def arm_key(a):
        return {"key": (a["x_value"], a["n"], a["seed"], a["stream_offset"]), "n": a["n"]}

    def factual_key(a):
        return {"key": ("factual", a["n"], a["seed"], a["stream_offset"]), "n": a["n"]}

    def remember_fit_inputs(a, fit):
        tracer.fit_inputs = (a["dataset"], list(fit.covariate_names))
        return {"iterations": fit.iterations}

    table = [
        (cli, "generate", "simulate.generate", None, None),
        (cli, "save_dataset", "simulate.save", None, lambda a, r: {"bytes": os.path.getsize(a["path"])}),
        (cli, "load_dataset", "simulate.load", lambda a: {"bytes": os.path.getsize(a["path"])}, None),
        (cli, "fit_cox", "cox.fit", None, remember_fit_inputs),
        (orc, "simulate_do", "oracle.arm", arm_key, None),
        (orc, "simulate_factual", "oracle.arm", factual_key, None),
        (orc, "oracle_rr", "oracle.combine", None, None),
        (orc, "oracle_paf", "oracle.combine", None, None),
        (orc, "approx_error_report", "oracle.approx_report", None, None),
        (RngStream, "uniform", "stats.draw", lambda a: {"size": 1 if a["size"] is None else int(a["size"])}, None),
        (bd, "compute_az", "backdoor.compute_az", None, None),
        (fd, "estimate_frontdoor_params", "frontdoor.params", None, None),
    ]
    table += [(bd, f, "backdoor.estimate", None, None) for f in ("causal_rr", "do_cdf", "do_cumhaz", "paf")]
    table += [
        (fd, f, "frontdoor.estimate", None, None)
        for f in ("frontdoor_causal_rr", "frontdoor_do_cdf_gaussian", "mediation_indirect_rr")
    ]
    return table


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through tracer until the block exits."""
    saved = []
    try:
        for owner, attr, name, before, after in _patch_table(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, original, name, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def probe_cox(tracer: Tracer) -> None:
    """Time the Cox pieces the fit calls internally, on the cohort of the
    pass's last fit, outside the pass: one partial-likelihood evaluation and
    one Breslow baseline at the fitted beta, and a fit under tracemalloc for
    its peak traced memory."""
    from dohazard.cox import breslow_baseline, fit_cox, neg_log_partial_likelihood

    if tracer.fit_inputs is None:
        return
    dataset, names = tracer.fit_inputs
    tracer.fit_inputs = None
    tracemalloc.start()
    try:
        with tracer.span("cox.fit_traced") as attrs:
            fit = fit_cox(dataset, names)
        attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with tracer.span("cox.nlpl_eval"):
        neg_log_partial_likelihood(dataset, fit.beta, names)
    with tracer.span("cox.breslow"):
        breslow_baseline(dataset, fit.beta, names)


# Per-layer metric name -> unit, in report order. Layers that do not run on
# a workload report 0.
LAYER_UNITS = {
    "oracle.arm_s": "s",
    "oracle.arms_drawn": "count",
    "oracle.arms_distinct": "count",
    "oracle.arm_useful_ratio": "ratio",
    "oracle.subjects_drawn": "count",
    "oracle.combine_s": "s",
    "oracle.approx_report_s": "s",
    "stats.variates_drawn": "count",
    "stats.draw_s": "s",
    "simulate.generate_s": "s",
    "simulate.save_s": "s",
    "simulate.load_s": "s",
    "simulate.loads": "count",
    "simulate.csv_bytes": "bytes",
    "simulate.save_mb_per_s": "MB/s",
    "simulate.load_mb_per_s": "MB/s",
    "cox.fit_s": "s",
    "cox.iterations": "count",
    "cox.nlpl_eval_s": "s",
    "cox.breslow_s": "s",
    "cox.fit_peak_mb": "MB",
    "backdoor.compute_az_s": "s",
    "backdoor.estimate_s": "s",
    "frontdoor.params_s": "s",
    "frontdoor.estimate_s": "s",
    "cli.self_s": "s",
    "trace.traced_pipeline_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (every LAYER_UNITS name but the
    trace.* ones, which compare passes)."""
    own = tracer.self_times()

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def self_s(name):
        return sum(own[s.id] for s in spans(name))

    arms = spans("oracle.arm")
    saves, loads = spans("simulate.save"), spans("simulate.load")
    fits, traced_fits = spans("cox.fit"), spans("cox.fit_traced")
    distinct = len({s.attrs["key"] for s in arms})
    csv_bytes = saves[-1].attrs["bytes"] if saves else 0
    save_s, load_s = self_s("simulate.save"), self_s("simulate.load")
    return {
        "oracle.arm_s": self_s("oracle.arm"),
        "oracle.arms_drawn": len(arms),
        "oracle.arms_distinct": distinct,
        "oracle.arm_useful_ratio": distinct / len(arms) if arms else 0.0,
        "oracle.subjects_drawn": sum(s.attrs["n"] for s in arms),
        "oracle.combine_s": self_s("oracle.combine"),
        "oracle.approx_report_s": self_s("oracle.approx_report"),
        "stats.variates_drawn": sum(s.attrs["size"] for s in spans("stats.draw")),
        "stats.draw_s": self_s("stats.draw"),
        "simulate.generate_s": self_s("simulate.generate"),
        "simulate.save_s": save_s,
        "simulate.load_s": load_s,
        "simulate.loads": len(loads),
        "simulate.csv_bytes": csv_bytes,
        "simulate.save_mb_per_s": csv_bytes / 1e6 / save_s if saves else 0.0,
        "simulate.load_mb_per_s": sum(s.attrs["bytes"] for s in loads) / 1e6 / load_s if loads else 0.0,
        "cox.fit_s": self_s("cox.fit"),
        "cox.iterations": fits[-1].attrs["iterations"] if fits else 0,
        "cox.nlpl_eval_s": self_s("cox.nlpl_eval"),
        "cox.breslow_s": self_s("cox.breslow"),
        "cox.fit_peak_mb": traced_fits[-1].attrs["peak_bytes"] / 2**20 if traced_fits else 0.0,
        "backdoor.compute_az_s": self_s("backdoor.compute_az"),
        "backdoor.estimate_s": self_s("backdoor.estimate"),
        "frontdoor.params_s": self_s("frontdoor.params"),
        "frontdoor.estimate_s": self_s("frontdoor.estimate"),
        "cli.self_s": self_s("cli.main"),
    }


def combine_passes(per_pass: list, traced_s: list, untraced_s: list) -> dict:
    """Median of each layer figure over the correct traced passes (0 when
    there are none), plus the tracing overhead: traced minus untraced median
    pass time."""
    if not per_pass:
        per_pass = [dict.fromkeys(LAYER_UNITS, 0)]
    merged = {
        name: (statistics.median_low if LAYER_UNITS[name] in ("count", "bytes") else statistics.median)(
            [p[name] for p in per_pass]
        )
        for name in per_pass[0]
    }
    merged["trace.traced_pipeline_s"] = statistics.median(traced_s)
    merged["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return merged
