"""In-memory spans for the traced benchmark run, and the per-layer metrics
derived from them.

A span records a name, start and end (``perf_counter``), the span that was
open when it started, the run phase (``setup``, ``rep``, ``check`` or
``probe``) and the phase's group number (one group per setup repeat or
timed repetition), peak RSS at both ends, and counts attached after the
call returned. Spans come from two places: the benchmark's own calls into
the package, and wrappers that :func:`install_wraps` patches over module
attributes of the package. A wrapper target that no longer exists raises
``AttributeError`` at install time, so renaming a wrapped function fails
the traced run instead of silently dropping a layer.

Span times come from :meth:`Tracer.clock`, which stops while a wrapper
computes its counts, so the counting is left out of every span that is
open at the time and out of the workload times taken with the same clock.
Only the thread that made the tracer records spans; calls on worker
threads run untraced, inside the span of the call that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PHASES = ("rep", "setup", "check", "probe")


def max_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; with ``enabled=False`` every span is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase = "setup"
        self.group = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = 0.0
        self._thread = threading.get_ident()

    def clock(self) -> float:
        """``perf_counter`` minus the time spent computing span counts."""
        return perf_counter() - self._paused

    def pause(self, seconds: float) -> None:
        """Leave ``seconds`` of benchmark bookkeeping out of the clock."""
        self._paused += seconds

    @property
    def paused_s(self) -> float:
        return self._paused

    def recording(self) -> bool:
        return self.enabled and threading.get_ident() == self._thread

    def enter(self, phase: str, group: int) -> None:
        self.phase, self.group = phase, group

    @contextmanager
    def span(self, name: str, **counts):
        if not self.recording():
            yield {"counts": {}}
            return
        rec = {
            "name": name,
            "phase": self.phase,
            "group": self.group,
            "parent": self._open[-1] if self._open else None,
            "t0": self.clock(),
            "t1": None,
            "rss0": max_rss_mb(),
            "counts": dict(counts),
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = self.clock()
            rec["rss1"] = max_rss_mb()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``count(args,
        result)`` runs after the span closes, off the clock, and returns
        extra counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return original(*args, **kwargs)
            with tracer.span(name) as rec:
                result = original(*args, **kwargs)
            if count is not None:
                t0 = perf_counter()
                rec["counts"].update(count(args, result))
                tracer.pause(perf_counter() - t0)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def merge(self, sub_spans: list[dict], under: dict) -> None:
        """Append spans recorded by a child process below span ``under``."""
        base = len(self.spans)
        parent = next(i for i, rec in enumerate(self.spans) if rec is under)
        for rec in sub_spans:
            rec = dict(rec, phase=under["phase"], group=under["group"])
            rec["parent"] = parent if rec["parent"] is None else base + rec["parent"]
            self.spans.append(rec)


# -- wrapper targets -----------------------------------------------------------


def _loss_grad_counts(args, result) -> dict:
    # Pairs inside the cutoff, recomputed from the parameter vector with the
    # local-frame distance the kernel uses; the kernel itself computes all
    # P*N distances (3 float64 coordinates per pair).
    from gaussocc.core import MIN_SCALE, rotation_matrices

    theta, p, ch, points, cutoff = args[0], args[1], args[2], args[3], args[6]
    blk = np.asarray(theta).reshape(p, 11 + ch)
    rot = rotation_matrices(blk[:, 6:10])
    scales = np.maximum(np.exp(blk[:, 3:6]), MIN_SCALE)
    local = (points[None, :, :] - blk[:, None, 0:3]) @ rot / scales[:, None, :]
    d2 = np.einsum("pnk,pnk->pn", local, local)
    n = points.shape[0]
    return {"pairs": p * n, "live": int(np.count_nonzero(d2 <= cutoff)), "bytes": p * n * 3 * 8}


def _d2_counts(args, result) -> dict:
    return {"pairs": int(result.size), "live": int(np.count_nonzero(result <= args[0].opts.cutoff))}


def _points_counts(args, result) -> dict:
    return {"points": int(np.atleast_2d(args[1]).shape[0])}


def _mc_counts(args, result) -> dict:
    lo, hi = (np.asarray(v, dtype=np.float64) for v in args[1])
    samples = int(args[2])
    # The estimate is box_volume * hits / samples; rounding recovers the
    # exact integer hit count.
    return {"samples": samples, "hits": int(round(result * samples / float(np.prod(hi - lo))))}


def _indiv_counts(args, result) -> dict:
    p = len(args[0])
    return {"pairs": p * (p - 1) // 2}


def _labels_counts(args, result) -> dict:
    return {"labels": int(np.atleast_2d(args[0]).shape[0])}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, counter). Library-internal call sites
# resolve these names through module globals, so patching the attribute on
# the module the caller imports it into puts the span at that call.
LIBRARY_WRAPS = (
    ("gaussocc.fit", "_loss_and_grad", "fit.loss_grad", _loss_grad_counts),
    ("gaussocc.fit", "_evaluate", "fit.eval", None),
    ("gaussocc.fit", "init_from_grid", "fit.init", None),
    ("gaussocc.fit", "random_init", "fit.init", None),
    ("gaussocc.field", "FieldEvaluator._d2", "field.d2", _d2_counts),
    ("gaussocc.field", "FieldEvaluator.compose", "field.compose", _points_counts),
    ("gaussocc.field", "FieldEvaluator.legacy", "field.legacy", _points_counts),
    ("gaussocc.field", "_CellIndex.__init__", "field.index_build", None),
    ("gaussocc.metrics", "perc_correct", "metrics.perc_correct", None),
    ("gaussocc.metrics", "mean_nearest_dist", "metrics.nearest_dist", None),
    ("gaussocc.metrics", "overall_overlap", "metrics.overall_overlap", None),
    ("gaussocc.metrics", "mc_coverage_volume", "metrics.mc_coverage", _mc_counts),
    ("gaussocc.metrics", "indiv_overlap", "metrics.indiv_overlap", _indiv_counts),
)

# Call sites inside the command-line module.
CLI_WRAPS = (
    ("gaussocc.cli", "synth_scene", "scenes.synth", None),
    ("gaussocc.cli", "fit", "fit.fit", None),
    ("gaussocc.cli", "voxelize", "grid.voxelize_1t", None),
    ("gaussocc.cli", "voxelize_legacy", "grid.voxelize_1t", None),
    ("gaussocc.cli", "utilization_report", "metrics.audit", None),
    ("gaussocc.cli", "load_grid", "grid.load", _file_bytes),
    ("gaussocc.cli", "save_grid", "grid.save", _file_bytes),
    ("gaussocc.cli", "camera_rays", "rays.camera_rays", None),
    ("gaussocc.cli", "occupancy_labels", "rays.labels", _labels_counts),
    ("gaussocc.io", "save_gaussian_set", "io.gsocc_save", _file_bytes),
    ("gaussocc.io", "load_gaussian_set", "io.gsocc_load", _file_bytes),
    ("gaussocc.io", "load_camera", "io.camera_load", None),
    ("gaussocc.io", "write_report", "io.report_write", _file_bytes),
    ("gaussocc.io", "write_ppm", "io.ppm_write", _file_bytes),
)


def install_wraps(tracer: Tracer, targets) -> None:
    for module_name, path, name, count in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, count)


# -- per-layer metrics -----------------------------------------------------------


def _duration(rec) -> float:
    return rec["t1"] - rec["t0"]


def _select(spans, names, phases=PHASES) -> list[list[dict]]:
    """Spans named in ``names`` from the first phase, in ``phases`` order,
    that recorded any, split by group."""
    for phase in phases:
        chosen = [s for s in spans if s["phase"] == phase and s["name"] in names]
        if chosen:
            groups: dict[int, list[dict]] = {}
            for s in chosen:
                groups.setdefault(s["group"], []).append(s)
            return list(groups.values())
    return []


def _median_per_group(spans, names, fn, phases=PHASES) -> float:
    groups = _select(spans, names, phases)
    return float(statistics.median(fn(g) for g in groups)) if groups else 0.0


def _median_duration(g) -> float:
    return statistics.median(map(_duration, g))


def _total(key=None):
    if key is None:
        return lambda g: sum(_duration(s) for s in g)
    return lambda g: sum(s["counts"].get(key, 0) for s in g)


def _ratio(num, den):
    def fn(g):
        d = den(g)
        return num(g) / d if d else 0.0

    return fn


def _minus_children(spans, child_name=None):
    """Per group: span durations minus the time of their direct children
    (only children named ``child_name``, when given)."""
    under: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None and child_name in (None, s["name"]):
            under[s["parent"]] = under.get(s["parent"], 0.0) + _duration(s)
    index = {id(s): i for i, s in enumerate(spans)}
    return lambda g: sum(_duration(s) - under.get(index[id(s)], 0.0) for s in g)


def _percentile_ms(spans, names, q) -> float:
    durations = [_duration(s) for g in _select(spans, names) for s in g]
    return float(np.percentile(durations, q) * 1000.0) if durations else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    Each is the median over the groups of the first phase that recorded
    the layer, so a workload's timed repetitions win over its set-up,
    checks and probes; a layer the workload never calls reads 0. The two
    voxelize figures prefer the probe, where a workload that compares 1
    and 2 threads samples both alike, one after the other.
    """
    m = _median_per_group
    lg = ("fit.loss_grad",)
    pair_spans = ("fit.loss_grad", "field.d2")
    mc = ("metrics.mc_coverage",)
    indiv = ("metrics.indiv_overlap",)
    probe_first = ("probe",) + tuple(p for p in PHASES if p != "probe")

    def busy(name):
        return m(spans, (name,), _total())

    def rss_delta(g):
        return sum(s["rss1"] - s["rss0"] for s in g)

    metrics = {
        "fit.loss_grad_ms_p50": (_percentile_ms(spans, lg, 50), "ms"),
        "fit.loss_grad_ms_p90": (_percentile_ms(spans, lg, 90), "ms"),
        "fit.loss_grad_calls": (m(spans, lg, len), "count"),
        "fit.d2_bytes_computed": (m(spans, lg, _total("bytes")), "bytes"),
        "fit.eval_s": (busy("fit.eval"), "s"),
        "fit.init_s": (busy("fit.init"), "s"),
        "fit.self_s": (m(spans, ("fit.fit",), _minus_children(spans)), "s"),
        "pairs.total": (m(spans, pair_spans, _total("pairs")), "count"),
        "pairs.live_frac": (m(spans, pair_spans, _ratio(_total("live"), _total("pairs"))), "ratio"),
        "field.compose_points_per_s": (
            m(spans, ("field.compose", "field.legacy"), _ratio(_total("points"), _total())), "1/s"),
        "field.index_build_s": (busy("field.index_build"), "s"),
        "grid.voxelize_1t_s": (m(spans, ("grid.voxelize_1t",), _median_duration, probe_first), "s"),
        "grid.voxelize_2t_s": (m(spans, ("grid.voxelize_2t",), _median_duration, probe_first), "s"),
        "grid.load_s": (busy("grid.load"), "s"),
        "grid.save_s": (busy("grid.save"), "s"),
        "grid.bytes": (m(spans, ("grid.save",), _total("bytes")), "bytes"),
        "io.gsocc_save_s": (busy("io.gsocc_save"), "s"),
        "io.gsocc_load_s": (busy("io.gsocc_load"), "s"),
        "io.bytes_written": (m(spans, ("cli.pipeline",), _total("bytes_written")), "bytes"),
        "metrics.audit_s": (busy("metrics.audit"), "s"),
        "metrics.mc_coverage_s": (busy("metrics.mc_coverage"), "s"),
        "metrics.mc_samples_per_s": (m(spans, mc, _ratio(_total("samples"), _total())), "1/s"),
        "metrics.mc_hits": (m(spans, mc, _total("hits")), "count"),
        "metrics.indiv_overlap_s": (busy("metrics.indiv_overlap"), "s"),
        "metrics.indiv_pairs": (m(spans, indiv, _total("pairs")), "count"),
        "metrics.indiv_rss_delta_mb": (m(spans, indiv, rss_delta), "MB"),
        "metrics.overall_volume_s": (
            m(spans, ("metrics.overall_overlap",), _minus_children(spans, "metrics.mc_coverage")), "s"),
        "metrics.nearest_dist_s": (busy("metrics.nearest_dist"), "s"),
        "metrics.perc_correct_s": (busy("metrics.perc_correct"), "s"),
        "rays.camera_rays_s": (busy("rays.camera_rays"), "s"),
        "rays.labels_per_s": (m(spans, ("rays.labels",), _ratio(_total("labels"), _total())), "1/s"),
        "cli.import_s": (m(spans, ("cli.import",), _median_duration), "s"),
        "scenes.synth_s": (busy("scenes.synth"), "s"),
    }
    for sub in ("synth", "fit", "eval", "audit", "rays", "slice"):
        metrics[f"cli.{sub}_s"] = (busy(f"cli.{sub}"), "s")
    return metrics
