"""The benchmark workloads.

Each workload makes its inputs from the seed (``setup``), runs one timed
repetition (``body``), checks the repetition's outputs (``check``) and, in
the traced run only, times layers its body does not reach (``probe``).
The package is driven only through its public functions and the
``gaussocc`` command line.

* ``fit-street``: one ``fit()`` on the mini-street scene, then one dense
  voxelize of the fitted set. Stresses the dense loss+grad pair kernel and
  dense voxelize; the audit (``metrics``), rays and file I/O do no work.
* ``audit-paper``: indexed voxelize and the utilization audit of a
  generated 2048-Gaussian set on the 200x200x16 paper grid. Stresses the
  cell index, the Monte Carlo coverage loop and pairwise Bhattacharyya
  overlap; no fitting happens.
* ``cli-pipeline``: synth -> fit (additive, random init) -> eval -> audit
  -> rays -> slice, one subprocess each. The only workload that runs the
  rays module and the file formats, and the additive branch of the loss.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gaussocc
from gaussocc import (
    EvalOptions,
    FieldEvaluator,
    FitConfig,
    GaussianSet,
    ParamVector,
    camera_rays,
    fit,
    fit_grad,
    fps_init,
    init_from_grid,
    load_grid,
    miou,
    iou,
    nuscenes_grid_spec,
    occupancy_labels,
    synth_scene,
    utilization_report,
    voxelize,
    voxelize_legacy,
)
from gaussocc.cli import PALETTE
from gaussocc.io import format_number, load_camera, load_gaussian_set, read_key_values, save_camera
from gaussocc.rays import CameraModel

from spans import Tracer, max_rss_mb

# Tolerances against the recorded reference. Keys not listed must match
# exactly: hashes of order-free outputs (voxel labels, the ray labels and
# grid files) and integer counts. Float reductions, the first loss of a fit
# and the loss+grad kernel's gradient get the acceptance suite's 1e-9
# relative tolerance; mIoU after a fit depends on the whole optimization
# trajectory and gets 0.02 absolute.
TOLERANCES = {
    "miou": ("abs", 0.02),
    "iou": ("abs", 0.02),
    "loss0": ("rel", 1e-9),
    "grad_norm": ("rel", 1e-9),
    "grad_proj": ("rel", 1e-9),
    "mean_dist": ("rel", 1e-9),
    "overall_overlap": ("rel", 1e-9),
    "indiv_overlap": ("rel", 1e-9),
    "labels_miou": ("rel", 1e-12),
}

CLI_TIMEOUT_S = 120


@dataclass
class Context:
    root: Path
    seed: int
    tracer: Tracer
    workdir: Path
    reference: dict | None = None  # recorded outputs for this workload and seed


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([lane, seed])


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else np.ascontiguousarray(data).tobytes()).hexdigest()


def _own_miou(pred: np.ndarray, gt: np.ndarray, k: int) -> float:
    """mIoU over non-empty classes present in either grid, from a bincount
    confusion matrix; the oracle for the library's ``miou``."""
    counts = np.bincount(gt.ravel().astype(np.int64) * k + pred.ravel(), minlength=k * k).reshape(k, k)
    tp = np.diag(counts)[1:].astype(np.float64)
    union = (counts.sum(axis=0) + counts.sum(axis=1) - np.diag(counts))[1:]
    return float(np.mean(tp[union > 0] / union[union > 0])) if np.any(union > 0) else 1.0


def _occupied_batch(grid, n: int, rng: np.random.Generator) -> np.ndarray:
    """Half occupied, half empty voxel centers, as ``fit`` samples them."""
    flat = grid.labels_flat
    occ, emp = np.flatnonzero(flat != 0), np.flatnonzero(flat == 0)
    idx = np.concatenate([rng.choice(occ, n // 2), rng.choice(emp, n - n // 2)])
    return grid.spec.all_centers()[idx]


class Workload:
    name = ""
    ops_per_rep = 1

    def setup(self, ctx: Context) -> dict:
        raise NotImplementedError

    def body(self, ctx: Context, inputs: dict) -> dict:
        """One repetition; returns its outputs with ``run_s`` (the timed
        part) and ``voxelize_s`` (the voxelize times taken in it)."""
        raise NotImplementedError

    def resample(self, ctx: Context, inputs: dict, out: dict) -> list[float]:
        """More voxelize times after the timed part, for a steadier
        ``voxelize_s``; may add outputs that ``check`` uses."""
        return []

    def check(self, ctx: Context, inputs: dict, out: dict, first: dict | None) -> list[tuple[str, str | None]]:
        """(check name, failure message or None) pairs."""
        raise NotImplementedError

    def observe(self, ctx: Context, inputs: dict, out: dict) -> dict:
        """Values recorded in, and compared against, the reference file."""
        raise NotImplementedError

    def reference_checks(self, ctx: Context, inputs: dict, out: dict) -> list[tuple[str, str | None]]:
        """One check per value recorded for this seed; none without a record."""
        if ctx.reference is None:
            return []
        observed = self.observe(ctx, inputs, out)
        checks = []
        for key, want in ctx.reference.items():
            got = observed.get(key)
            kind, tol = TOLERANCES.get(key, ("exact", 0.0))
            if kind == "exact":
                ok = got == want
            else:
                close = dict(atol=tol, rtol=0.0) if kind == "abs" else dict(atol=0.0, rtol=tol)
                ok = got is not None and np.shape(got) == np.shape(want) and bool(np.allclose(got, want, **close))
            checks.append((f"reference-{key}", None if ok else f"got {got!r}, recorded {want!r}"))
        return checks

    def probe(self, ctx: Context, inputs: dict, first: dict) -> None:
        """Traced run only, after the repetitions (``first`` holds the first
        one's outputs): time layers the body does not call."""

    def peak_rss_mb(self) -> float:
        return max_rss_mb()


class FitStreet(Workload):
    name = "fit-street"
    ops_per_rep = 2
    # 160 loss+grad steps and three evaluations (iterations 0, 80 and 160)
    # at the CLI's default P=256, batch 1024 and cutoff 25. Real fits
    # evaluate rarely (the CLI every 200 of 1000 iterations), so the
    # loss+grad kernel takes most of the fit, as it does for them.
    config = dict(num_gaussians=256, iterations=160, eval_every=80, batch_points=1024,
                  model="probabilistic", init="grid", cutoff_mahalanobis_sq=25.0)

    def setup(self, ctx):
        with ctx.tracer.span("scenes.synth"):
            grid, _ = synth_scene(ctx.seed)
        return {"grid": grid, "cfg": FitConfig(seed=ctx.seed, **self.config)}

    def body(self, ctx, inputs):
        grid = inputs["grid"]
        start = ctx.tracer.clock()
        with ctx.tracer.span("fit.fit"):
            result = fit(grid, inputs["cfg"])
        # The dense voxelize of the result is voxelize_s, not run_s.
        t0 = ctx.tracer.clock()
        with ctx.tracer.span("grid.voxelize_1t"):
            pred = voxelize(result.gaussians, grid.spec)
        end = ctx.tracer.clock()
        return {"result": result, "pred": pred, "run_s": t0 - start, "voxelize_s": [end - t0],
                "miou": result.final_miou}

    def resample(self, ctx, inputs, out):
        times = []
        for _ in range(2):
            t0 = ctx.tracer.clock()
            with ctx.tracer.span("grid.voxelize_1t"):
                voxelize(out["result"].gaussians, inputs["grid"].spec)
            times.append(ctx.tracer.clock() - t0)
        return times

    def check(self, ctx, inputs, out, first):
        grid, result, pred = inputs["grid"], out["result"], out["pred"]
        if first is not None:
            same = np.array_equal(pred.labels, first["pred"].labels) and out["miou"] == first["miou"]
            return [("repeat-identical", None if same else "fit is not deterministic across repetitions")]
        checks = []
        losses = result.loss_trace
        ok = np.all(np.isfinite(losses)) and losses[-10:].mean() < losses[:10].mean()
        checks.append(("loss-decreases", None if ok else "loss trace is not finite or does not decrease"))
        own = _own_miou(pred.labels, grid.labels, grid.spec.num_classes_total)
        ok = abs(own - result.final_miou) <= 1e-12 and abs(own - miou(pred, grid)) <= 1e-12
        checks.append(("miou-oracle", None if ok else f"final mIoU {result.final_miou} != recomputed {own}"))
        indexed = voxelize(result.gaussians, grid.spec, EvalOptions(neighbor_index=True))
        ok = np.array_equal(indexed.labels, pred.labels)
        checks.append(("indexed-equals-dense", None if ok else "indexed voxelize labels differ from dense"))
        threaded = voxelize(result.gaussians, grid.spec, threads=2)
        ok = np.array_equal(threaded.labels, pred.labels)
        checks.append(("2-threads-equal-1", None if ok else "2-thread voxelize labels differ from 1-thread"))
        return checks + self.reference_checks(ctx, inputs, out)

    def observe(self, ctx, inputs, out):
        grid, cfg = inputs["grid"], inputs["cfg"]
        initial = init_from_grid(grid, cfg)
        init_labels = voxelize(initial, grid.spec, EvalOptions(neighbor_index=True)).labels
        # The loss+grad kernel on a seeded batch, plus the first loss of the
        # fit itself: both fixed up to summation order, so a kernel that
        # drops live pairs or miscomputes a gradient term shows here even
        # when the fitted mIoU stays close. The initial set has identity
        # rotations, equal scales and full opacity, where the rotation
        # gradient vanishes; seeded rotations, scales and opacities make
        # every term count.
        rng = _rng(ctx.seed, 5)
        p = len(initial)
        quats = rng.normal(size=(p, 4))
        varied = dataclasses.replace(
            initial, rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
            scales=initial.scales * np.exp(rng.uniform(-0.5, 0.5, size=(p, 3))),
            opacities=rng.uniform(0.3, 0.9, size=p))
        points = _occupied_batch(grid, cfg.batch_points, rng)
        opts = EvalOptions(cutoff_mahalanobis_sq=cfg.cutoff_mahalanobis_sq)
        grad = fit_grad(ParamVector.encode(varied), grid, points, cfg.model, opts)
        # Each parameter group's gradient projected on a seeded direction:
        # means, log-scales, quaternions, opacity, logits.
        blocks = grad.reshape(p, -1)
        weighted = blocks * rng.standard_normal(blocks.shape)
        groups = (slice(0, 3), slice(3, 6), slice(6, 10), slice(10, 11), slice(11, None))
        return {
            "init_labels_sha256": _sha256(init_labels),
            "miou": out["miou"],
            "loss0": float(out["result"].loss_trace[0]),
            "grad_norm": float(np.linalg.norm(grad)),
            "grad_proj": [float(weighted[:, g].sum()) for g in groups],
        }

    def probe(self, ctx, inputs, first):
        # The thread-pool comparison: 1- and 2-thread dense voxelizes of the
        # fitted set, alternated so that both see the same machine.
        gs, spec = first["result"].gaussians, inputs["grid"].spec
        for _ in range(3):
            for threads in (1, 2):
                with ctx.tracer.span(f"grid.voxelize_{threads}t"):
                    voxelize(gs, spec, threads=threads)


class AuditPaper(Workload):
    name = "audit-paper"
    ops_per_rep = 2
    num_gaussians = 2048
    mc_samples = 20_000
    dense_check_voxels = 2048

    def setup(self, ctx):
        spec = nuscenes_grid_spec(num_classes_total=5)
        with ctx.tracer.span("scenes.synth"):
            grid, _ = synth_scene(ctx.seed, spec=spec)
        centers = grid.occupied_centers()
        labels = grid.occupied_labels().astype(np.int64)
        p = self.num_gaussians
        with ctx.tracer.span("fit.init"):
            idx = fps_init(centers, p, ctx.seed, batched=True)
        rng = _rng(ctx.seed, 1)
        vs = spec.voxel_size
        # Sub-voxel jitter moves some means out of their voxel, so position
        # correctness and nearest distance are not trivially 100% and 0.
        means = centers[idx] + rng.uniform(-0.75, 0.75, size=(p, 3)) * vs
        scales = np.exp(rng.uniform(np.log(0.5), np.log(3.0), size=(p, 3))) * vs
        quats = rng.normal(size=(p, 4))
        logits = rng.normal(size=(p, 4))
        logits[np.arange(p), labels[idx] - 1] += 4.0
        gs = GaussianSet(means=means, scales=scales, rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                         opacities=rng.uniform(0.1, 1.0, size=p), logits=logits)
        return {"grid": grid, "gs": gs}

    def body(self, ctx, inputs):
        grid, gs = inputs["grid"], inputs["gs"]
        start = ctx.tracer.clock()
        with ctx.tracer.span("grid.voxelize_1t"):
            pred = voxelize(gs, grid.spec, EvalOptions(neighbor_index=True))
        t1 = ctx.tracer.clock()
        with ctx.tracer.span("metrics.audit"):
            report = utilization_report(gs, grid, mc_samples=self.mc_samples, seed=ctx.seed)
        end = ctx.tracer.clock()
        return {"pred": pred, "report": report, "run_s": end - start, "voxelize_s": [t1 - start],
                "miou": miou(pred, grid)}

    def _mc_hits(self, inputs, report) -> float:
        gs, spec = inputs["gs"], inputs["grid"].spec
        chi2 = gaussocc.CHI2_3DOF_90
        volumes = (4.0 / 3.0) * np.pi * chi2**1.5 * np.prod(gs.scales, axis=1)
        box = float(np.prod(spec.max_corner - spec.min_corner))
        return self.mc_samples * volumes.sum() / (report.overall_overlap * box)

    def check(self, ctx, inputs, out, first):
        grid, gs, pred, report = inputs["grid"], inputs["gs"], out["pred"], out["report"]
        if first is not None:
            same = np.array_equal(pred.labels, first["pred"].labels) and report == first["report"]
            return [("repeat-identical", None if same else "audit is not deterministic across repetitions")]
        checks = []
        rng = _rng(ctx.seed, 2)
        sample = rng.choice(grid.spec.num_voxels, self.dense_check_voxels, replace=False)
        dense = FieldEvaluator(gs, EvalOptions(), chunk=256).compose(grid.spec.all_centers()[sample])
        ok = np.array_equal(np.argmax(dense, axis=1), pred.labels_flat[sample])
        checks.append(("indexed-equals-dense", None if ok else "indexed labels differ from dense evaluation"))
        own = _own_miou(pred.labels, grid.labels, grid.spec.num_classes_total)
        ok = abs(own - out["miou"]) <= 1e-12
        checks.append(("miou-oracle", None if ok else f"mIoU {out['miou']} != recomputed {own}"))
        idx = np.floor((gs.means - grid.spec.min_corner) / grid.spec.voxel_size).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < grid.spec.resolution), axis=1)
        idx = np.clip(idx, 0, grid.spec.resolution - 1)
        own_perc = 100.0 * np.count_nonzero(inside & (grid.labels[tuple(idx.T)] != 0)) / len(gs)
        ok = own_perc == report.perc_correct
        checks.append(("perc-correct-oracle", None if ok else f"perc_correct {report.perc_correct} != {own_perc}"))
        hits = self._mc_hits(inputs, report)
        ok = abs(hits - round(hits)) < 1e-6 and 0 < round(hits) <= self.mc_samples
        checks.append(("mc-hits-integral", None if ok else f"overall overlap implies {hits} Monte Carlo hits"))
        return checks + self.reference_checks(ctx, inputs, out)

    def observe(self, ctx, inputs, out):
        report = out["report"]
        return {
            "labels_sha256": _sha256(out["pred"].labels),
            "labels_miou": out["miou"],
            "mc_hits": int(round(self._mc_hits(inputs, report))),
            "perc_correct": report.perc_correct,
            "mean_dist": report.mean_dist,
            "overall_overlap": report.overall_overlap,
            "indiv_overlap": report.indiv_overlap,
        }

    def probe(self, ctx, inputs, first):
        # Loss+grad at this workload's P and the fit batch size: the pair
        # kernel's cost at paper-scale P without running a fit.
        grid, gs = inputs["grid"], inputs["gs"]
        params = ParamVector.encode(gs)
        points = _occupied_batch(grid, FitStreet.config["batch_points"], _rng(ctx.seed, 3))
        for _ in range(5):
            fit_grad(params, grid, points)


class CliPipeline(Workload):
    name = "cli-pipeline"
    ops_per_rep = 6
    num_gaussians = 256
    iterations = 30
    mc_samples = 20_000
    outputs = ("street.ogrid", "street.gsocc", "trace.csv", "eval.txt", "audit.json", "labels.txt", "slice.ppm")

    def setup(self, ctx):
        rng = _rng(ctx.seed, 4)
        yaw = rng.uniform(-0.3, 0.3)
        fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        pose = np.eye(4)
        # Camera axes: x right, y down, z forward; the world is z-up.
        pose[:3, 0] = [np.sin(yaw), -np.cos(yaw), 0.0]
        pose[:3, 1] = [0.0, 0.0, -1.0]
        pose[:3, 2] = fwd
        pose[:3, 3] = [rng.uniform(-9.5, -8.5), rng.uniform(-1.0, 1.0), rng.uniform(1.5, 2.0)]
        cam = CameraModel(intrinsics=np.array([[160.0, 0.0, 160.0], [0.0, 160.0, 120.0], [0.0, 0.0, 1.0]]),
                          pose=pose, image_size=(320, 240))
        save_camera(ctx.workdir / "cam.txt", cam)
        with ctx.tracer.span("scenes.synth"):
            grid, _ = synth_scene(ctx.seed)
        return {"grid": grid}

    def commands(self, seed: int) -> list[list[str]]:
        s = str(seed)
        return [
            ["synth", "--recipe", "mini-street", "--seed", s, "--out", "street.ogrid"],
            ["fit", "--gt", "street.ogrid", "--model", "additive", "--init", "random",
             "--gaussians", str(self.num_gaussians), "--iterations", str(self.iterations), "--seed", s,
             "--out", "street.gsocc", "--trace", "trace.csv"],
            ["eval", "--pred-gaussians", "street.gsocc", "--gt", "street.ogrid", "--report", "eval.txt"],
            ["audit", "--gaussians", "street.gsocc", "--gt", "street.ogrid",
             "--mc-samples", str(self.mc_samples), "--seed", s, "--report", "audit.json"],
            ["rays", "--camera", "cam.txt", "--gt", "street.ogrid", "--depth-min", "1", "--depth-max", "18",
             "--num-refs", "64", "--out", "labels.txt"],
            ["slice", "--grid", "street.ogrid", "--axis", "z", "--index", "2", "--out", "slice.ppm"],
        ]

    def _run(self, ctx, argv) -> int:
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # With a random hash seed, the peak RSS of the same `gaussocc fit`
        # varies by up to 7% from process to process; a fixed one makes it
        # repeat.
        env["PYTHONHASHSEED"] = "0"
        spans_file = ctx.workdir / "spans.json"
        if ctx.tracer.enabled:
            cmd = [sys.executable, str(ctx.root / "perfbench" / "traced_cli.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "gaussocc.cli", *argv]
        dump = None
        with ctx.tracer.span("cli." + argv[0]) as rec:
            proc = subprocess.run(cmd, cwd=ctx.workdir, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
            if ctx.tracer.enabled and spans_file.exists():
                dump = json.loads(spans_file.read_text())
                spans_file.unlink()
                # The child's span counting is left out of this span too.
                ctx.tracer.pause(dump["count_s"])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if dump is not None:
            t0 = rec["t0"]
            ctx.tracer.merge([{"name": "cli.import", "parent": None, "t0": t0, "t1": t0 + dump["import_s"],
                               "rss0": 0.0, "rss1": 0.0, "counts": {}}], rec)
            ctx.tracer.merge(dump["spans"], rec)
        return proc.returncode

    def body(self, ctx, inputs):
        start = ctx.tracer.clock()
        with ctx.tracer.span("cli.pipeline") as rec:
            codes = [self._run(ctx, argv) for argv in self.commands(ctx.seed)]
        run_s = ctx.tracer.clock() - start
        written = [ctx.workdir / f for f in self.outputs if (ctx.workdir / f).exists()]
        rec["counts"]["bytes_written"] = sum(path.stat().st_size for path in written)
        hashes = {path.name: _sha256(path.read_bytes()) for path in written}
        out = {"codes": codes, "run_s": run_s, "voxelize_s": [], "hashes": hashes}
        if not any(codes):
            out["miou"] = float(read_key_values(ctx.workdir / "eval.txt")["miou"])
        return out

    def resample(self, ctx, inputs, out):
        # What ``gaussocc eval`` does for an additive set, in process: the
        # voxelize_s figure of this workload.
        if any(out["codes"]):
            return []
        out["gs"] = load_gaussian_set(ctx.workdir / "street.gsocc")
        times = []
        for _ in range(3):
            t0 = ctx.tracer.clock()
            with ctx.tracer.span("grid.voxelize_1t"):
                out["pred"] = voxelize_legacy(out["gs"], inputs["grid"].spec)
            times.append(ctx.tracer.clock() - t0)
        return times

    def check(self, ctx, inputs, out, first):
        checks = [(f"exit-{argv[0]}", None if code == 0 else f"gaussocc {argv[0]} exited {code}")
                  for argv, code in zip(self.commands(ctx.seed), out["codes"])]
        if any(out["codes"]):
            return checks
        if first is not None:
            same = out["hashes"] == first["hashes"] and np.array_equal(out["pred"].labels, first["pred"].labels)
            return checks + [("repeat-identical", None if same else "pipeline outputs differ across repetitions")]
        wd, grid, gs, pred = ctx.workdir, inputs["grid"], out["gs"], out["pred"]

        loaded = load_grid(wd / "street.ogrid")
        ok = loaded.spec.describes_same_grid(grid.spec) and np.array_equal(loaded.labels, grid.labels)
        checks.append(("ogrid-read-back", None if ok else "synth grid file differs from the in-process scene"))
        ok = len(gs) == self.num_gaussians and gs.num_classes == grid.spec.num_classes_total
        checks.append(("gsocc-read-back", None if ok else f"fitted set has shape {len(gs)}x{gs.num_classes}"))
        with open(wd / "trace.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        ok = rows[0] == ["iteration", "loss", "iou", "miou"] and len(rows) == self.iterations + 1 \
            and all(np.isfinite(float(r[1])) for r in rows[1:])
        checks.append(("trace-read-back", None if ok else "trace CSV has the wrong header, length or losses"))
        report = read_key_values(wd / "eval.txt")
        ok = report["iou"] == format_number(iou(pred, grid)) and report["miou"] == format_number(miou(pred, grid))
        checks.append(("eval-report", None if ok else "eval report differs from in-process voxelize_legacy"))
        audit = json.loads((wd / "audit.json").read_text())
        mine = utilization_report(gs, grid, mc_samples=self.mc_samples, seed=ctx.seed)
        ok = all(audit[k] == getattr(mine, k) for k in
                 ("perc_correct", "mean_dist", "overall_overlap", "indiv_overlap", "mc_samples"))
        checks.append(("audit-report", None if ok else "audit report differs from in-process utilization_report"))
        cam = load_camera(wd / "cam.txt")
        origin, dirs = camera_rays(cam)
        depths = np.linspace(1.0, 18.0, 64)
        pts = origin[None, None, :] + depths[None, :, None] * dirs[:, None, :]
        want = occupancy_labels(pts.reshape(-1, 3), grid).reshape(dirs.shape[0], 64)
        # Each row is 64 digits, each followed by a space or, last, a newline.
        raw = np.frombuffer((wd / "labels.txt").read_bytes(), dtype=np.uint8)
        ok = raw.size == want.size * 2
        if ok:
            lines = raw.reshape(want.shape[0], 128)
            ok = np.all(lines[:, 1:-1:2] == ord(" ")) and np.all(lines[:, -1] == ord("\n")) \
                and np.array_equal(lines[:, 0::2] - ord("0"), want)
        checks.append(("rays-labels", None if ok else "ray labels file differs from in-process labels"))
        ppm = (wd / "slice.ppm").read_bytes()
        header = b"P6\n%d %d\n255\n" % (grid.spec.resolution[0], grid.spec.resolution[1])
        palette = np.array([PALETTE[k % len(PALETTE)] for k in range(grid.spec.num_classes_total)], dtype=np.uint8)
        ok = ppm == header + palette[np.take(grid.labels, 2, axis=2).T].tobytes()
        checks.append(("slice-read-back", None if ok else "slice image differs from the grid slice"))
        return checks + self.reference_checks(ctx, inputs, out)

    def observe(self, ctx, inputs, out):
        report = read_key_values(ctx.workdir / "eval.txt")
        with open(ctx.workdir / "trace.csv", newline="", encoding="ascii") as fh:
            first_row = list(csv.reader(fh))[1]
        return {
            "loss0": float(first_row[1]),
            "ogrid_sha256": out["hashes"]["street.ogrid"],
            "rays_sha256": out["hashes"]["labels.txt"],
            "slice_sha256": out["hashes"]["slice.ppm"],
            "iou": float(report["iou"]),
            "miou": float(report["miou"]),
        }

    def peak_rss_mb(self) -> float:
        return max_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (FitStreet, AuditPaper, CliPipeline)}
