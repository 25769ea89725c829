"""Hash gaussocc's outputs over a fixed input matrix, or compare two hash files.

    PYTHONPATH=src python tools/output_hashes.py --out hashes.json [--size small]
    PYTHONPATH=src python tools/output_hashes.py --compare parent.json change.json

Each entry names one output and holds the sha256 of its raw bytes, or the
``float.hex`` of a scalar loss, so two runs agree on an entry only when the
output is bit-identical. The matrix:

* ``synth_scene`` labels of every recipe on the default, nuScenes,
  KITTI-360 and an odd-sized grid;
* batched ``fps_init`` picks on the nuScenes and KITTI-360 mini-street
  occupied centers;
* ``voxelize`` and ``voxelize_legacy`` labels of a seeded set at cutoffs 25
  and none (the no-cutoff case on a small grid);
* the six ``FieldEvaluator`` outputs on random points and on voxel centers
  at both cutoffs, and on random points against a set of large Gaussians
  (2-4 m on the 20 m mini-street grid), whose candidate pairs fill
  several ranges of about 2^17 at both cutoffs;
* the utilization report;
* the loss bits and gradients of seeded batches, and short fits, for each
  model and cutoff;
* ``camera_rays`` directions and the ``gaussocc rays`` file of two cameras
  on the mini-street grid: one inside it whose rays leave it, one outside
  it;
* the bytes of the other ``gaussocc`` outputs on that grid: the ``fit``
  GSOCC file and ``--trace`` CSV of each model, the flat and ``.json``
  ``eval`` and ``audit`` reports of those sets, and ``slice`` PPMs.

Gradients also keep their raw values, so ``--compare`` prints, for each
gradient that differs, its largest difference relative to its largest
entry. ``--compare`` exits with 1 when any entry differs, and then counts
the exact and the float entries that differ apart; it reads only the two
files, so it needs no ``PYTHONPATH``.

An entry is exact when its output is order-free (:func:`exact`): labels,
voxelizations, synth scenes, farthest-point picks and slice images. Their
bits must not depend on the machine. The float entries depend on the BLAS
kernel and the SIMD loops that numpy picks at run time: compare those only
between files written on one machine.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

CUTOFFS = {"25": 25.0, "none": None}
MODELS = ("probabilistic", "additive")
FIELD_METHODS = ("alpha", "semantics", "compose", "legacy", "compose_labels", "legacy_labels")
# Per size: Gaussians, query points, synth seeds, loss batches, fit iterations, MC samples,
# the farthest-point sample counts on the paper grids, the rays image size, and the
# large Gaussians and their query points.
SIZES = {
    "small": dict(gaussians=24, points=200, seeds=1, batches=1, iterations=3, mc_samples=2000, fps=(64,),
                  image=(80, 60), large=(192, 2000)),
    "full": dict(gaussians=256, points=2000, seeds=3, batches=3, iterations=30, mc_samples=20_000,
                 fps=(2048, 6400), image=(1600, 900), large=(1024, 4000)),
}


def exact(name: str) -> bool:
    """Whether entry ``name`` is order-free, so that any machine gives its bits."""
    return name.endswith("labels") or name.startswith(("voxelize", "synth/", "fps/", "cli/slice/"))


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _odd_spec(num_classes_total: int = 5):
    from gaussocc import GridSpec

    return GridSpec(min_corner=np.array([-10.3, -4.1, 0.0]), max_corner=np.array([10.0, 4.1, 8.0]),
                    resolution=np.array([203, 41, 16]), num_classes_total=num_classes_total)


def _small_spec(num_classes_total: int = 5):
    from gaussocc import GridSpec

    return GridSpec(min_corner=np.array([-10.0, -10.0, 0.0]), max_corner=np.array([10.0, 10.0, 8.0]),
                    resolution=np.array([20, 20, 8]), num_classes_total=num_classes_total)


def _seeded_set(grid, p: int, channels: int, seed: int, scales=(0.5, 3.0)):
    """Gaussians on occupied voxels, jittered, with random rotations,
    opacities and logits, and scales log-uniform in ``scales`` voxels."""
    from gaussocc import GaussianSet, fps_init

    rng = np.random.default_rng(seed)
    centers = grid.occupied_centers()
    vs = grid.spec.voxel_size
    means = centers[fps_init(centers, p, seed)] + rng.uniform(-0.75, 0.75, size=(p, 3)) * vs
    quats = rng.normal(size=(p, 4))
    return GaussianSet(means=means, scales=np.exp(rng.uniform(np.log(scales[0]), np.log(scales[1]), size=(p, 3))) * vs,
                       rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
                       opacities=rng.uniform(0.1, 1.0, size=p), logits=rng.normal(0.0, 2.0, size=(p, channels)))


def output_hashes(size: str = "full") -> dict:
    """``{"size", "numpy", "entries", "gradients"}``: the entry hashes and
    the base64 float64 bytes of each gradient."""
    from gaussocc import (
        RECIPES,
        EvalOptions,
        FieldEvaluator,
        FitConfig,
        ParamVector,
        default_grid_spec,
        fit,
        fit_grad,
        fit_loss,
        fps_init,
        kitti360_grid_spec,
        nuscenes_grid_spec,
        synth_scene,
        utilization_report,
        voxelize,
        voxelize_legacy,
    )

    cfg = SIZES[size]
    entries: dict[str, str] = {}
    gradients: dict[str, str] = {}
    grids = {"default": default_grid_spec(), "nuscenes": nuscenes_grid_spec(5), "kitti360": kitti360_grid_spec(5),
             "odd": _odd_spec()}
    for name, spec in grids.items():
        for recipe in sorted(RECIPES):
            for seed in range(cfg["seeds"]):
                grid, _ = synth_scene(seed, recipe, spec)
                entries[f"synth/{name}/{recipe}/{seed}"] = _sha256(grid.labels)
    for name in ("nuscenes", "kitti360"):
        centers = synth_scene(0, spec=grids[name])[0].occupied_centers()
        for p in cfg["fps"]:
            entries[f"fps/{name}/{p}"] = _sha256(fps_init(centers, p, 0, batched=True))

    gt, _ = synth_scene(0)
    small = _small_spec()
    p = cfg["gaussians"]
    semantic = gt.spec.num_classes_total - 1
    sets = {"probabilistic": _seeded_set(gt, p, semantic, 1), "additive": _seeded_set(gt, p, semantic + 1, 2)}
    for key, cutoff in CUTOFFS.items():
        opts = EvalOptions(cutoff_mahalanobis_sq=cutoff)
        spec = gt.spec if cutoff is not None else small
        entries[f"voxelize/{key}"] = _sha256(voxelize(sets["probabilistic"], spec, opts).labels)
        entries[f"voxelize_legacy/{key}"] = _sha256(voxelize_legacy(sets["additive"], spec, opts).labels)

    points = np.random.default_rng(3).uniform(gt.spec.min_corner - 1.0, gt.spec.max_corner + 1.0,
                                              size=(cfg["points"], 3))
    for key, cutoff in CUTOFFS.items():
        ev = FieldEvaluator(sets["probabilistic"], EvalOptions(cutoff_mahalanobis_sq=cutoff))
        for where, at in (("points", points), ("centers", small)):
            for method in FIELD_METHODS:
                entries[f"field/{key}/{where}/{method}"] = _sha256(getattr(ev, method)(at))

    p_large, n_large = cfg["large"]
    large = _seeded_set(gt, p_large, semantic, 6, scales=(4.0, 8.0))
    large_points = np.random.default_rng(7).uniform(gt.spec.min_corner, gt.spec.max_corner, size=(n_large, 3))
    for key, cutoff in CUTOFFS.items():
        ev = FieldEvaluator(large, EvalOptions(cutoff_mahalanobis_sq=cutoff))
        for method in FIELD_METHODS:
            entries[f"field/large/{key}/points/{method}"] = _sha256(getattr(ev, method)(large_points))

    report = utilization_report(sets["probabilistic"], gt, mc_samples=cfg["mc_samples"], seed=4)
    entries["utilization_report"] = json.dumps(
        {k: v.hex() if isinstance(v, float) else v for k, v in dataclasses.asdict(report).items()}, sort_keys=True)

    for model in MODELS:
        pv = ParamVector.encode(sets[model])
        for key, cutoff in CUTOFFS.items():
            opts = EvalOptions(cutoff_mahalanobis_sq=cutoff)
            for batch in range(cfg["batches"]):
                idx = np.random.default_rng(10 + batch).integers(0, gt.spec.num_voxels, size=1024)
                pts, tag = gt.spec.take(idx), f"{model}/{key}/{batch}"
                entries[f"loss/{tag}"] = fit_loss(pv, gt, pts, model, opts).hex()
                grad = fit_grad(pv, gt, pts, model, opts)
                entries[f"grad/{tag}"] = _sha256(grad)
                gradients[f"grad/{tag}"] = base64.b64encode(grad.tobytes()).decode("ascii")
            fitted = fit(gt, FitConfig(num_gaussians=p, iterations=cfg["iterations"], model=model,
                                       cutoff_mahalanobis_sq=cutoff, seed=5))
            entries[f"fit/{model}/{key}/loss_trace"] = _sha256(fitted.loss_trace)
            entries[f"fit/{model}/{key}/gaussians"] = _sha256(fitted.gaussians.rows())
            entries[f"fit/{model}/{key}/metrics_trace"] = _sha256(np.array(fitted.metrics_trace, dtype=np.float64))
    entries.update(_cli_entries(gt, cfg))
    return {"size": size, "numpy": np.__version__, "entries": entries, "gradients": gradients}


def _cli_entries(gt, cfg) -> dict[str, str]:
    """The bytes of ``gaussocc`` output files on ``gt``, each command run
    in-process through ``gaussocc.cli.main``: ``camera_rays`` directions
    and the ``rays`` file of two cameras (one inside the grid, looking
    along +x so that its rays leave it, and one above and behind it,
    looking down along +x); for each model, the ``fit`` GSOCC file and
    ``--trace`` CSV, and the flat and ``.json`` ``eval`` and ``audit``
    reports of that set; and a ``slice`` PPM across each axis."""
    from gaussocc import CameraModel, camera_rays
    from gaussocc.cli import main as gaussocc_main
    from gaussocc.grid import save_grid
    from gaussocc.io import save_camera

    width, height = cfg["image"]
    f = 0.8 * width
    k = np.array([[f, 0.0, width / 2], [0.0, f, height / 2], [0.0, 0.0, 1.0]])
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        def run(name, *argv):
            """Run one command and return the path of its output file ``name``."""
            out = os.path.join(tmp, name)
            code = gaussocc_main([str(a) for a in (*argv, out)])
            if code != 0:
                raise RuntimeError(f"gaussocc {' '.join(map(str, argv))} exited {code}")
            return out

        grid_path = os.path.join(tmp, "gt.ogrid")
        cam_path = os.path.join(tmp, "cam.txt")
        save_grid(grid_path, gt, binary=True)
        for name, position, pitch in (("inside", (-9.0, 0.5, 1.7), 0.0), ("outside", (-14.0, 0.5, 11.0), 0.6)):
            # Camera axes: x right, y down, z forward; the world is z-up.
            pose = np.eye(4)
            pose[:3, 0] = [0.0, -1.0, 0.0]
            pose[:3, 1] = [-np.sin(pitch), 0.0, -np.cos(pitch)]
            pose[:3, 2] = [np.cos(pitch), 0.0, -np.sin(pitch)]
            pose[:3, 3] = position
            cam = CameraModel(intrinsics=k, pose=pose, image_size=cfg["image"])
            entries[f"rays/{name}/directions"] = _sha256(camera_rays(cam)[1])
            save_camera(cam_path, cam)
            entries[f"rays/{name}/labels"] = _file_sha256(
                run("labels.txt", "rays", "--camera", cam_path, "--gt", grid_path, "--out"))
        for model in MODELS:
            trace = os.path.join(tmp, "trace.csv")
            gaussians = run("set.gsocc", "fit", "--gt", grid_path, "--model", model, "--gaussians", cfg["gaussians"],
                            "--iterations", cfg["iterations"], "--seed", 5, "--trace", trace, "--out")
            entries[f"cli/fit/{model}/gsocc"] = _file_sha256(gaussians)
            entries[f"cli/fit/{model}/trace"] = _file_sha256(trace)
            for report in ("report.txt", "report.json"):
                entries[f"cli/eval/{model}/{report}"] = _file_sha256(
                    run(report, "eval", "--pred-gaussians", gaussians, "--gt", grid_path, "--report"))
                entries[f"cli/audit/{model}/{report}"] = _file_sha256(
                    run(report, "audit", "--gaussians", gaussians, "--gt", grid_path, "--mc-samples",
                        cfg["mc_samples"], "--seed", 4, "--report"))
        for axis, n in zip("xyz", gt.spec.resolution):
            entries[f"cli/slice/{axis}"] = _file_sha256(
                run("slice.ppm", "slice", "--grid", grid_path, "--axis", axis, "--index", n // 2, "--out"))
    return entries


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 20), b""):
            digest.update(piece)
    return digest.hexdigest()


def compare(a: dict, b: dict) -> list[str]:
    """One line per entry that differs between two hash files or is in one
    only; a gradient line adds its largest relative difference."""
    lines = []
    if (a.get("size"), a.get("numpy")) != (b.get("size"), b.get("numpy")):
        lines.append(f"note: size/numpy {a.get('size')}/{a.get('numpy')} against {b.get('size')}/{b.get('numpy')}")
    ea, eb = a["entries"], b["entries"]
    for name in sorted(ea.keys() | eb.keys()):
        if name not in ea or name not in eb:
            lines.append(f"{name}: only in {'the first' if name in ea else 'the second'} file")
        elif ea[name] != eb[name]:
            line = f"{name}: differs"
            ga, gb = a["gradients"].get(name), b["gradients"].get(name)
            if ga is not None and gb is not None:
                x, y = (np.frombuffer(base64.b64decode(g), dtype=np.float64) for g in (ga, gb))
                if x.shape == y.shape:
                    line += f" (max |a - b| / max |a| = {np.max(np.abs(x - y)) / max(np.max(np.abs(x)), 1e-300):.3e})"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the hashes of this tree's outputs to this JSON file")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the entries that differ between two files")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(output_hashes(args.size), fh, indent=1, sort_keys=True)
        return 0
    files = []
    for path in args.compare:
        with open(path) as fh:
            files.append(json.load(fh))
    lines = compare(*files)
    differing = [line.split(":", 1)[0] for line in lines if not line.startswith("note:")]
    if differing:
        names = files[0]["entries"].keys() | files[1]["entries"].keys()
        lines.append("; ".join(f"{kind}: {sum(exact(n) == is_exact for n in differing)} of "
                               f"{sum(exact(n) == is_exact for n in names)} entries differ"
                               for kind, is_exact in (("exact", True), ("float", False))))
    print("\n".join(lines + [f"{len(differing)} of {len(files[0]['entries'])} entries differ"]))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
