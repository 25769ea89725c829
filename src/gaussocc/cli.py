"""Command-line interface.

Subcommands: ``synth`` (build a synthetic labeled grid), ``fit`` (fit a
Gaussian set to a grid), ``eval`` (IoU/mIoU report of a fitted set),
``audit`` (utilization report), ``rays`` (per-pixel occupancy labels) and
``slice`` (PPM image of one grid slice).

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures; all
diagnostics go to stderr. Every subcommand is deterministic under fixed
flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import re
import sys

import numpy as np

from . import io
from .core import _count, _seed
from .fit import INIT_POLICIES, MODELS, FitConfig, fit
# voxelize and voxelize_legacy are not called here: eval goes through the
# one model dispatch. They stay importable from this module because the
# benchmark's traced CLI run (perfbench/spans.py) wraps these names.
from .grid import GridSpec, _voxelize_model, load_grid, save_grid, voxelize, voxelize_legacy  # noqa: F401
from .metrics import ConfusionMatrix, utilization_report
# camera_rays and occupancy_labels are not called here either: rays streams
# pixel ranges through rays.label_text. The benchmark wraps these names too.
from .rays import RaySampling, camera_rays, label_text, occupancy_labels  # noqa: F401
from .scenes import RECIPES, default_grid_spec, synth_scene

# Fixed per-class colors for slice images; class 0 is the dark background.
PALETTE = (
    (28, 28, 28),
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
    (23, 190, 207),
)


class _Parser(argparse.ArgumentParser):
    """Reads negative numbers such as ``-1e1``, ``-inf`` and ``-nan`` as
    values, not options (the argparse pattern has no exponent and no
    special values), so their own checks report them; subparsers are built
    from it too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _checked(check, *args):
    """argparse type of an integer flag that ``check(value, *args)`` accepts:
    :func:`gaussocc.core._seed`, or :func:`gaussocc.core._count` with the
    library's name and bound. Its ValueError becomes a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        try:
            return check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _grid_spec_from_args(args) -> GridSpec:
    base = default_grid_spec()
    if args.res is None and args.min is None and args.max is None:
        return base
    res = args.res if args.res is not None else base.resolution
    lo = args.min if args.min is not None else base.min_corner
    hi = args.max if args.max is not None else base.max_corner
    return GridSpec(
        min_corner=np.asarray(lo, dtype=np.float64),
        max_corner=np.asarray(hi, dtype=np.float64),
        resolution=np.asarray(res, dtype=np.int64),
        num_classes_total=base.num_classes_total,
    )


def cmd_synth(args) -> int:
    spec = _grid_spec_from_args(args)
    grid, meta = synth_scene(args.seed, recipe=args.recipe, spec=spec)
    save_grid(args.out, grid, binary=args.binary)
    counts = meta["class_voxel_counts"]
    _info(f"synth: wrote {args.out} ({sum(v for k, v in counts.items() if k != 0)} occupied voxels)")
    return 0


def cmd_fit(args) -> int:
    gt = load_grid(args.gt)
    cfg = FitConfig.from_file(args.config) if args.config else FitConfig()
    flags = dict(model=args.model, init=args.init, seed=args.seed, iterations=args.iterations,
                 num_gaussians=args.gaussians)
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    result = fit(gt, cfg)
    io.save_gaussian_set(args.out, result.gaussians)
    if args.trace:
        _write_trace(args.trace, result)
    last = result.metrics_trace[-1]
    _info(f"fit: {cfg.model} model, final loss {result.loss_trace[-1]:.4f}, "
          f"iou {last[1]:.4f}, miou {last[2]:.4f}")
    return 0


def _write_trace(path, result) -> None:
    metrics = {it: (io.format_number(i), io.format_number(mi)) for it, i, mi in result.metrics_trace}
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss", "iou", "miou"])
        for t, loss in enumerate(result.loss_trace, start=1):
            writer.writerow([t, io.format_number(float(loss)), *metrics.get(t, ("", ""))])


def cmd_eval(args) -> int:
    gt = load_grid(args.gt)
    gs = io.load_gaussian_set(args.pred_gaussians)
    pred = _voxelize_model(gs, gt.spec)  # the channel count picks the model
    cm = ConfusionMatrix.from_grids(pred, gt)
    report: dict[str, object] = {"iou": cm.iou(), "miou": cm.miou()}
    per_class = cm.per_class_iou()
    for k in range(1, gt.spec.num_classes_total):
        report[f"iou_{k}"] = per_class[k]
    io.write_report(args.report, report)
    _info(f"eval: iou {report['iou']:.4f}, miou {report['miou']:.4f} -> {args.report}")
    return 0


def cmd_audit(args) -> int:
    gt = load_grid(args.gt)
    gs = io.load_gaussian_set(args.gaussians)
    rep = utilization_report(gs, gt, mc_samples=args.mc_samples, seed=args.seed)
    io.write_report(
        args.report,
        {
            "perc_correct": rep.perc_correct,
            "mean_dist": rep.mean_dist,
            "overall_overlap": rep.overall_overlap,
            "indiv_overlap": rep.indiv_overlap,
            "mc_samples": rep.mc_samples,
            "seed": args.seed,
            "mc_stderr": rep.mc_stderr,
        },
    )
    _info(f"audit: perc {rep.perc_correct:.2f}%, dist {rep.mean_dist:.3f} m -> {args.report}")
    return 0


def cmd_rays(args) -> int:
    gt = load_grid(args.gt)
    cam = io.load_camera(args.camera)
    sampling = RaySampling(depth_min=args.depth_min, depth_max=args.depth_max, num_refs=args.num_refs)
    with open(args.out, "wb") as fh:
        for text in label_text(cam, sampling, gt):
            fh.write(text)
    _info(f"rays: wrote {cam.width * cam.height} rays x {sampling.num_refs} labels to {args.out}")
    return 0


def cmd_slice(args) -> int:
    grid = load_grid(args.grid)
    axis = "xyz".index(args.axis)
    if not 0 <= args.index < grid.spec.resolution[axis]:
        raise ValueError(
            f"slice index {args.index} outside axis {args.axis} resolution "
            f"{grid.spec.resolution[axis]}"
        )
    plane = np.take(grid.labels, args.index, axis=axis)
    palette = np.array(
        [PALETTE[k % len(PALETTE)] for k in range(grid.spec.num_classes_total)], dtype=np.uint8
    )
    # Rows run along the later remaining axis so the image is (dim2, dim1).
    rgb = palette[plane.T]
    io.write_ppm(args.out, rgb)
    _info(f"slice: wrote {rgb.shape[1]}x{rgb.shape[0]} image to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussocc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled grid")
    p.add_argument("--recipe", choices=sorted(RECIPES), default="mini-street")
    p.add_argument("--seed", type=_checked(_seed), default=0)
    p.add_argument("--res", type=int, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--min", type=float, nargs=3, metavar=("MINX", "MINY", "MINZ"))
    p.add_argument("--max", type=float, nargs=3, metavar=("MAXX", "MAXY", "MAXZ"))
    p.add_argument("--binary", action="store_true", help="write uint16 labels instead of text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a Gaussian set to a reference grid")
    p.add_argument("--gt", required=True)
    p.add_argument("--config", help="key=value fit configuration file")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--init", choices=INIT_POLICIES)
    p.add_argument("--seed", type=_checked(_seed))
    p.add_argument("--iterations", type=_checked(_count, "iterations"))
    p.add_argument("--gaussians", type=_checked(_count, "num_gaussians"))
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="CSV loss/metric trace destination")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="IoU/mIoU report for a fitted set")
    p.add_argument("--pred-gaussians", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="utilization report for a Gaussian set")
    p.add_argument("--gaussians", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mc-samples", type=_checked(_count, "mc_samples"), default=1_000_000)
    p.add_argument("--seed", type=_checked(_seed), default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("rays", help="per-pixel occupancy labels along camera rays")
    p.add_argument("--camera", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--depth-min", type=float, default=1.0)
    p.add_argument("--depth-max", type=float, default=51.2)
    p.add_argument("--num-refs", type=_checked(_count, "num_refs", 2), default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("slice", help="PPM image of one grid slice")
    p.add_argument("--grid", required=True)
    p.add_argument("--axis", choices=("x", "y", "z"), required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slice)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> 1; argparse already exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
