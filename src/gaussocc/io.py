"""File formats: Gaussian sets, cameras, key=value configs, reports, PPM.

``GSOCC v1`` is the Gaussian set format: one ASCII header line
``GSOCC 1 <P> <C>`` followed by P lines of ``11 + C`` numbers each, the
rows of :meth:`GaussianSet.rows`: mean (3), scale (3), quaternion wxyz
(4), opacity (1), logits (C).
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.

The camera file has three fixed sections: ``fx fy cx cy``, then
``width height``, then four rows of the camera-to-world transform.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Mapping

import numpy as np

from .core import GaussianSet
from .rays import CameraModel


def format_number(value) -> str:
    """Shortest exact decimal for ints, 17 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


# -- GSOCC v1 ----------------------------------------------------------------


@contextmanager
def _text(path, encoding: str):
    """``path`` opened to read as ``encoding`` text; a byte that does not
    decode raises a ValueError that names the file."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def save_gaussian_set(path, gs: GaussianSet) -> None:
    p, c = len(gs), gs.num_classes
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"GSOCC 1 {p} {c}\n")
        for row in gs.rows():
            fh.write(" ".join(format_number(v) for v in row) + "\n")


def load_gaussian_set(path) -> GaussianSet:
    with _text(path, "ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "GSOCC" or header[1] != "1":
            raise ValueError(f"{path}: not a GSOCC v1 file")
        try:
            p, c = int(header[2]), int(header[3])
        except ValueError as exc:
            raise ValueError(f"{path}: bad GSOCC header: {exc}") from None
        if p < 1 or c < 1:
            raise ValueError(f"{path}: GSOCC header needs P >= 1 and C >= 1, got P={p}, C={c}")
        # loadtxt's own rule for data lines; it warns when it finds none.
        lines = [line for line in fh if line.split("#", 1)[0].strip()]
    if not lines:
        raise ValueError(f"{path}: expected {p} rows of {11 + c} numbers, got none")
    try:
        rows = np.loadtxt(lines, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: bad GSOCC row: {exc}") from None
    if rows.shape != (p, 11 + c):
        raise ValueError(f"{path}: expected {p} rows of {11 + c} numbers, got {rows.shape}")
    try:
        return GaussianSet.from_rows(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- camera file ---------------------------------------------------------------


def save_camera(path, cam: CameraModel) -> None:
    k = cam.intrinsics
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(format_number(v) for v in (k[0, 0], k[1, 1], k[0, 2], k[1, 2])) + "\n")
        fh.write(f"{cam.width} {cam.height}\n")
        for row in cam.pose:
            fh.write(" ".join(format_number(v) for v in row) + "\n")


def load_camera(path) -> CameraModel:
    with _text(path, "ascii") as fh:
        tokens = [line.split() for line in fh if line.strip()]
    if len(tokens) != 6:
        raise ValueError(f"{path}: camera file needs 6 lines, found {len(tokens)}")

    def numbers(i: int, what: str, kind: type, count: int) -> list:
        if len(tokens[i]) != count:
            raise ValueError(f"{path}: {what} line needs {count} numbers, got {len(tokens[i])}")
        try:
            return [kind(v) for v in tokens[i]]
        except ValueError as exc:
            raise ValueError(f"{path}: bad {what} line: {exc}") from None

    fx, fy, cx, cy = numbers(0, "intrinsics", float, 4)
    width, height = numbers(1, "size", int, 2)
    pose = np.array([numbers(i, "pose", float, 4) for i in range(2, 6)])
    intrinsics = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    try:
        return CameraModel(intrinsics=intrinsics, pose=pose, image_size=(width, height))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- key=value files -----------------------------------------------------------


def read_key_values(path) -> dict[str, str]:
    """Parse a flat config file; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with _text(path, "utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def write_key_values(path, mapping: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value if isinstance(value, str) else format_number(value)}\n")


def _json_value(v):
    """``v`` as a JSON value; JSON has no NaN or Infinity, so a non-finite
    float is ``None`` (written as null)."""
    if isinstance(v, (float, np.floating)):
        return float(v) if np.isfinite(v) else None
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def write_report(path, mapping: Mapping[str, object]) -> None:
    """Write a metrics report; '.json' paths get the structured variant,
    everything else the flat metric=value form."""
    if str(path).endswith(".json"):
        payload = {k: _json_value(v) for k, v in mapping.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    else:
        write_key_values(path, mapping)


# -- PPM image ------------------------------------------------------------------


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("image must be (H, W, 3)")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
