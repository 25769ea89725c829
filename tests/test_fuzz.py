"""Mutation fuzzing of the files the CLI reads: a damaged grid, camera,
Gaussian set or fit-config file must fail with a ValueError, never another
exception or a warning."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussocc.core import GaussianSet
from gaussocc.fit import FitConfig
from gaussocc.grid import GridSpec, VoxelGrid, load_grid, save_grid
from gaussocc.io import load_camera, load_gaussian_set, save_camera, save_gaussian_set, write_key_values
from gaussocc.rays import CameraModel

# Tokens that probe the number parsers: out-of-range labels and sizes,
# non-finite and malformed numbers, non-ASCII bytes.
_TOKENS = (
    b"0", b"1", b"-1", b"2", b"70000", b"65535", b"99999999999999999999999", b"1e999",
    b"-1e999", b"nan", b"inf", b"0.5", b"1_0", b"0x10", b"x", b"\xff", b"\xd9\xa1", b"",
)


@st.composite
def _mutations(draw, base: bytes) -> bytes:
    data = base
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("token", "byte", "insert", "delete", "truncate", "line")))
        if kind == "token":
            parts = re.split(rb"(\s+)", data)
            words = [i for i, part in enumerate(parts) if part and not part.isspace()]
            if words:
                parts[draw(st.sampled_from(words))] = draw(st.sampled_from(_TOKENS))
                data = b"".join(parts)
        elif kind == "line":
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            data = b"\n".join(lines)
        elif not data:
            data = draw(st.binary(max_size=8))
        else:
            pos = draw(st.integers(0, len(data) - 1))
            if kind == "byte":
                data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1 :]
            elif kind == "insert":
                data = data[:pos] + draw(st.binary(min_size=1, max_size=8)) + data[pos:]
            elif kind == "delete":
                data = data[:pos] + data[pos + draw(st.integers(1, 16)) :]
            else:
                data = data[:pos]
    return data


def _grid_bytes(tmp_path, binary: bool) -> bytes:
    spec = GridSpec(
        min_corner=np.array([-1.0, 0.0, 0.0]),
        max_corner=np.array([1.0, 2.0, 0.5]),
        resolution=np.array([3, 2, 2]),
        num_classes_total=3,
    )
    labels = np.array([0, 1, 2, 0, 0, 1, 2, 2, 0, 1, 0, 0], dtype=np.uint16)
    path = tmp_path / "valid.ogrid"
    save_grid(path, VoxelGrid(spec=spec, labels=labels), binary=binary)
    return path.read_bytes()


def _camera_bytes(tmp_path) -> bytes:
    pose = np.eye(4)
    pose[:3, 3] = [1.5, -2.0, 0.25]
    cam = CameraModel(
        intrinsics=np.array([[20.0, 0, 8.0], [0, 20.0, 6.0], [0, 0, 1]]), pose=pose, image_size=(16, 12)
    )
    path = tmp_path / "valid.cam"
    save_camera(path, cam)
    return path.read_bytes()


def _gaussians_bytes(tmp_path) -> bytes:
    gs = GaussianSet(
        means=[[0.5, -1.0, 2.0], [1.0, 1.0, 0.25]],
        scales=[[0.5, 0.25, 1.0], [2.0, 2.0, 0.125]],
        rotations=[[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5]],
        opacities=[0.75, 1.0],
        logits=[[1.5, -2.0], [0.0, 3.0]],
    )
    path = tmp_path / "valid.gsocc"
    save_gaussian_set(path, gs)
    return path.read_bytes()


def _fit_config_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.cfg"
    write_key_values(path, FitConfig(num_gaussians=12, iterations=30, lr_min=0.001, model="additive").to_dict())
    # Spaces around '=' make each value a token of its own for the mutations.
    return path.read_bytes().replace(b"=", b" = ")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return tmp, {
        "text-grid": _grid_bytes(tmp, binary=False),
        "binary-grid": _grid_bytes(tmp, binary=True),
        "camera": _camera_bytes(tmp),
        "gaussians": _gaussians_bytes(tmp),
        "fit-config": _fit_config_bytes(tmp),
    }


def _load_fit_config(path) -> FitConfig:
    """Read a fit config; one that is accepted holds only usable numbers."""
    cfg = FitConfig.from_file(path)
    numbers = [cfg.learning_rate, cfg.lr_min, cfg.weight_decay, cfg.init_logit_scale, cfg.occupied_ratio]
    assert np.all(np.isfinite(numbers)), cfg
    assert cfg.cutoff_mahalanobis_sq is None or cfg.cutoff_mahalanobis_sq > 0.0, cfg
    return cfg


_LOADERS = {
    "text-grid": load_grid,
    "binary-grid": load_grid,
    "camera": load_camera,
    "gaussians": load_gaussian_set,
    "fit-config": _load_fit_config,
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_raises_only_value_error(files, kind, data):
    tmp, valid = files
    path = tmp / f"mutated-{kind}"
    path.write_bytes(data.draw(_mutations(valid[kind]), label="file"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _LOADERS[kind](path)
        except ValueError:
            pass


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_unmutated_file_loads(files, kind):
    tmp, valid = files
    path = tmp / f"valid-{kind}"
    path.write_bytes(valid[kind])
    _LOADERS[kind](path)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("wide.ogrid", b"OGRID 1 2 1 1 70001 0 0 0 2 1 1\n0 70000\n", r"wide\.ogrid: a label exceeds the uint16 range"),
        ("huge.ogrid", b"OGRID 1 99999999999999999999999 1 1 3 0 0 0 2 1 1\n0\n", r"huge\.ogrid: bad OGRID header"),
        ("nan.cam", b"nan 20 8 6\n16 12\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", "intrinsics and pose must be finite"),
        ("inf.ogrid", b"OGRID 1 2 1 1 3 0 0 0 inf 1 1\n0 1\n", r"inf\.ogrid: bad OGRID header: max_corner must be finite"),
    ],
)
def test_out_of_range_values_are_named(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError, match=message):
        (load_camera if name.endswith(".cam") else load_grid)(path)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("empty.gsocc", b"GSOCC 1 0 4\n", r"empty\.gsocc: GSOCC header needs P >= 1 and C >= 1, got P=0, C=4"),
        ("negative.gsocc", b"GSOCC 1 -2 4\n1 2\n", r"negative\.gsocc: GSOCC header needs P >= 1"),
        ("classless.gsocc", b"GSOCC 1 1 0\n0 0 0 1 1 1 1 0 0 0 1\n", r"classless\.gsocc: GSOCC header needs"),
        ("bodiless.gsocc", b"GSOCC 1 2 1\n# no rows\n\n", r"bodiless\.gsocc: expected 2 rows of 12 numbers, got none"),
        ("spin.gsocc", b"GSOCC 1 1 1\n0 0 0 1 1 1 1e200 0 0 0 1 0\n", "quaternion norm overflows"),
        ("rate.cfg", b"learning_rate = nan\n", "learning_rate must be finite"),
        ("decay.cfg", b"weight_decay = nan\n", "weight_decay must be finite"),
        ("cutoff.cfg", b"cutoff_mahalanobis_sq = nan\n", "cutoff_mahalanobis_sq must be > 0"),
        ("seed.cfg", b"seed = 18446744073709551616\n", r"seed must be >= 0 and < 2\*\*64"),
    ],
)
def test_gaussian_set_and_config_faults_are_named(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            (FitConfig.from_file if name.endswith(".cfg") else load_gaussian_set)(path)
