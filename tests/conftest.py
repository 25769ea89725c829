"""Shared fixtures and the acceptance-criterion reporter."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from gaussocc.core import GaussianSet
from gaussocc.scenes import synth_scene

# (criterion number, description, passed) records, printed at session end.
_ACCEPTANCE_LOG: list[tuple[int, str, bool]] = []


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        _ACCEPTANCE_LOG.append((number, description, False))
        raise
    _ACCEPTANCE_LOG.append((number, description, True))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE_LOG):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {number:2d}] {status}: {description}")


def traced_peak(fn):
    """``(fn(), the tracemalloc peak in bytes while fn ran)``."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_gaussian_set(rng: np.random.Generator, p: int, c: int, spread: float = 5.0) -> GaussianSet:
    """A valid random set for property tests."""
    return GaussianSet(
        means=rng.uniform(-spread, spread, size=(p, 3)),
        scales=rng.uniform(0.2, 2.0, size=(p, 3)),
        rotations=rng.normal(0.0, 1.0, size=(p, 4)),
        opacities=rng.uniform(0.1, 2.0, size=p),
        logits=rng.normal(0.0, 2.0, size=(p, c)),
    )


@pytest.fixture(scope="session")
def mini_street():
    grid, meta = synth_scene(0)
    return grid, meta
