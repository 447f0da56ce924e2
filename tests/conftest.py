import contextlib
import json
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from cgolab import media, presets
from cgolab.algebra import BLADE_INDEX
from cgolab.fields import FormField, Grid
from cgolab.media import DerivedMedium, Medium, derive

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_config(kind: str) -> dict:
    """The run config ``configs/reference_{kind}.json``, a new document on
    every call."""
    return json.loads((CONFIGS / f"reference_{kind}.json").read_text())


#: the fields a DerivedMedium forms on their first read
LAZY_FIELDS = ("da3", "db3", "hess_a", "hess_b")


def form_lazy_fields(*dms) -> None:
    """Read every lazily formed field of the media, so that a memory trace
    started next does not count the forming of one, whatever ran before."""
    for dm in dms:
        for name in LAZY_FIELDS:
            getattr(dm, name)


@pytest.fixture
def lockless_lazy_fields(monkeypatch):
    """The interpreters from Python 3.12 on: no cached_property of DerivedMedium takes a lock of its
    own while it forms its value.  media._hessian is slowed by 50 ms, so that two threads that read
    one Hessian both start to form it before either stores it."""
    for attr in vars(DerivedMedium).values():
        if isinstance(attr, cached_property):
            monkeypatch.setattr(attr, "lock", contextlib.nullcontext(), raising=False)
    hessian = media._hessian
    monkeypatch.setattr(media, "_hessian", lambda grid, s: time.sleep(0.05) or hessian(grid, s))


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory traced while it ran); tracing stops even when fn raises."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coordinates(grid) -> np.ndarray:
    """The physical coordinates of every grid point as one (3, n, n, n) stack, formed apart from ``Grid.axes``."""
    t = np.arange(grid.n) * (grid.length / grid.n)
    return np.stack(np.meshgrid(t, t, t, indexing="ij"))


def bits(a) -> np.ndarray:
    """The uint64 bit patterns of a complex array, so that equality counts signed zeros."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def blade(indices, c=1.0) -> np.ndarray:
    """The graded form (8,) that holds c on the blade of the given indices and 0 elsewhere."""
    out = np.zeros(8, dtype=complex)
    out[BLADE_INDEX[tuple(indices)]] = c
    return out


def constant(grid, form) -> FormField:
    """The field that holds the graded form (8,) at every point of the grid."""
    values = np.empty((8, grid.n, grid.n, grid.n), dtype=complex)
    values[...] = np.reshape(form, (8, 1, 1, 1))
    return FormField(grid, values)


def derive_background(grid, omega, eps0=1.0, mu0=1.0):
    """The derived homogeneous medium with permittivity eps0 and permeability mu0."""
    return derive(Medium.from_bumps(grid, omega, eps0, mu0))


@pytest.fixture(scope="session")
def grid16():
    return Grid(16, 2.0 * np.pi)


@pytest.fixture(scope="session")
def dm16(grid16):
    return derive(presets.reference_medium(grid16))


@pytest.fixture(scope="session")
def grid32():
    return presets.reference_grid()


@pytest.fixture(scope="session")
def dm32(grid32):
    return derive(presets.reference_medium(grid32))
