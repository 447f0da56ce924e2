import json
from pathlib import Path

import numpy as np
import pytest

from cgolab import presets
from cgolab.fields import Grid
from cgolab.media import derive

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


def bits(a) -> np.ndarray:
    """The uint64 bit patterns of a complex array, so that equality counts signed zeros."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


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
