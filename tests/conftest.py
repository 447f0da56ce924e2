import numpy as np
import pytest

from cgolab import presets
from cgolab.fields import Grid
from cgolab.media import derive


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
