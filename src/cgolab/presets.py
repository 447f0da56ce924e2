"""Reference media shared by the test suite and the run configs.

The reference medium is a smooth multi-bump profile confined to the
central sub-box of a 32^3 periodic grid, weak enough for the Neumann
iteration to contract comfortably at moderate conjugation sizes and
strong enough that the contrast experiments have signal.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid
from .media import Medium
from .runconfig import parse_medium

REFERENCE_N = 32
REFERENCE_LENGTH = 2.0 * np.pi
REFERENCE_OMEGA = 1.0
REFERENCE_SHARPNESS = 2.0

#: (amplitude, radius, center offset from the box center) of each bump
_BUMPS = {
    "reference": {
        "eps": [(0.4, 1.45, (-0.1, 0.0, 0.0))],
        "mu": [(0.3, 1.35, (0.15, -0.1, 0.0))],
        "sigma": [(0.2, 1.25, (0.0, 0.0, 0.0))],
    },
    "perturbed": {
        "eps": [(0.25, 1.35, (0.2, 0.1, 0.0))],
        "mu": [(0.35, 1.35, (0.0, 0.0, -0.15))],
        "sigma": [(0.1, 1.25, (-0.1, 0.0, 0.1))],
    },
    "background": {"eps": [], "mu": [], "sigma": []},
}


def reference_grid(n: int = REFERENCE_N) -> Grid:
    return Grid(n, REFERENCE_LENGTH)


def medium_spec(medium: str) -> dict:
    """JSON-ready description of the named medium ("reference", "perturbed" or "background")
    for the run configs: the one description of each, a new document on every call."""
    spec = {"omega": REFERENCE_OMEGA, "eps0": 1.0, "mu0": 1.0}
    for name, bumps in _BUMPS[medium].items():
        spec[f"{name}_bumps"] = [
            {
                "amplitude": amplitude,
                "radius": radius,
                "center_offset": list(offset),
                "sharpness": REFERENCE_SHARPNESS,
            }
            for amplitude, radius, offset in bumps
        ]
    return spec


def _medium(name: str, grid: Grid) -> Medium:
    return parse_medium(medium_spec(name), name, grid.length).build(grid)


def reference_medium(grid: Grid) -> Medium:
    """Two-bump medium (plus a conductivity bump) used across the suite, sampled on ``grid``."""
    return _medium("reference", grid)


def perturbed_medium(grid: Grid) -> Medium:
    """Companion medium for pair experiments, sampled on ``grid``; same background, different bumps."""
    return _medium("perturbed", grid)
