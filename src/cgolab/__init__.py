"""Spectral toolkit for complex geometrical optics experiments on the
time-harmonic Maxwell system: graded-form algebra, FFT exterior
calculus, the first-order factorization of the medium potential, a
Neumann remainder solver in weighted Fourier norms, and the pairing
experiments of the uniqueness lab."""

__version__ = "0.1.0"

from .fields import FormField, Grid
from .media import Bump, DerivedMedium, Medium, derive
from .cgo import CgoGeometry, CgoSolution, Polarization, make_geometry, solve_cgo
from .uniqueness import MediumPair, make_pair

__all__ = [
    "__version__",
    "FormField",
    "Grid",
    "Bump",
    "DerivedMedium",
    "Medium",
    "derive",
    "CgoGeometry",
    "CgoSolution",
    "Polarization",
    "make_geometry",
    "solve_cgo",
    "MediumPair",
    "make_pair",
]
