"""Electromagnetic media and the rescaled first-order Maxwell machinery.

A medium carries permittivity, permeability and conductivity samples on
the periodic grid, all constant (at their background values) outside the
central sub-box.  Deriving a medium produces the combined coefficient
``gamma = eps + i sigma / omega``, the half-log fields a = log(gamma)/2
and b = log(mu)/2 with their spectral gradients, and the background
wavenumber ``k = omega sqrt(eps0 mu0)``.

The first-order operator and its formal transpose act on graded fields;
their compositions factor through the Hodge-Helmholtz operator, which
is how the zeroth-order potentials are realized here.  The weak six-term
integral form of the potential is kept as an independent pairing used to
cross-check the factorization route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, fields
from .errors import CoefficientError
from .fields import (
    FormField,
    Grid,
    coderiv,
    conj_laplacian,
    d_plus_delta,
    ext_deriv,
    quadrature_pairing,
    sym_coderiv,
    sym_product_field,
)


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported radial bump, C-infinity in the box.

    Profile amplitude * exp(sharpness * (1 - 1/(1 - (r/radius)^2)))
    inside radius, identically zero outside.
    """

    amplitude: float
    radius: float
    center: tuple | None = None
    sharpness: float = 1.0

    def sample(self, grid: Grid) -> np.ndarray:
        center = np.asarray(self.center if self.center is not None else [grid.length / 2] * 3)
        r2 = np.sum((grid.x - center.reshape(3, 1, 1, 1)) ** 2, axis=0) / self.radius**2
        out = np.zeros((grid.n,) * 3)
        inside = r2 < 1.0
        with np.errstate(divide="ignore"):
            out[inside] = self.amplitude * np.exp(
                self.sharpness * (1.0 - 1.0 / (1.0 - r2[inside]))
            )
        return out


def sample_bumps(grid: Grid, bumps) -> np.ndarray:
    total = np.zeros((grid.n,) * 3)
    for bump in bumps:
        total += bump.sample(grid)
    return total


class Medium:
    """Scalar coefficient samples eps, mu, sigma plus background constants."""

    def __init__(self, grid, omega, eps0, mu0, eps, mu, sigma, check_support=True):
        if omega <= 0 or eps0 <= 0 or mu0 <= 0:
            raise ValueError("omega, eps0 and mu0 must be positive")
        eps = np.asarray(eps, dtype=float)
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        for name, arr in (("eps", eps), ("mu", mu), ("sigma", sigma)):
            if arr.shape != (grid.n,) * 3:
                raise ValueError(f"{name} must be sampled on the grid")
        if np.min(eps) < eps0:
            raise CoefficientError("eps", "eps must be >= eps0 everywhere")
        if np.min(mu) < mu0:
            raise CoefficientError("mu", "mu must be >= mu0 everywhere")
        if np.min(sigma) < 0:
            raise CoefficientError("sigma", "sigma must be nonnegative")
        if check_support:
            tol = 1e-12 * max(eps0, mu0, 1.0)
            for name, arr, bg in (("eps", eps, eps0), ("mu", mu, mu0), ("sigma", sigma, 0.0)):
                dev = float(np.max(np.abs(arr[grid.outside_subbox] - bg)))
                if dev > tol:
                    raise CoefficientError(
                        name,
                        f"{name} deviates from the background outside the central "
                        f"sub-box by {dev:.3e}",
                    )
        self.grid = grid
        self.omega = float(omega)
        self.eps0 = float(eps0)
        self.mu0 = float(mu0)
        self.eps = eps
        self.mu = mu
        self.sigma = sigma

    @classmethod
    def background(cls, grid, omega, eps0=1.0, mu0=1.0):
        shape = (grid.n,) * 3
        return cls(
            grid, omega, eps0, mu0,
            eps=np.full(shape, eps0), mu=np.full(shape, mu0), sigma=np.zeros(shape),
        )

    @classmethod
    def from_bumps(cls, grid, omega, eps0=1.0, mu0=1.0,
                   eps_bumps=(), mu_bumps=(), sigma_bumps=()):
        return cls(
            grid, omega, eps0, mu0,
            eps=eps0 + sample_bumps(grid, eps_bumps),
            mu=mu0 + sample_bumps(grid, mu_bumps),
            sigma=sample_bumps(grid, sigma_bumps),
        )


@dataclass(frozen=True)
class DerivedMedium:
    """Medium with the derived coefficient fields the operators consume."""

    grid: Grid
    omega: float
    eps0: float
    mu0: float
    k: float
    gamma: np.ndarray          # eps + i sigma / omega, conditioned
    mu: np.ndarray
    log_half_gamma: np.ndarray  # a
    log_half_mu: np.ndarray     # b
    da: FormField
    db: FormField
    dc: FormField               # d of gamma^(1/2) mu^(1/2)
    delta_da: np.ndarray        # codifferential of da (= -laplacian of a)
    delta_db: np.ndarray
    hess_a: np.ndarray          # Hessian of a, entries in algebra.SYM_PAIRS order, (6, n, n, n)
    hess_b: np.ndarray
    sqrt_gamma: np.ndarray
    inv_sqrt_gamma: np.ndarray
    sqrt_mu: np.ndarray
    inv_sqrt_mu: np.ndarray
    iwc: np.ndarray             # i omega gamma^(1/2) mu^(1/2)

    @property
    def gamma_mu(self) -> np.ndarray:
        return self.gamma * self.mu

    @property
    def da3(self) -> np.ndarray:
        return self.da.values[1:4]

    @property
    def db3(self) -> np.ndarray:
        return self.db.values[1:4]

    @property
    def dc3(self) -> np.ndarray:
        return self.dc.values[1:4]

    @cached_property
    def grade_multipliers(self) -> np.ndarray:
        """Pointwise multipliers of the grade 0..3 blocks of the potential,
        shape (4, n, n, n), with base = -omega^2 (gamma mu - eps0 mu0):

            base + <da,da> - delta da,   base + <db,db> + delta db,
            base + <da,da> + delta da,   base + <db,db> - delta db.

        The transposed potential multiplies grade l by entry l ^ 1.
        Computed on first use, so deriving a medium does not pay for it.
        """
        base = -self.omega**2 * (self.gamma_mu - self.eps0 * self.mu0)
        dada = algebra.inner(self.da.values, self.da.values)
        dbdb = algebra.inner(self.db.values, self.db.values)
        return np.stack([
            base + dada - self.delta_da,
            base + dbdb + self.delta_db,
            base + dada + self.delta_da,
            base + dbdb - self.delta_db,
        ])


def _hessian(grid: Grid, scalar: np.ndarray) -> np.ndarray:
    """Spectral Hessian of a scalar field: the entries j <= k in
    ``algebra.SYM_PAIRS`` order, shape (6, n, n, n)."""
    shat = fields._fftn(scalar)
    xi = grid.xi_op
    out = np.empty((len(algebra.SYM_PAIRS),) + scalar.shape, dtype=complex)
    for i, (j, k) in enumerate(algebra.SYM_PAIRS):
        out[i] = fields._ifftn(-xi[j] * xi[k] * shat)
    return out


def derive(medium: Medium) -> DerivedMedium:
    """Compute the derived coefficient fields.

    The raw samples are used directly: they keep the support and
    positivity bounds exact, and the potentials are realized as
    pointwise multiplications so no aliasing enters the operator
    algebra.
    """
    grid = medium.grid
    mu = medium.mu.astype(complex)
    gamma = medium.eps + 1j * medium.sigma / medium.omega
    a = 0.5 * np.log(gamma)  # principal branch
    b = 0.5 * np.log(mu)
    sqrt_gamma = np.exp(a)
    sqrt_mu = np.exp(b)
    c = sqrt_gamma * sqrt_mu
    da = ext_deriv(FormField.from_scalar(grid, a))
    db = ext_deriv(FormField.from_scalar(grid, b))
    dc = ext_deriv(FormField.from_scalar(grid, c))
    k = medium.omega * np.sqrt(medium.eps0 * medium.mu0)
    return DerivedMedium(
        grid=grid,
        omega=medium.omega,
        eps0=medium.eps0,
        mu0=medium.mu0,
        k=float(k),
        gamma=gamma,
        mu=mu,
        log_half_gamma=a,
        log_half_mu=b,
        da=da,
        db=db,
        dc=dc,
        delta_da=coderiv(da).values[0],
        delta_db=coderiv(db).values[0],
        hess_a=_hessian(grid, a),
        hess_b=_hessian(grid, b),
        sqrt_gamma=sqrt_gamma,
        inv_sqrt_gamma=np.exp(-a),
        sqrt_mu=sqrt_mu,
        inv_sqrt_mu=np.exp(-b),
        iwc=1j * medium.omega * c,
    )


def derive_background(grid: Grid, omega: float, eps0: float = 1.0, mu0: float = 1.0):
    return derive(Medium.background(grid, omega, eps0, mu0))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def first_order(v: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Rescaled first-order Maxwell operator on a graded field.

    (d+delta) sum (-1)^l v^l + da^v1 + da v (v1+v3) + db^(v0+v2)
    - db v v2 + i omega (gamma mu)^(1/2) v, with d, delta conjugated
    when zeta is given.
    """
    out = d_plus_delta(v.alternate(), zeta).values
    w = v.values
    out += algebra.wedge_cov(dm.da3, w, grades=1)
    out += algebra.vee_cov(dm.da3, w, grades=(1, 3))
    out += algebra.wedge_cov(dm.db3, w, grades=(0, 2))
    out -= algebra.vee_cov(dm.db3, w, grades=2)
    out += dm.iwc * w
    return FormField(v.grid, out, check=False)


def first_order_t(w: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Formal transpose: alternation sign flipped, roles of a and b swapped."""
    out = d_plus_delta(w.alternate(1), zeta).values
    u = w.values
    out += algebra.wedge_cov(dm.db3, u, grades=1)
    out += algebra.vee_cov(dm.db3, u, grades=(1, 3))
    out += algebra.wedge_cov(dm.da3, u, grades=(0, 2))
    out -= algebra.vee_cov(dm.da3, u, grades=2)
    out += dm.iwc * u
    return FormField(w.grid, out, check=False)


# ---------------------------------------------------------------------------
# zeroth-order potentials
#
# The potentials are genuine multiplication operators: integrating the
# weak form by parts moves every derivative onto the coefficient fields
# and leaves pointwise blade algebra.  Realizing them that way keeps the
# operator free of product aliasing (composing the first-order operator
# with its transpose reproduces them only up to the spectral tail of the
# medium, which the identity checks quantify).
# ---------------------------------------------------------------------------

# Hodge star between the grade-2 blades (4..6) and the grade-1 blades (1..3)
# as signed index maps on 3-component slices:
#   star(w)[1 + k] = _STAR2_SIGN[k] * w[4 + _STAR2_SRC[k]]
#   star(w)[4 + k] = _STAR1_SIGN[k] * w[1 + _STAR1_SRC[k]]
def _star_map(first: int):
    src = np.argsort(algebra.HODGE_PERM[first:first + 3])
    return src, algebra.HODGE_SIGN[first + src]


_STAR2_SRC, _STAR2_SIGN = _star_map(4)
_STAR1_SRC, _STAR1_SIGN = _star_map(1)
_GRADE_BLADES = (slice(0, 1), slice(1, 4), slice(4, 7), slice(7, 8))
#: position of the Hessian entry (j, k) in the packed SYM_PAIRS order
_SYM_INDEX = [[algebra.SYM_PAIRS.index((min(j, k), max(j, k))) for k in range(3)] for j in range(3)]


def _hess_apply(hess: np.ndarray, comps) -> np.ndarray:
    """sum_j H[j, k] comps[j] for k = 0..2, with H packed as in
    :func:`_hessian` and comps three scalar fields."""
    out = np.empty((3,) + hess.shape[1:], dtype=complex)
    term = np.empty_like(out[0])
    for k in range(3):
        np.multiply(hess[_SYM_INDEX[0][k]], comps[0], out=out[k])
        for j in (1, 2):
            np.multiply(hess[_SYM_INDEX[j][k]], comps[j], out=term)
            out[k] += term
    return out


def _multiplier_part(wv: np.ndarray, dm: DerivedMedium, transpose: bool) -> np.ndarray:
    """Grade multipliers plus the Hessian terms shared by both potentials:
    2 H_b w^1 and star 2 H_a star w^2, or -2 H_a w^1 and star -2 H_b star w^2
    for the transpose."""
    mult = dm.grade_multipliers
    out = np.empty_like(wv)
    for l, blades in enumerate(_GRADE_BLADES):
        np.multiply(mult[l ^ 1 if transpose else l], wv[blades], out=out[blades])
    hess1, hess2, scale = (dm.hess_a, dm.hess_b, -2.0) if transpose else (dm.hess_b, dm.hess_a, 2.0)
    out[1:4] += _hess_apply(hess1, [scale * wv[1 + j] for j in range(3)])
    h2 = _hess_apply(
        hess2, [(scale * _STAR2_SIGN[j]) * wv[4 + _STAR2_SRC[j]] for j in range(3)]
    )
    for k in range(3):
        out[4 + k] += _STAR1_SIGN[k] * h2[_STAR1_SRC[k]]
    return out


def potential(w: FormField, dm: DerivedMedium) -> FormField:
    """Zeroth-order potential as a pointwise multiplication."""
    wv = w.values
    out = _multiplier_part(wv, dm, transpose=False)
    dc3 = (2j * dm.omega) * dm.dc3
    v = algebra.vee_cov(dc3, wv, grades=(1, 3))
    out[0] += v[0]
    out[4:7] += v[4:7]
    e = algebra.wedge_cov(dc3, wv, grades=(0, 2))
    out[1:4] += e[1:4]
    out[7] += e[7]
    return FormField(w.grid, out, check=False)


def potential_t(w: FormField, dm: DerivedMedium) -> FormField:
    """Transposed potential as a pointwise multiplication."""
    wv = w.values
    out = _multiplier_part(wv, dm, transpose=True)
    dc3 = (2j * dm.omega) * dm.dc3
    out[1:4] -= algebra.vee_cov(dc3, wv, grades=2)[1:4]
    out[4:7] += algebra.wedge_cov(dc3, wv, grades=1)[4:7]
    return FormField(w.grid, out, check=False)


def potential_via_factorization(w: FormField, dm: DerivedMedium) -> FormField:
    """Potential realized by composing the first-order operator around its
    transpose and subtracting the shifted Hodge-Helmholtz part.  Agrees
    with :func:`potential` up to the spectral tail of the medium."""
    out = first_order(first_order_t(w, dm), dm)
    lap = conj_laplacian(w)
    return FormField(w.grid, out.values - lap.values + dm.k**2 * w.values, check=False)


def potential_grade03(w: FormField, dm: DerivedMedium, tol: float = 1e-12) -> FormField:
    """Decoupled grade-{0,3} block of the transposed potential."""
    stray = algebra.grade_select(w.values, (1, 2))
    scale = max(float(np.max(np.abs(w.values))), 1e-300)
    if np.max(np.abs(stray)) > tol * scale:
        raise ValueError("input must be a pure grade-{0,3} field")
    return potential_t(w, dm).select((0, 3))


def scalar_potential_multipliers(dm: DerivedMedium):
    """Pointwise multipliers of the decoupled grade-{0,3} potential.

    Grade 0 is multiplied by -omega^2 (gamma mu - eps0 mu0) + <db,db> + delta db,
    grade 3 by the same with a in place of b.
    """
    mult = dm.grade_multipliers
    return mult[1], mult[2]


# ---------------------------------------------------------------------------
# weak-form pairings (independent of the factorization route)
# ---------------------------------------------------------------------------

def _scalar_inner(u: FormField, v: FormField, grades) -> np.ndarray:
    return algebra.inner(
        algebra.grade_select(u.values, grades), algebra.grade_select(v.values, grades)
    )


def weak_potential_pairing(w: FormField, phi: FormField, dm: DerivedMedium) -> complex:
    """Six-term weak form of the potential, integrated against phi."""
    grid = w.grid
    wv, pv = w.values, phi.values
    omega2 = dm.omega**2

    total = -omega2 * np.sum((dm.gamma_mu - dm.eps0 * dm.mu0) * algebra.inner(wv, pv))

    w13 = algebra.grade_select(wv, (1, 3))
    w02 = algebra.grade_select(wv, (0, 2))
    dc3 = dm.dc.values[1:4]
    mid = 2j * dm.omega * (algebra.vee_cov(dc3, w13) + algebra.wedge_cov(dc3, w02))
    total += np.sum(algebra.inner(mid, pv))

    dada = algebra.inner(dm.da.values, dm.da.values)
    dbdb = algebra.inner(dm.db.values, dm.db.values)
    total += np.sum(dada * _scalar_inner(w, phi, (0, 2)) + dbdb * _scalar_inner(w, phi, (1, 3)))

    s02 = algebra.inner(
        -algebra.grade_select(wv, 0) + algebra.grade_select(wv, 2),
        algebra.grade_select(pv, (0, 2)),
    )
    s13 = algebra.inner(
        algebra.grade_select(wv, 1) - algebra.grade_select(wv, 3),
        algebra.grade_select(pv, (1, 3)),
    )
    d_s02 = ext_deriv(FormField.from_scalar(grid, s02))
    d_s13 = ext_deriv(FormField.from_scalar(grid, s13))
    total += np.sum(algebra.inner(dm.da.values, d_s02.values))
    total += np.sum(algebra.inner(dm.db.values, d_s13.values))

    dsym1 = sym_coderiv(grid, sym_product_field(w.grade(1), phi.grade(1)))
    total += np.sum(algebra.inner(dm.db.values, dsym1.values))
    dsym2 = sym_coderiv(grid, sym_product_field(w.grade(2).hodge(), phi.grade(2).hodge()))
    total += np.sum(algebra.inner(dm.da.values, dsym2.values))

    return complex(grid.cell_volume * total)


def weak_potential_t_pairing(w: FormField, phi: FormField, dm: DerivedMedium) -> complex:
    """Weak form of the transposed potential."""
    grid = w.grid
    wv, pv = w.values, phi.values
    omega2 = dm.omega**2

    total = -omega2 * np.sum((dm.gamma_mu - dm.eps0 * dm.mu0) * algebra.inner(wv, pv))

    dc3 = dm.dc.values[1:4]
    mid = 2j * dm.omega * (
        -algebra.vee_cov(dc3, algebra.grade_select(wv, 2))
        + algebra.wedge_cov(dc3, algebra.grade_select(wv, 1))
    )
    total += np.sum(algebra.inner(mid, pv))

    dada = algebra.inner(dm.da.values, dm.da.values)
    dbdb = algebra.inner(dm.db.values, dm.db.values)
    total += np.sum(dbdb * _scalar_inner(w, phi, (0, 2)) + dada * _scalar_inner(w, phi, (1, 3)))

    s02 = algebra.inner(
        algebra.grade_select(wv, 0) - algebra.grade_select(wv, 2),
        algebra.grade_select(pv, (0, 2)),
    )
    s13 = algebra.inner(
        -algebra.grade_select(wv, 1) + algebra.grade_select(wv, 3),
        algebra.grade_select(pv, (1, 3)),
    )
    total += np.sum(algebra.inner(dm.db.values, ext_deriv(FormField.from_scalar(grid, s02)).values))
    total += np.sum(algebra.inner(dm.da.values, ext_deriv(FormField.from_scalar(grid, s13)).values))

    dsym1 = sym_coderiv(grid, sym_product_field(w.grade(1), phi.grade(1)))
    total -= np.sum(algebra.inner(dm.da.values, dsym1.values))
    dsym2 = sym_coderiv(grid, sym_product_field(w.grade(2).hodge(), phi.grade(2).hodge()))
    total -= np.sum(algebra.inner(dm.db.values, dsym2.values))

    return complex(grid.cell_volume * total)


def dirichlet_pairing(w: FormField, phi: FormField, k: float) -> complex:
    """int <delta w, delta phi> + <d w, d phi> - k^2 <w, phi>."""
    total = quadrature_pairing(coderiv(w), coderiv(phi))
    total += quadrature_pairing(ext_deriv(w), ext_deriv(phi))
    total -= k**2 * quadrature_pairing(w, phi)
    return total


# ---------------------------------------------------------------------------
# Maxwell maps
# ---------------------------------------------------------------------------

def to_maxwell(v: FormField, dm: DerivedMedium) -> FormField:
    """Undo the rescaling on grades 1 and 2; grades 0 and 3 are dropped."""
    values = np.zeros_like(v.values)
    values[1:4] = v.values[1:4] * dm.inv_sqrt_gamma
    values[4:7] = v.values[4:7] * dm.inv_sqrt_mu
    return FormField(v.grid, values, check=False)


def maxwell_residual(u: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Graded residual of the time-harmonic system:
    delta u2 + i omega gamma u1 - d u1 + i omega mu u2.

    With ``zeta`` the derivatives are conjugated, so the residual of a
    two-sided solution can be evaluated on its periodic part.
    """
    u1 = u.grade(1)
    u2 = u.grade(2)
    res = coderiv(u2, zeta).values - ext_deriv(u1, zeta).values
    res += 1j * dm.omega * dm.gamma * u1.values
    res += 1j * dm.omega * dm.mu * u2.values
    return FormField(u.grid, res, check=False)
