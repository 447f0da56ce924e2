"""Electromagnetic media and the rescaled first-order Maxwell machinery.

A medium carries permittivity, permeability and conductivity samples on
the periodic grid, all constant (at their background values) outside the
central sub-box.  Deriving a medium produces the combined coefficient
``gamma = eps + i sigma / omega``, the potentials' coefficients and the
wavenumber ``k = omega sqrt(eps0 mu0)``; the derivatives of the half-log
fields a = log(gamma)/2 and b = log(mu)/2 are formed on first read.

The first-order operator and its formal transpose act on graded fields;
their compositions factor through the Hodge-Helmholtz operator, which
is how the zeroth-order potentials are realized here.  The weak six-term
integral form of the potential is kept as an independent pairing used to
cross-check the factorization route.
"""

from __future__ import annotations

import dataclasses
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


def sample_bumps(grid: Grid, bumps) -> np.ndarray:
    """Sum of the bumps sampled on the grid."""
    x = grid.x  # formed once for all the bumps
    total = np.zeros((grid.n,) * 3)
    for bump in bumps:
        center = np.asarray(bump.center if bump.center is not None else [grid.length / 2] * 3)
        d2 = np.sum((x - center.reshape(3, 1, 1, 1)) ** 2, axis=0)
        inside = d2 < bump.radius**2  # d2 / radius**2 < 1, tested without dividing outside
        r2 = d2[inside] / bump.radius**2
        total[inside] += bump.amplitude * np.exp(bump.sharpness * (1.0 - 1.0 / (1.0 - r2)))
    return total


class Medium:
    """Scalar coefficient samples eps, mu, sigma plus background constants."""

    def __init__(self, grid, omega, eps0, mu0, eps, mu, sigma):
        if omega <= 0 or eps0 <= 0 or mu0 <= 0:
            raise ValueError("omega, eps0 and mu0 must be positive")
        eps = np.asarray(eps, dtype=float)
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if {eps.shape, mu.shape, sigma.shape} != {(grid.n,) * 3}:
            raise ValueError("eps, mu and sigma must be sampled on the grid")
        w2 = float(omega) * float(omega)  # inf past the float range, where omega**2 raises
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            ratio = sigma / omega
            # the potential scales gamma mu, and k^2 scales eps0 mu0, by omega^2
            finite = (("eps", "eps", eps), ("mu", "mu", mu), ("sigma", "sigma / omega", ratio),
                      ("omega", "omega^2 eps0 mu0", w2 * (eps0 * mu0)),
                      ("eps", "omega^2 eps", w2 * eps), ("sigma", "omega sigma", w2 * ratio),
                      ("mu", "omega^2 gamma mu", w2 * ((eps + 1j * ratio) * mu)))
        for name, label, value in finite:
            if not np.all(np.isfinite(value)):
                raise CoefficientError(name, f"{label} must be finite everywhere")
        if np.min(eps) < eps0:
            raise CoefficientError("eps", "eps must be >= eps0 everywhere")
        if np.min(mu) < mu0:
            raise CoefficientError("mu", "mu must be >= mu0 everywhere")
        if np.min(sigma) < 0:
            raise CoefficientError("sigma", "sigma must be nonnegative")
        # how far a sample may lie from the background outside the sub-box
        self.background_tol = 1e-12 * max(eps0, mu0, 1.0)
        for name, arr, bg in (("eps", eps, eps0), ("mu", mu, mu0), ("sigma", sigma, 0.0)):
            dev = float(np.max(np.abs(arr[grid.outside_subbox] - bg)))
            if dev > self.background_tol:
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
        with np.errstate(over="ignore"):  # an overflowed sample fails the finite check
            eps = eps0 + sample_bumps(grid, eps_bumps)
            mu = mu0 + sample_bumps(grid, mu_bumps)
            sigma = sample_bumps(grid, sigma_bumps)
        return cls(grid, omega, eps0, mu0, eps, mu, sigma)


@dataclass(frozen=True)
class DerivedMedium:
    """Medium with the assembled coefficient fields the operators consume.  The
    rest is formed from gamma, mu and the constants, so ``replace`` derives afresh."""

    grid: Grid
    omega: float
    eps0: float
    mu0: float
    gamma: np.ndarray          # eps + i sigma / omega, conditioned
    mu: np.ndarray
    k: float = dataclasses.field(init=False)
    coefficients: np.ndarray = dataclasses.field(init=False)  # 4 grade multipliers, 2 i omega dc

    def __post_init__(self):
        a = 0.5 * np.log(self.gamma)  # principal branch
        b = 0.5 * np.log(self.mu)
        da3, db3, dc3 = (_gradient(self.grid, s) for s in (a, b, np.exp(a) * np.exp(b)))
        del a, b
        delta_da, delta_db = _codifferential(self.grid, da3), _codifferential(self.grid, db3)
        base = -self.omega**2 * (self.gamma_mu - self.eps0 * self.mu0)
        dada = algebra.inner(da3, da3)
        dbdb = algebra.inner(db3, db3)
        coefficients = np.empty((7,) + base.shape, dtype=complex)
        coefficients[0] = base + dada - delta_da
        coefficients[1] = base + dbdb + delta_db
        coefficients[2] = base + dada + delta_da
        coefficients[3] = base + dbdb - delta_db
        np.multiply(2j * self.omega, dc3, out=coefficients[4:])
        object.__setattr__(self, "k", float(self.omega * np.sqrt(self.eps0 * self.mu0)))
        object.__setattr__(self, "coefficients", coefficients)

    # The gradients of a and b, their 3 components, and their Hessians, shape
    # (6, n, n, n) in algebra.SYM_PAIRS order, are formed on first read: a
    # solve of one grade block reads one Hessian and no gradient.
    @cached_property
    def da3(self) -> np.ndarray:
        return _gradient(self.grid, 0.5 * np.log(self.gamma))

    @cached_property
    def db3(self) -> np.ndarray:
        return _gradient(self.grid, 0.5 * np.log(self.mu))

    @cached_property
    def hess_a(self) -> np.ndarray:
        return _hessian(self.grid, 0.5 * np.log(self.gamma))

    @cached_property
    def hess_b(self) -> np.ndarray:
        return _hessian(self.grid, 0.5 * np.log(self.mu))

    # The half powers, iwc and dc are formed on first use: the solver reads none.
    @cached_property
    def sqrt_gamma(self) -> np.ndarray:
        return np.exp(0.5 * np.log(self.gamma))

    @cached_property
    def sqrt_mu(self) -> np.ndarray:
        return np.exp(0.5 * np.log(self.mu))

    @cached_property
    def iwc(self) -> np.ndarray:
        """i omega gamma^(1/2) mu^(1/2)."""
        return 1j * self.omega * (self.sqrt_gamma * self.sqrt_mu)

    @cached_property
    def dc3(self) -> np.ndarray:
        """d of gamma^(1/2) mu^(1/2), its 3 components; the weak pairings read it."""
        return _gradient(self.grid, np.exp(0.5 * np.log(self.gamma)) * np.exp(0.5 * np.log(self.mu)))

    @property
    def gamma_mu(self) -> np.ndarray:
        return self.gamma * self.mu

    @property
    def grade_multipliers(self) -> np.ndarray:
        """Pointwise multipliers of the grade 0..3 blocks of the potential,
        shape (4, n, n, n), with base = -omega^2 (gamma mu - eps0 mu0):

            base + <da,da> - delta da,   base + <db,db> + delta db,
            base + <da,da> + delta da,   base + <db,db> - delta db.

        The transposed potential multiplies grade l by entry l ^ 1.
        """
        return self.coefficients[:4]

    @property
    def contraction_covector(self) -> np.ndarray:
        """2 i omega dc, shape (3, n, n, n): the covector both potentials
        contract with and wedge onto a field."""
        return self.coefficients[4:]


# The derivatives below follow ext_deriv and coderiv of FormField.from_scalar
# bit for bit on the blades those routes fill: each sum starts at +0.0.

def _gradient(grid: Grid, s: np.ndarray) -> np.ndarray:
    """The 3 components of the gradient of the scalar field s."""
    shat = fields._forward(s)
    ghat = fields._spectral_covector(grid, None) * shat  # i xi_op shat
    ghat += 0.0
    return fields._inverse(ghat, ghat)


def _codifferential(grid: Grid, grad: np.ndarray) -> np.ndarray:
    """delta of the gradient whose 3 components are grad."""
    ixi = fields._spectral_covector(grid, None)
    ghat = fields._forward(grad)
    ghat *= -1.0  # the grade-1 sign of algebra.alternate
    delta, term = np.zeros(grad.shape[1:], dtype=complex), np.empty(grad.shape[1:], dtype=complex)
    for j in range(3):
        delta += np.multiply(ixi[j], ghat[j], out=term)
    return fields._inverse(delta, delta)


def _hessian(grid: Grid, s: np.ndarray) -> np.ndarray:
    """The Hessian of the scalar field s: entries j <= k in ``algebra.SYM_PAIRS``
    order, shape (6, n, n, n)."""
    shat = fields._forward(s)
    xi = grid.xi_op
    hess = np.empty((len(algebra.SYM_PAIRS),) + s.shape, dtype=complex)
    for i, (j, k) in enumerate(algebra.SYM_PAIRS):
        fields._inverse(np.multiply(-xi[j] * xi[k], shat, out=hess[i]), hess[i])
    return hess


def derive(medium: Medium) -> DerivedMedium:
    """Compute the derived coefficient fields.

    The raw samples are used directly: they keep the support and
    positivity bounds exact, and the potentials are realized as
    pointwise multiplications so no aliasing enters the operator
    algebra.
    """
    m = medium
    return DerivedMedium(m.grid, m.omega, m.eps0, m.mu0, gamma=m.eps + 1j * m.sigma / m.omega,
                         mu=m.mu.astype(complex))


def derive_background(grid: Grid, omega: float, eps0: float = 1.0, mu0: float = 1.0):
    return derive(Medium.background(grid, omega, eps0, mu0))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def _first_order(v: FormField, dm: DerivedMedium, zeta, transpose: bool) -> FormField:
    """The first-order operator, or with ``transpose`` its formal transpose."""
    dx3, dy3 = (dm.db3, dm.da3) if transpose else (dm.da3, dm.db3)
    out = d_plus_delta(v.alternate(int(transpose)), zeta).values
    w = v.values
    out += algebra.wedge_cov(dx3, w, grades=1)
    out += algebra.vee_cov(dx3, w, grades=(1, 3))
    out += algebra.wedge_cov(dy3, w, grades=(0, 2))
    out -= algebra.vee_cov(dy3, w, grades=2)
    out += dm.iwc * w
    return FormField(v.grid, out)


# Public one-line wrappers: the benchmark's layer tracer wraps only public
# functions, and reports first_order, first_order_t and both weak pairings by name.

def first_order(v: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Rescaled first-order Maxwell operator on a graded field.

    (d+delta) sum (-1)^l v^l + da^v1 + da v (v1+v3) + db^(v0+v2)
    - db v v2 + i omega (gamma mu)^(1/2) v, with d, delta conjugated
    when zeta is given.
    """
    return _first_order(v, dm, zeta, transpose=False)


def first_order_t(w: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Formal transpose: alternation sign flipped, roles of a and b swapped."""
    return _first_order(w, dm, zeta, transpose=True)


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
_BLADES_OF = [range(g.start, g.stop) for g in _GRADE_BLADES]
#: position of the Hessian entry (j, k) in the packed SYM_PAIRS order
_SYM_INDEX = [[algebra.SYM_PAIRS.index((min(j, k), max(j, k))) for k in range(3)] for j in range(3)]


def _hess_row(hess: np.ndarray, comp, k: int, h: np.ndarray, term: np.ndarray) -> np.ndarray:
    """h = sum_j H[j, k] comp(j, term), summed in the order j = 0, 1, 2, with H
    packed as in :func:`_hessian`; comp(j, out) writes component j into out."""
    np.multiply(hess[_SYM_INDEX[0][k]], comp(0, h), out=h)
    for j in (1, 2):
        np.multiply(hess[_SYM_INDEX[j][k]], comp(j, term), out=term)
        h += term
    return h


#: blades of the closed grade blocks of the potential and of their union
_CLOSED_BLOCKS = {(0, 1): slice(0, 4), (2, 3): slice(4, 8), (0, 1, 2, 3): slice(0, 8)}


def grade_block(grades) -> slice:
    """Blades of ``grades``, which must be a union of the potential's closed
    blocks: (0, 1), (2, 3) or all four.  Any other set raises ValueError."""
    key = tuple(sorted({grades} if np.isscalar(grades) else set(grades)))
    if key not in _CLOSED_BLOCKS:
        raise ValueError(f"grades must be (0, 1), (2, 3) or (0, 1, 2, 3), got {grades!r}")
    return _CLOSED_BLOCKS[key]


def _potential(w: FormField, dm: DerivedMedium, transpose: bool, grades, out=None, scratch=None):
    """The potential or, with ``transpose``, its transpose, on the blades of
    the block of ``grades``: the grade multipliers; the Hessian terms 2 H_b w^1
    and star 2 H_a star w^2, or -2 H_a w^1 and star -2 H_b star w^2 for the
    transpose; and 2 i omega dc contracted with w^(l+1) into grade l and
    wedged with w^l into grade l + 1, for the even grade l of the block, or
    for l = 1 with the contraction negated in the transpose.

    ``out`` and ``scratch`` are those of :func:`potential`.
    """
    blk = grade_block(grades)
    wv = w.values
    shape = wv.shape[1:]
    field = None
    if out is None:
        field = np.zeros_like(wv)
        out = field[blk]
    elif out.shape != (blk.stop - blk.start,) + shape:
        raise ValueError(f"out must have shape {(blk.stop - blk.start,) + shape}, got {out.shape}")
    if scratch is None:
        scratch = np.empty((3,) + shape, dtype=complex)
    h, p, term = scratch
    res = [None] * 8  # res[b]: blade b of the result
    res[blk] = out
    block = [l for l, blades in enumerate(_GRADE_BLADES) if blk.start <= blades.start < blk.stop]

    # The contraction goes straight into the result, each blade summed from
    # +0.0; vee lowers each grade and wedge raises it, so their blades do not
    # meet.  The rest of each blade is then formed in p and added as p + it.
    lows = [1] if transpose else [l for l in (0, 2) if l in block]
    algebra.vee_cov(dm.contraction_covector, wv, grades=[l + 1 for l in lows], out=res, term=term)
    algebra.wedge_cov(dm.contraction_covector, wv, grades=lows, out=res, term=term)
    add = {}  # blade -> how its contraction enters
    for l in lows:
        add.update(dict.fromkeys(_BLADES_OF[l], np.subtract if transpose else np.add))
        add.update(dict.fromkeys(_BLADES_OF[l + 1], np.add))

    # each Hessian is read only in the grade it enters: a one-block solve forms only its own
    hess1, hess2, scale = ("hess_a", "hess_b", -2.0) if transpose else ("hess_b", "hess_a", 2.0)

    # the Hessians' arguments, one component at a time: scale w^1, and
    # scale star w^2 on blades 1..3
    def w1(j, into):
        return np.multiply(scale, wv[1 + j], out=into)

    def star_w2(j, into):
        return np.multiply(scale * _STAR2_SIGN[j], wv[4 + _STAR2_SRC[j]], out=into)

    mult = dm.grade_multipliers
    for l in block:
        for k, b in enumerate(_BLADES_OF[l]):
            np.multiply(mult[l ^ 1 if transpose else l], wv[b], out=p)
            if l == 1:
                p += _hess_row(getattr(dm, hess1), w1, k, h, term)
            elif l == 2:  # the star of the Hessian image, back on blades 4..6
                p += np.multiply(_STAR1_SIGN[k], _hess_row(getattr(dm, hess2), star_w2, _STAR1_SRC[k], h, term), out=h)
            if b in add:
                add[b](p, res[b], out=res[b])
            else:
                np.copyto(res[b], p)
    return out if field is None else FormField(w.grid, field)


def potential(w: FormField, dm: DerivedMedium, grades=(0, 1, 2, 3), out=None, scratch=None):
    """Zeroth-order potential as a pointwise multiplication.

    The potential maps grades (0, 1) and grades (2, 3) each into
    themselves.  With ``grades`` a union of these blocks (see
    :func:`grade_block`) only their blades are read and written, and the
    other blades of the result are zero.

    With ``out``, an array of the block's blades (shape (blades, n, n, n);
    any other shape raises ValueError), the block is written there and
    ``out`` is returned instead of a field.  ``scratch``, complex of shape
    (3, n, n, n), holds the products and sums on the way; new when None.
    """
    return _potential(w, dm, False, grades, out, scratch)


def potential_t(w: FormField, dm: DerivedMedium) -> FormField:
    """Transposed potential as a pointwise multiplication."""
    return _potential(w, dm, True, (0, 1, 2, 3))


def potential_via_factorization(w: FormField, dm: DerivedMedium) -> FormField:
    """Potential realized by composing the first-order operator around its
    transpose and subtracting the shifted Hodge-Helmholtz part.  Agrees
    with :func:`potential` up to the spectral tail of the medium."""
    out = first_order(first_order_t(w, dm), dm)
    lap = conj_laplacian(w)
    return FormField(w.grid, out.values - lap.values + dm.k**2 * w.values)


# ---------------------------------------------------------------------------
# weak-form pairings (independent of the factorization route)
# ---------------------------------------------------------------------------

def _weak_pairing(w: FormField, phi: FormField, dm: DerivedMedium, transpose: bool) -> complex:
    """Six-term weak form of the potential against phi; with ``transpose``, of
    its transpose: a and b swapped, the dc contraction and by-parts terms negated.
    Shares nothing with :func:`potential`, whose oracle it is."""
    grid = w.grid
    wv, pv = w.values, phi.values
    ip = [np.sum(wv[b] * pv[b], axis=0) for b in _GRADE_BLADES]  # <w^l, phi^l>
    dx3, dy3, sign = (dm.db3, dm.da3, -1.0) if transpose else (dm.da3, dm.db3, 1.0)

    total = -dm.omega**2 * np.sum((dm.gamma_mu - dm.eps0 * dm.mu0) * sum(ip))

    # each full-field term is paired and dropped as soon as it is formed,
    # which bounds the peak memory of the oracle
    vee_in, wedge_in = ((2,), (1,)) if transpose else ((1, 3), (0, 2))
    mid = algebra.wedge_cov(dm.dc3, wv, grades=wedge_in)
    mid += sign * algebra.vee_cov(dm.dc3, wv, grades=vee_in)
    total += 2j * dm.omega * np.sum(algebra.inner(mid, pv))
    del mid

    dxdx = algebra.inner(dx3, dx3)
    dydy = algebra.inner(dy3, dy3)
    total += np.sum(dxdx * (ip[0] + ip[2]) + dydy * (ip[1] + ip[3]))

    def by_parts(d3, g3) -> complex:  # sign * int <d3, g3>, g3 a covector field
        return sign * np.sum(algebra.inner(d3, g3))

    for d3, s in ((dx3, ip[2] - ip[0]), (dy3, ip[1] - ip[3])):
        total += by_parts(d3, _gradient(grid, s))
    total += by_parts(dy3, sym_coderiv(grid, sym_product_field(w, phi)))
    # the Hodge star carries grade 2 onto blades 1..3, where the symmetric
    # product reads its factors
    total += by_parts(dx3, sym_coderiv(grid, sym_product_field(w.hodge(), phi.hodge())))

    return complex(grid.cell_volume * total)


def weak_potential_pairing(w: FormField, phi: FormField, dm: DerivedMedium) -> complex:
    """Six-term weak form of the potential, integrated against phi."""
    return _weak_pairing(w, phi, dm, transpose=False)


def weak_potential_t_pairing(w: FormField, phi: FormField, dm: DerivedMedium) -> complex:
    """Weak form of the transposed potential."""
    return _weak_pairing(w, phi, dm, transpose=True)


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
    values[1:4] = v.values[1:4] * np.exp(-(0.5 * np.log(dm.gamma)))
    values[4:7] = v.values[4:7] * np.exp(-(0.5 * np.log(dm.mu)))
    return FormField(v.grid, values)


def maxwell_residual(u: FormField, dm: DerivedMedium, zeta=None) -> FormField:
    """Graded residual of the time-harmonic system:
    delta u2 + i omega gamma u1 - d u1 + i omega mu u2.

    With ``zeta`` the derivatives are conjugated, so the residual of a
    two-sided solution can be evaluated on its periodic part.
    """
    u1 = u.select(1)
    u2 = u.select(2)
    res = coderiv(u2, zeta).values - ext_deriv(u1, zeta).values
    res += 1j * dm.omega * dm.gamma * u1.values
    res += 1j * dm.omega * dm.mu * u2.values
    return FormField(u.grid, res)
