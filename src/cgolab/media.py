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
)


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported radial bump, C-infinity in the box.

    Profile amplitude * exp(sharpness * (1 - 1/(1 - (r/radius)^2)))
    inside radius, identically zero outside; r is the distance from
    ``center``, a point in box coordinates (runconfig adds the box centre).
    """

    amplitude: float
    radius: float
    center: tuple
    sharpness: float = 1.0


def sample_bumps(grid: Grid, bumps) -> np.ndarray:
    """Sum of the bumps sampled on the grid.  A bump whose ball holds no
    grid point would vanish from the samples: it raises ValueError."""
    axes, total = grid.axes, np.zeros((grid.n,) * 3)
    for i, bump in enumerate(bumps):
        d = [t - c for t, c in zip(axes, bump.center, strict=True)]
        d2 = fields._dot(d, d)
        inside = d2 < bump.radius**2  # d2 / radius**2 < 1, tested without dividing outside
        if not inside.any():
            raise ValueError(f"bump {i} holds no grid point within its radius {bump.radius!r}")
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
    def from_bumps(cls, grid, omega, eps0=1.0, mu0=1.0,
                   eps_bumps=(), mu_bumps=(), sigma_bumps=()):
        samples = []
        with np.errstate(over="ignore"):  # an overflowed sample fails the finite check
            for name, bumps in (("eps", eps_bumps), ("mu", mu_bumps), ("sigma", sigma_bumps)):
                try:
                    samples.append(sample_bumps(grid, bumps))
                except ValueError as exc:  # the message names the bump
                    raise CoefficientError(name, str(exc)) from None
            eps, mu = eps0 + samples[0], mu0 + samples[1]
        return cls(grid, omega, eps0, mu0, eps, mu, samples[2])


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
        delta_da, delta_db = _codifferential(self.grid, da3), _codifferential(self.grid, db3)
        del a, b
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

    def half_log_gradient(self, field: np.ndarray) -> np.ndarray:
        """The 3 components of d(log(field) / 2), a new array on each call: da of gamma, db of mu."""
        return _gradient(self.grid, 0.5 * np.log(field))

    # The gradients of a and b, their 3 components, and their Hessians, shape
    # (6, n, n, n) in algebra.SYM_PAIRS order, are formed on first read: a
    # solve of one grade block reads one Hessian and no gradient.
    @fields._formed_once
    def da3(self) -> np.ndarray:
        return self.half_log_gradient(self.gamma)

    @fields._formed_once
    def db3(self) -> np.ndarray:
        return self.half_log_gradient(self.mu)

    @fields._formed_once
    def hess_a(self) -> np.ndarray:
        return _hessian(self.grid, 0.5 * np.log(self.gamma))

    @fields._formed_once
    def hess_b(self) -> np.ndarray:
        return _hessian(self.grid, 0.5 * np.log(self.mu))

    # The half powers, iwc and dc are formed on first use: the solver reads none.
    @fields._formed_once
    def sqrt_gamma(self) -> np.ndarray:
        return np.exp(0.5 * np.log(self.gamma))

    @fields._formed_once
    def sqrt_mu(self) -> np.ndarray:
        return np.exp(0.5 * np.log(self.mu))

    @fields._formed_once
    def iwc(self) -> np.ndarray:
        """i omega gamma^(1/2) mu^(1/2)."""
        return 1j * self.omega * (self.sqrt_gamma * self.sqrt_mu)

    @fields._formed_once
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
    ghat = np.empty((3,) + s.shape, dtype=complex)
    for xi, g in zip(grid.xi_axes, ghat):
        np.multiply(1j * xi, shat, out=g)
    ghat += 0.0
    return fields._inverse(ghat, ghat)


def _codifferential(grid: Grid, grad: np.ndarray) -> np.ndarray:
    """delta of the gradient whose 3 components are grad."""
    ghat = fields._forward(grad)
    ghat *= -1.0  # the grade-1 sign of algebra.alternate
    delta, term = np.zeros(grad.shape[1:], dtype=complex), np.empty(grad.shape[1:], dtype=complex)
    for xi, g in zip(grid.xi_axes, ghat):
        delta += np.multiply(1j * xi, g, out=term)
    return fields._inverse(delta, delta)


def _hessian(grid: Grid, s: np.ndarray) -> np.ndarray:
    """The Hessian of the scalar field s: entries j <= k in ``algebra.SYM_PAIRS``
    order, shape (6, n, n, n)."""
    shat = fields._forward(s)
    xi = grid.xi_axes
    hess = np.empty((len(algebra.SYM_PAIRS),) + s.shape, dtype=complex)
    for i, (j, k) in enumerate(algebra.SYM_PAIRS):
        fields._inverse(np.multiply(-xi[j] * xi[k], shat, out=hess[i]), hess[i])
    return hess


def derive(medium: Medium) -> DerivedMedium:
    """Compute the derived coefficient fields.

    The raw samples are used directly, which keeps their positivity bounds
    exact.  Their spectral derivatives ring across the torus, so the potential
    vanishes outside the sub-box only in the continuum: for the reference medium,
    3.2% of the coefficients' L^2 norm lies outside it at 32^3, 0.54% at 64^3.
    """
    m = medium
    return DerivedMedium(m.grid, m.omega, m.eps0, m.mu0, gamma=m.eps + 1j * m.sigma / m.omega,
                         mu=m.mu.astype(complex))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def _first_order(v: FormField, dm: DerivedMedium, zeta, transpose: bool) -> FormField:
    """The first-order operator, or with ``transpose`` its formal transpose."""
    dx3, dy3 = (dm.db3, dm.da3) if transpose else (dm.da3, dm.db3)
    out = d_plus_delta(v, zeta, offset=int(transpose)).values
    w = v.values
    out += algebra.wedge_cov(dx3, w, grades=1)
    out += algebra.vee_cov(dx3, w, grades=(1, 3))
    out += algebra.wedge_cov(dy3, w, grades=(0, 2))
    out -= algebra.vee_cov(dy3, w, grades=2)
    for b in range(8):  # i omega (gamma mu)^(1/2) w, one blade at a time
        out[b] += dm.iwc * w[b]
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


def _star2(v: np.ndarray) -> np.ndarray:
    """Blades 1..3 of star v from its grade-2 blades, as algebra.hodge(v)[1:4]."""
    return v[4 + _STAR2_SRC] * _STAR2_SIGN.reshape(3, 1, 1, 1)  # array first, as in hodge


#: blades of the closed grade blocks of the potential and of their union
_CLOSED_BLOCKS = {(0, 1): slice(0, 4), (2, 3): slice(4, 8), (0, 1, 2, 3): slice(0, 8)}


def grade_block(grades) -> slice:
    """Blades of ``grades``, which must be a union of the potential's closed
    blocks: (0, 1), (2, 3) or all four.  Any other set raises ValueError."""
    key = tuple(sorted({grades} if np.isscalar(grades) else set(grades)))
    if key not in _CLOSED_BLOCKS:
        raise ValueError(f"grades must be (0, 1), (2, 3) or (0, 1, 2, 3), got {grades!r}")
    return _CLOSED_BLOCKS[key]


def _potential(w, dm: DerivedMedium, transpose: bool, grades, out=None, rows=slice(None)):
    """The potential or, with ``transpose``, its transpose, on the blades of
    the block of ``grades``, formed one blade b at a time: 2 i omega dc contracted
    with w^(l+1) into grade l and wedged with w^l into grade l + 1, for the even
    grade l of the block (for l = 1, the contraction negated, in the transpose),
    summed from +0.0 in the order of the live sign tables; then the Hessian row
    h of 2 H_b w^1 or star 2 H_a star w^2 (-2 H_a w^1 or star -2 H_b star w^2 in
    the transpose); then b's grade multiplier times w_b, plus h, plus the contraction.

    ``w``, ``out`` and ``rows`` are those of :func:`potential`.
    """
    blk = grade_block(grades)
    wv = w.values[:, rows] if isinstance(w, FormField) else dict(enumerate(w[:, rows], blk.start))
    shape = wv[blk.start].shape
    field = None
    if out is None:
        field = np.zeros((8,) + shape, dtype=complex)
        out = field[blk]
    elif out.shape != (blk.stop - blk.start,) + shape:
        raise ValueError(f"out must have shape {(blk.stop - blk.start,) + shape}, got {out.shape}")
    # vee lowers grade l + 1 into each low grade l, and wedge raises l into l + 1
    lows = [1] if transpose else [l for l in (0, 2) if l in algebra.GRADES[blk]]
    c, mult = dm.contraction_covector[:, rows], dm.grade_multipliers[:, rows]
    # each Hessian is read only in the grade it enters: a one-block solve forms only its own
    hess1, hess2, scale = ("hess_a", "hess_b", -2.0) if transpose else ("hess_b", "hess_a", 2.0)
    h, term = np.empty((2,) + shape, dtype=complex)  # a Hessian row; a product, then the blade
    for b in range(blk.start, blk.stop):
        l, r = algebra.GRADES[b], out[b - blk.start]
        table = algebra.VEE_COV if l in lows else algebra.WEDGE_COV if l - 1 in lows else None
        for i, (j, src) in enumerate(zip(*np.nonzero(table[:, :, b])) if table is not None else ()):
            add = np.add if table[j, src, b] > 0 else np.subtract
            if i == 0:  # the first term, from +0.0
                add(0.0, np.multiply(c[j], wv[src], out=r), out=r)
            else:
                add(r, np.multiply(c[j], wv[src], out=term), out=r)
        if l in (1, 2):  # row k of H scale w^1, or of H scale star w^2 on blades 1..3
            hess = getattr(dm, hess1 if l == 1 else hess2)[:, rows]
            k = b - _GRADE_BLADES[l].start
            for j, into in enumerate((h, term, term)):
                if l == 1:
                    np.multiply(scale, wv[1 + j], out=into)
                else:
                    np.multiply(scale * _STAR2_SIGN[j], wv[4 + _STAR2_SRC[j]], out=into)
                np.multiply(hess[algebra.SYM_INDEX[j][k if l == 1 else _STAR1_SRC[k]]], into, out=into)
                if j:
                    h += term
            if l == 2:  # the star of the Hessian image, back on blades 4..6
                np.multiply(_STAR1_SIGN[k], h, out=h)
        np.multiply(mult[l ^ 1 if transpose else l], wv[b], out=term)
        if l in (1, 2):
            term += h
        if table is None:
            np.copyto(r, term)
        else:
            (np.subtract if transpose and l == 1 else np.add)(term, r, out=r)
    return out if field is None else FormField(dm.grid, field)


def potential(w, dm: DerivedMedium, grades=(0, 1, 2, 3), out=None, rows=slice(None)):
    """Zeroth-order potential as a pointwise multiplication.

    The potential maps grades (0, 1) and grades (2, 3) each into
    themselves.  With ``grades`` a union of these blocks (see
    :func:`grade_block`) only their blades are read and written, and the
    other blades of the result are zero; ``w`` may be the block's blades alone.

    With ``out``, an array of the block's blades (shape (blades, n, n, n);
    any other shape raises ValueError), the block is written there and
    ``out`` is returned instead of a field.  With ``rows``, a slice of the first
    grid axis, only those rows are read, and ``out`` holds those of the block.
    """
    return _potential(w, dm, False, grades, out, rows)


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
    (np.subtract if transpose else np.add)(mid, algebra.vee_cov(dm.dc3, wv, grades=vee_in), out=mid)
    total += 2j * dm.omega * np.sum(algebra.inner(mid, pv))
    del mid

    dxdx = algebra.inner(dx3, dx3)
    dydy = algebra.inner(dy3, dy3)
    total += np.sum((ip[0] + ip[2]) * dxdx + (ip[1] + ip[3]) * dydy)

    def by_parts(d3, g3) -> complex:  # sign * int <d3, g3>, g3 a covector field
        return sign * np.sum(algebra.inner(d3, g3))

    for d3, s in ((dx3, ip[2] - ip[0]), (dy3, ip[1] - ip[3])):
        total += by_parts(d3, _gradient(grid, s))
    total += by_parts(dy3, sym_coderiv(grid, algebra.sym_product_components(wv[1:4], pv[1:4])))
    # the Hodge star carries grade 2 onto blades 1..3, where the symmetric
    # product reads its factors
    total += by_parts(dx3, sym_coderiv(grid, algebra.sym_product_components(_star2(wv), _star2(pv))))

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
    u1 = FormField(u.grid, algebra.grade_select(u.values, 1))
    u2 = FormField(u.grid, algebra.grade_select(u.values, 2))
    res = coderiv(u2, zeta).values - ext_deriv(u1, zeta).values
    res += 1j * dm.omega * dm.gamma * u1.values
    res += 1j * dm.omega * dm.mu * u2.values
    return FormField(u.grid, res)
