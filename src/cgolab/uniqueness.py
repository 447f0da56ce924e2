"""Pairing experiments for two media sharing boundary data behaviour.

Evaluates the contrast pairing of the two paired constructions in
conjugated variables, compares its large-s limit against the two
scattering relations (one per polarization), and certifies the unique
continuation contraction for the coupled second-order system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgo import (
    CgoGeometry,
    CgoSolution,
    Polarization,
    amplitude_a,
    amplitude_b,
    make_geometry,
    solve_cgo,
    strictly_decreasing,
)
from .fields import (
    ClampedSymbol,
    FormField,
    Grid,
    _forward,
    _forward_box,
    _inverse,
    _parallel_map,
    _weighted_sq_sum,
    plane_wave_scalar,
    seeded_rng,
)
from .media import Medium, DerivedMedium, derive, potential

# The coefficient window rises from 0 to 1 between these fractions of
# the sub-box half-width (see subbox_window).
WINDOW_START = 0.8
WINDOW_STOP = 0.98
SUPPORT_TOL = 1e-8  # relative size a coefficient may keep outside the sub-box
POWER_ITERATIONS = 30  # per random start of the norm estimate
FIXED_POINT_STARTS = 10
FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 400


# ---------------------------------------------------------------------------
# medium pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumPair:
    """Two derived media agreeing with each other outside the sub-box."""

    dm1: DerivedMedium
    dm2: DerivedMedium

    @property
    def grid(self) -> Grid:
        return self.dm1.grid

    @property
    def k(self) -> float:
        return self.dm1.k

    @property
    def identical(self) -> bool:
        return (
            np.array_equal(self.dm1.gamma, self.dm2.gamma)
            and np.array_equal(self.dm1.mu, self.dm2.mu)
        )


def make_pair(m1: Medium, m2: Medium) -> MediumPair:
    if m1.grid != m2.grid:
        raise ValueError("media must share one grid")
    for name in ("omega", "eps0", "mu0"):
        if getattr(m1, name) != getattr(m2, name):
            raise ValueError(f"media must share {name}")
    outside = m1.grid.outside_subbox
    tol = 1e-12 * max(m1.eps0, m1.mu0)
    for name, f1, f2 in (("eps", m1.eps, m2.eps), ("mu", m1.mu, m2.mu), ("sigma", m1.sigma, m2.sigma)):
        dev = float(np.max(np.abs(f1[outside] - f2[outside])))
        if dev > tol:
            raise ValueError(f"{name} fields disagree outside the sub-box by {dev:.3e}")
    return MediumPair(dm1=derive(m1), dm2=derive(m2))


# ---------------------------------------------------------------------------
# contrast pairing and its scattering targets
# ---------------------------------------------------------------------------

@dataclass
class PairingResult:
    value: complex
    sol1: CgoSolution
    sol2: CgoSolution


def pairing(
    mp: MediumPair,
    geom: CgoGeometry,
    pol: Polarization,
    tol: float = 1e-9,
    max_iter: int = 80,
    floor: float | None = None,
    clamp_threshold: float | None = None,
) -> PairingResult:
    """Quadrature of e_(i rho) <(Q2 - Q1)(A + R), B + S>.

    The first remainder solves against the first medium with the primary
    amplitude, the second against the second medium with the paired
    amplitude (same potential-form equation); all factors are periodic.
    """
    grid = mp.grid
    a_amp = amplitude_a(geom, pol)
    b_amp = amplitude_b(geom, pol)
    opts = dict(tol=tol, max_iter=max_iter, floor=floor, clamp_threshold=clamp_threshold)
    sol1 = solve_cgo(mp.dm1, geom.zeta1, a_amp, **opts)
    sol2 = solve_cgo(mp.dm2, geom.zeta2, b_amp, **opts)
    w = FormField.constant(grid, a_amp) + sol1.remainder
    v = FormField.constant(grid, b_amp) + sol2.remainder
    dq = potential(w, mp.dm2) - potential(w, mp.dm1)
    wave = plane_wave_scalar(grid, geom.rho)
    value = complex(grid.cell_volume * np.sum(wave * dq.inner(v)))
    return PairingResult(value=value, sol1=sol1, sol2=sol2)


def scattering_target(mp: MediumPair, rho, pol: Polarization) -> complex:
    """Large-s limit of the pairing: the scattering relation in the electric
    half-log contrast for E, the magnetic one for H.  In the pairing-limit
    orientation it reads int <d(s1-s2), d e> + int <d(s1+s2), d(s2-s1)> e
    + omega^2 int (g1 m1 - g2 m2) e, with e = e_(i rho) and s1, s2 the
    half-log fields a (E) or b (H) of the two media."""
    dm1, dm2, grid = mp.dm1, mp.dm2, mp.grid
    ds1, ds2 = (dm1.da3, dm2.da3) if pol == Polarization.E else (dm1.db3, dm2.db3)
    rho = np.asarray(rho, dtype=float)
    wave = plane_wave_scalar(grid, rho)
    diff3 = ds1 - ds2
    total = np.sum(np.einsum("j...,j->...", diff3, 1j * rho) * wave)
    total += np.sum(np.einsum("j...,j...->...", ds1 + ds2, -diff3) * wave)
    total += dm1.omega**2 * np.sum((dm1.gamma_mu - dm2.gamma_mu) * wave)
    return complex(grid.cell_volume * total)


@dataclass
class ScatteringOutput:
    s: float
    pairing: complex
    target: complex

    @property
    def abs_error(self) -> float:
        return abs(self.pairing - self.target)


@dataclass
class ConvergenceResult:
    rows: list[ScatteringOutput]
    target: complex

    @property
    def error_shrinks(self) -> bool:
        return self.rows[-1].abs_error < self.rows[0].abs_error


def convergence_experiment(
    mp: MediumPair,
    rho,
    pol: Polarization,
    s_list,
    eta1,
    eta2,
    tol: float = 1e-9,
    max_iter: int = 80,
    floor: float | None = None,
    workers: int = 1,
    clamp_threshold: float | None = None,
) -> ConvergenceResult:
    """Pairing against its scattering target along increasing s.

    Entries are independent (two solves each) and may run on worker
    threads; rows are reduced in s order either way.
    """
    s_list = list(s_list)
    if not strictly_decreasing(reversed(s_list)):
        raise ValueError("s values must be increasing")
    rho = np.asarray(rho, dtype=float)
    target = scattering_target(mp, rho, pol)

    def run(s):
        geom = make_geometry(rho, eta1, eta2, s, mp.k, grid=mp.grid)
        res = pairing(mp, geom, pol, tol, max_iter, floor, clamp_threshold)
        return ScatteringOutput(s=float(s), pairing=res.value, target=target)

    return ConvergenceResult(rows=_parallel_map(run, s_list, workers), target=target)


# ---------------------------------------------------------------------------
# unique continuation certificate
# ---------------------------------------------------------------------------

@dataclass
class UcpCoefficients:
    """Scalar coefficient fields of the coupled second-order system,
    windowed into the central sub-box."""

    V: np.ndarray
    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def as_tuple(self):
        return (self.V, self.W, self.a, self.b, self.c, self.d)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for t <= 0, 0 for t >= 1."""
    out = np.zeros_like(t)
    out[t <= 0] = 1.0
    mid = (t > 0) & (t < 1)
    tm = t[mid]
    with np.errstate(divide="ignore", over="ignore"):
        f1 = np.exp(-1.0 / tm)
        f0 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = f0 / (f0 + f1)
    return out


def subbox_window(grid: Grid) -> np.ndarray:
    """Smooth plateau equal to 1 deep inside the central sub-box and 0
    outside it."""
    half = grid.length / 4.0
    r = np.max(np.abs(grid.x - grid.length / 2.0), axis=0) / half
    return _smooth_step((r - WINDOW_START) / (WINDOW_STOP - WINDOW_START))


def ucp_coefficients(mp: MediumPair) -> UcpCoefficients:
    """Coefficients of the coupled system for the square-root contrasts.

    V and W divide the Laplacian of the square-root sums by themselves;
    a, b, c, d are the windowed products of the coefficients (the window
    plays the role of the domain indicator).
    """
    grid = mp.grid
    window = subbox_window(grid)
    omega2 = mp.dm1.omega**2
    sg1, sg2 = mp.dm1.sqrt_gamma, mp.dm2.sqrt_gamma
    sm1, sm2 = mp.dm1.sqrt_mu, mp.dm2.sqrt_mu
    g1, g2 = mp.dm1.gamma, mp.dm2.gamma
    mu1, mu2 = mp.dm1.mu, mp.dm2.mu

    def neg_lap_over(f):
        return -_inverse(-grid.xi_op_sq * _forward(f)) / f

    V = window * neg_lap_over(sg1 + sg2)
    W = window * neg_lap_over(sm1 + sm2)
    a = window * omega2 * sg1 * sg2 * (mu1 + mu2)
    b = -window * omega2 * sg1 * sg2 * (g1 + g2) * (sm1 + sm2) / (sg1 + sg2)
    c = window * omega2 * sm1 * sm2 * (g1 + g2)
    d = -window * omega2 * sm1 * sm2 * (mu1 + mu2) * (sg1 + sg2) / (sm1 + sm2)
    return UcpCoefficients(V=V, W=W, a=a, b=b, c=c, d=d)


def null_covector(magnitude: float) -> np.ndarray:
    """Complex covector (t, i t, 0) with <zeta, zeta> = 0 and the given magnitude."""
    zeta = np.zeros(3, dtype=complex)
    t = magnitude / np.sqrt(2.0)
    zeta[0] = t
    zeta[1] = 1j * t
    return zeta


@dataclass
class UcpReport:
    norm_estimate: float
    conclusive: bool
    contraction_certified: bool
    fixed_point_converged: bool
    fixed_point_iterations: int
    clamped_modes: int


def _support_box(fields) -> tuple[slice, slice, slice]:
    """Bounding box of the points where any of the fields is nonzero;
    empty when every field is zero."""
    nonzero = np.zeros(fields[0].shape, dtype=bool)
    for f in fields:
        nonzero |= f != 0
    box = []
    for axis in range(3):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
    return tuple(box)


class _UcpOperator:
    """resolvent o multiplication on the two coupled scalar components,
    with machinery for the weighted adjoint.

    The multiplication runs on the support box of the coefficients: the
    inverse transform yields only the box, and the forward transform
    starts from a field that is zero outside it.
    """

    def __init__(self, grid: Grid, coeffs: UcpCoefficients, zeta):
        sym = ClampedSymbol(grid, zeta)
        self.grid = grid
        self.mask = sym.mask
        self.inv_p = sym.inverse(np.ones(sym.mask.shape, complex))
        self.weight = sym.weight(0.5)
        self.inv_weight = sym.weight(-0.5)
        self.adjoint_in = np.conj(self.inv_p) * self.weight
        m = (coeffs.V + coeffs.a, coeffs.b, coeffs.d, coeffs.W + coeffs.c)
        self.box = _support_box(m)
        self.m00, self.m03, self.m30, self.m33 = (f[self.box].copy() for f in m)

    def _mult(self, u, conj_transpose=False):
        w0, w3 = _inverse(u, box=self.box)
        if conj_transpose:
            o0 = np.conj(self.m00) * w0 + np.conj(self.m30) * w3
            o3 = np.conj(self.m03) * w0 + np.conj(self.m33) * w3
        else:
            o0 = self.m00 * w0 + self.m03 * w3
            o3 = self.m30 * w0 + self.m33 * w3
        return _forward_box(np.stack([o0, o3]), self.box, self.grid.n)

    def apply(self, u):
        """T u = resolvent(M u), spectral in and out."""
        return self._mult(u) * self.inv_p

    def apply_adjoint(self, u):
        """Adjoint of T in the +1/2-weighted inner product."""
        return self.inv_weight * self._mult(self.adjoint_in * u, conj_transpose=True)

    def norm_sq(self, u):
        return float(_weighted_sq_sum(self.weight, u))


def ucp_contraction_check(
    grid: Grid,
    coeffs: UcpCoefficients,
    zeta,
    trials: int = 4,
    seed: int = 0,
) -> UcpReport:
    """Estimate the weighted operator norm of resolvent o multiplication
    and certify the contraction.

    The norm of T restricted to the coupled grade-{0,3} components is
    estimated by power iteration on the adjoint composition T*T (the
    adjoint taken in the +1/2-weighted inner product), maximized over
    seeded random starts.  The fixed-point side then iterates
    w <- -T w from random starts and reports whether every start decays
    below the tolerance.  Estimates inside [0.9, 1.1] are reported as
    inconclusive.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    zeta = np.asarray(zeta, dtype=complex)
    if abs(np.dot(zeta, zeta)) > 1e-10 * max(1.0, float(np.sum(np.abs(zeta) ** 2))):
        raise ValueError("unique continuation check needs <zeta, zeta> = 0")
    outside = grid.outside_subbox
    for name, f in zip("VWabcd", coeffs.as_tuple()):
        if not np.all(np.isfinite(f)):
            raise ValueError(f"coefficient {name} is not finite")
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if float(np.max(np.abs(f[outside]))) > SUPPORT_TOL * scale:
            raise ValueError(f"coefficient {name} is not supported in the sub-box")

    op = _UcpOperator(grid, coeffs, zeta)
    rng = seeded_rng(seed)
    shape = (2, grid.n, grid.n, grid.n)

    best = 0.0
    for _ in range(trials):
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u[:, op.mask] = 0.0
        nu = np.sqrt(op.norm_sq(u))
        if nu == 0:
            continue
        u /= nu
        est = 0.0
        for _ in range(POWER_ITERATIONS):
            tu = op.apply(u)
            est = np.sqrt(op.norm_sq(tu))  # Rayleigh quotient since ||u|| = 1
            g = op.apply_adjoint(tu)
            ng = np.sqrt(op.norm_sq(g))
            if ng == 0:
                break
            u = g / ng
        best = max(best, est)

    converged_all = True
    worst_iters = 0
    if best < 1.0:
        for _ in range(FIXED_POINT_STARTS):
            w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w[:, op.mask] = 0.0
            w /= np.sqrt(op.norm_sq(w))
            it = 0
            norm = 1.0
            while norm > FIXED_POINT_TOL and it < FIXED_POINT_MAX_ITER:
                w = -op.apply(w)
                norm = np.sqrt(op.norm_sq(w))
                it += 1
            worst_iters = max(worst_iters, it)
            if norm > FIXED_POINT_TOL:
                converged_all = False
    else:
        converged_all = False

    best = float(best)
    return UcpReport(
        norm_estimate=best,
        conclusive=not (0.9 <= best <= 1.1),
        contraction_certified=best < 1.0,
        fixed_point_converged=converged_all,
        fixed_point_iterations=worst_iters,
        clamped_modes=int(np.sum(op.mask)),
    )
