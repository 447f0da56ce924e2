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
    _parallel_map,
    amplitude_a,
    amplitude_b,
    make_geometry,
    solve_cgo,
)
from .fields import (
    FormField,
    Grid,
    _clamped_abs_symbol,
    _fftn,
    _ifftn,
    _symbol_weight,
    _weighted_sq_sum,
    plane_wave_scalar,
    seeded_rng,
)
from .media import Medium, DerivedMedium, derive, potential


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
) -> PairingResult:
    """Quadrature of e_(i rho) <(Q2 - Q1)(A + R), B + S>.

    The first remainder solves against the first medium with the primary
    amplitude, the second against the second medium with the paired
    amplitude (same potential-form equation); all factors are periodic.
    """
    grid = mp.grid
    a_amp = amplitude_a(geom, pol)
    b_amp = amplitude_b(geom, pol)
    sol1 = solve_cgo(mp.dm1, geom.zeta1, a_amp, tol=tol, max_iter=max_iter, floor=floor)
    sol2 = solve_cgo(mp.dm2, geom.zeta2, b_amp, tol=tol, max_iter=max_iter, floor=floor)
    w = FormField.constant(grid, a_amp) + sol1.remainder
    v = FormField.constant(grid, b_amp) + sol2.remainder
    dq = potential(w, mp.dm2) - potential(w, mp.dm1)
    wave = plane_wave_scalar(grid, geom.rho)
    value = complex(grid.cell_volume * np.sum(wave * dq.inner(v)))
    return PairingResult(value=value, sol1=sol1, sol2=sol2)


def _scatter_target(dm1, dm2, s1, s2, ds1, ds2, rho, omega, grid) -> complex:
    """Common form of the two scattering relations in the pairing-limit
    orientation: int <d(s1-s2), d e> + int <d(s1+s2), d(s2-s1)> e
    + omega^2 int (g1 m1 - g2 m2) e, with e = e_(i rho)."""
    wave = plane_wave_scalar(grid, rho)
    irho = 1j * np.asarray(rho, dtype=float)
    diff3 = ds1.values[1:4] - ds2.values[1:4]
    total = np.sum(np.einsum("j...,j->...", diff3, irho) * wave)
    sum3 = ds1.values[1:4] + ds2.values[1:4]
    total += np.sum(np.einsum("j...,j...->...", sum3, -diff3) * wave)
    total += omega**2 * np.sum((dm1.gamma_mu - dm2.gamma_mu) * wave)
    return complex(grid.cell_volume * total)


def target_a(mp: MediumPair, rho) -> complex:
    """Large-s limit of the E-polarized pairing: the scattering relation
    in the electric half-log contrast."""
    return _scatter_target(
        mp.dm1, mp.dm2,
        mp.dm1.log_half_gamma, mp.dm2.log_half_gamma,
        mp.dm1.da, mp.dm2.da,
        np.asarray(rho, dtype=float), mp.dm1.omega, mp.grid,
    )


def target_b(mp: MediumPair, rho) -> complex:
    """Large-s limit of the H-polarized pairing: the scattering relation
    in the magnetic half-log contrast."""
    return _scatter_target(
        mp.dm1, mp.dm2,
        mp.dm1.log_half_mu, mp.dm2.log_half_mu,
        mp.dm1.db, mp.dm2.db,
        np.asarray(rho, dtype=float), mp.dm1.omega, mp.grid,
    )


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
) -> ConvergenceResult:
    """Pairing against its scattering target along increasing s.

    Entries are independent (two solves each) and may run on worker
    threads; rows are reduced in s order either way.
    """
    s_list = list(s_list)
    if any(b <= a for a, b in zip(s_list, s_list[1:])):
        raise ValueError("s values must be increasing")
    rho = np.asarray(rho, dtype=float)
    target = target_a(mp, rho) if pol == Polarization.E else target_b(mp, rho)

    def run(s):
        geom = make_geometry(rho, eta1, eta2, s, mp.k, grid=mp.grid)
        res = pairing(mp, geom, pol, tol=tol, max_iter=max_iter, floor=floor)
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


def subbox_window(grid: Grid, start: float = 0.8, stop: float = 0.98) -> np.ndarray:
    """Smooth plateau equal to 1 deep inside the central sub-box and 0
    outside it; start/stop are fractions of the sub-box half-width."""
    half = grid.length / 4.0
    r = np.max(np.abs(grid.x - grid.length / 2.0), axis=0) / half
    return _smooth_step((r - start) / (stop - start))


def ucp_coefficients(mp: MediumPair, window: np.ndarray | None = None) -> UcpCoefficients:
    """Coefficients of the coupled system for the square-root contrasts.

    V and W divide the Laplacian of the square-root sums by themselves;
    a, b, c, d are the windowed products of the coefficients (the window
    plays the role of the domain indicator).
    """
    grid = mp.grid
    if window is None:
        window = subbox_window(grid)
    omega2 = mp.dm1.omega**2
    sg1, sg2 = mp.dm1.sqrt_gamma, mp.dm2.sqrt_gamma
    sm1, sm2 = mp.dm1.sqrt_mu, mp.dm2.sqrt_mu
    g1, g2 = mp.dm1.gamma, mp.dm2.gamma
    mu1, mu2 = mp.dm1.mu, mp.dm2.mu

    def neg_lap_over(f):
        return -_ifftn(-grid.xi_op_sq * _fftn(f)) / f

    V = window * neg_lap_over(sg1 + sg2)
    W = window * neg_lap_over(sm1 + sm2)
    a = window * omega2 * sg1 * sg2 * (mu1 + mu2)
    b = -window * omega2 * sg1 * sg2 * (g1 + g2) * (sm1 + sm2) / (sg1 + sg2)
    c = window * omega2 * sm1 * sm2 * (g1 + g2)
    d = -window * omega2 * sm1 * sm2 * (mu1 + mu2) * (sg1 + sg2) / (sm1 + sm2)
    return UcpCoefficients(V=V, W=W, a=a, b=b, c=c, d=d)


def null_covector(magnitude: float, axis1: int = 0, axis2: int = 1) -> np.ndarray:
    """Complex covector with <zeta, zeta> = 0 and the given magnitude."""
    zeta = np.zeros(3, dtype=complex)
    t = magnitude / np.sqrt(2.0)
    zeta[axis1] = t
    zeta[axis2] = 1j * t
    return zeta


@dataclass
class UcpReport:
    norm_estimate: float
    conclusive: bool
    contraction_certified: bool
    power_iterations: int
    fixed_point_converged: bool
    fixed_point_iterations: int
    clamped_modes: int


class _UcpOperator:
    """resolvent o multiplication on the two coupled scalar components,
    with machinery for the weighted adjoint."""

    def __init__(self, grid: Grid, coeffs: UcpCoefficients, zeta, floor: float | None):
        p, absp, mask = _clamped_abs_symbol(grid, zeta, floor)
        self.grid = grid
        self.mask = mask
        self.inv_p = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, p))
        self.weight = _symbol_weight(absp, mask, 0.5)
        active = ~mask
        self.inv_weight = np.where(active, 1.0 / np.where(active, self.weight, 1.0), 0.0)
        self.m00 = coeffs.V + coeffs.a
        self.m03 = coeffs.b
        self.m30 = coeffs.d
        self.m33 = coeffs.W + coeffs.c

    def _mult(self, u, conj_transpose=False):
        w0, w3 = _ifftn(u)
        if conj_transpose:
            o0 = np.conj(self.m00) * w0 + np.conj(self.m30) * w3
            o3 = np.conj(self.m03) * w0 + np.conj(self.m33) * w3
        else:
            o0 = self.m00 * w0 + self.m03 * w3
            o3 = self.m30 * w0 + self.m33 * w3
        return _fftn(np.stack([o0, o3]))

    def apply(self, u):
        """T u = resolvent(M u), spectral in and out."""
        return self._mult(u) * self.inv_p

    def apply_adjoint(self, u):
        """Adjoint of T in the +1/2-weighted inner product."""
        v = np.conj(self.inv_p) * self.weight * u
        return self.inv_weight * self._mult(v, conj_transpose=True)

    def norm_sq(self, u):
        return float(_weighted_sq_sum(self.weight, u))


def ucp_contraction_check(
    grid: Grid,
    coeffs: UcpCoefficients,
    zeta,
    trials: int = 4,
    seed: int = 0,
    floor: float | None = None,
    power_iterations: int = 30,
    fixed_point_starts: int = 10,
    fixed_point_tol: float = 1e-8,
    fixed_point_max_iter: int = 400,
    support_tol: float = 1e-8,
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
    zeta = np.asarray(zeta, dtype=complex)
    if abs(np.dot(zeta, zeta)) > 1e-10 * max(1.0, float(np.sum(np.abs(zeta) ** 2))):
        raise ValueError("unique continuation check needs <zeta, zeta> = 0")
    outside = grid.outside_subbox
    for name, f in zip("VWabcd", coeffs.as_tuple()):
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if float(np.max(np.abs(f[outside]))) > support_tol * scale:
            raise ValueError(f"coefficient {name} is not supported in the sub-box")

    op = _UcpOperator(grid, coeffs, zeta, floor)
    rng = seeded_rng(seed)
    shape = (2, grid.n, grid.n, grid.n)

    best = 0.0
    for _ in range(max(1, trials)):
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u[:, op.mask] = 0.0
        nu = np.sqrt(op.norm_sq(u))
        if nu == 0:
            continue
        u /= nu
        est = 0.0
        for _ in range(power_iterations):
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
        for _ in range(fixed_point_starts):
            w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w[:, op.mask] = 0.0
            w /= np.sqrt(op.norm_sq(w))
            it = 0
            norm = 1.0
            while norm > fixed_point_tol and it < fixed_point_max_iter:
                w = -op.apply(w)
                norm = np.sqrt(op.norm_sq(w))
                it += 1
            worst_iters = max(worst_iters, it)
            if norm > fixed_point_tol:
                converged_all = False
    else:
        converged_all = False

    return UcpReport(
        norm_estimate=best,
        conclusive=not (0.9 <= best <= 1.1),
        contraction_certified=best < 1.0,
        power_iterations=power_iterations,
        fixed_point_converged=converged_all,
        fixed_point_iterations=worst_iters,
        clamped_modes=int(np.sum(op.mask)),
    )
