"""Pairing experiments for two media sharing boundary data behaviour.

Evaluates the contrast pairing of the two paired constructions in
conjugated variables, compares its large-s limit against the two
scattering relations (one per polarization), and certifies the unique
continuation contraction for the coupled second-order system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import inner
from .cgo import (
    CgoGeometry,
    Polarization,
    amplitude_a,
    amplitude_b,
    amplitude_grades,
    make_geometry,
    solve_cgo,
    strictly_decreasing,
)
from .fields import (
    ClampedSymbol,
    ClampReport,
    Grid,
    _forward,
    _forward_box,
    _inverse,
    _parallel_map,
    _usable_cpus,
    assert_admissible,
    plane_wave_scalar,
    seeded_rng,
)
from .media import Medium, DerivedMedium, derive, grade_block, potential

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
        dm1, dm2 = self.dm1, self.dm2
        return np.array_equal(dm1.gamma, dm2.gamma) and np.array_equal(dm1.mu, dm2.mu)


def make_pair(m1: Medium, m2: Medium) -> MediumPair:
    if m1.grid != m2.grid:
        raise ValueError("media must share one grid")
    for name in ("omega", "eps0", "mu0"):
        if getattr(m1, name) != getattr(m2, name):
            raise ValueError(f"media must share {name}")
    outside = m1.grid.outside_subbox
    for name, f1, f2 in (("eps", m1.eps, m2.eps), ("mu", m1.mu, m2.mu), ("sigma", m1.sigma, m2.sigma)):
        dev = float(np.max(np.abs(f1[outside] - f2[outside])))
        if dev > m1.background_tol:  # the bound each medium meets; m2's is the same
            raise ValueError(f"{name} fields disagree outside the sub-box by {dev:.3e}")
    return MediumPair(dm1=derive(m1), dm2=derive(m2))


# ---------------------------------------------------------------------------
# contrast pairing and its scattering targets
# ---------------------------------------------------------------------------

@dataclass
class PairingResult:
    value: complex
    clamps: tuple[ClampReport, ClampReport]  # of the first solve, then of the paired one
    defects: tuple[float, float]  # clamped_defect / forcing_norm of each, in that order (0 for no forcing)


def pairing(mp: MediumPair, geom: CgoGeometry, pol: Polarization, **solver) -> PairingResult:
    """Quadrature of e_(i rho) <(Q2 - Q1)(A + R), B + S>.

    R solves against the first medium with the primary amplitude A, S against the second with
    the paired amplitude B (same potential-form equation); all factors are periodic.  ``solver``
    holds the keyword arguments of both solves.  Q keeps each grade block and p^-1 and the quadrature
    act blade by blade, so B is zeroed off A's block, which alone is solved and paired.
    The paired solve runs first, alone: when both would fail, its error is raised.
    The inner product, a temporary, is the wave's left factor: one operand order at every grid size.
    """
    amp = amplitude_a(geom, pol)
    blk = grade_block(grades := amplitude_grades(amp))
    b = np.zeros(8, dtype=complex)
    b[blk] = amplitude_b(geom, pol)[blk]
    paired = solve_cgo(mp.dm2, geom.zeta2, b, **solver)
    first = solve_cgo(mp.dm1, geom.zeta1, amp, **solver)
    dq = potential(first.values, mp.dm2, grades, np.empty_like(first.values))
    dq -= potential(first.values, mp.dm1, grades, np.empty_like(dq))
    value = complex(mp.grid.cell_volume * np.sum(inner(dq, paired.values) * plane_wave_scalar(mp.grid, geom.rho)))
    defects = tuple(s.clamped_defect / s.forcing_norm if s.forcing_norm else 0.0 for s in (first, paired))
    return PairingResult(value=value, clamps=(first.clamp, paired.clamp), defects=defects)


def scattering_target(mp: MediumPair, rho, pol: Polarization) -> complex:
    """Large-s limit of the pairing: the scattering relation in the electric
    half-log contrast for E, the magnetic one for H.  In the pairing-limit
    orientation it reads int <d(s1-s2), d e> + int <d(s1+s2), d(s2-s1)> e
    + omega^2 int (g1 m1 - g2 m2) e, with e = e_(i rho) and s1, s2 the
    half-log fields a (E) or b (H) of the two media.  Their gradients are
    formed here and dropped: the media do not cache them."""
    dm1, dm2, grid = mp.dm1, mp.dm2, mp.grid
    ds1, ds2 = (dm.half_log_gradient(dm.gamma if pol == Polarization.E else dm.mu) for dm in (dm1, dm2))
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
    clamps: tuple[ClampReport, ClampReport]  # those of the row's PairingResult
    defects: tuple[float, float]  # and its defects

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
    mp: MediumPair, rho, pol: Polarization, s_list, eta1, eta2, workers: int = 1, **solver
) -> ConvergenceResult:
    """Pairing against its scattering target along increasing s.

    Entries are independent (two solves each) and may run on worker
    threads; rows are reduced in s order either way.  ``solver`` holds the
    keyword arguments of every solve.
    """
    s_list = list(s_list)
    if not s_list or not strictly_decreasing(reversed(s_list)):
        raise ValueError("s values must be a nonempty increasing list")
    target = scattering_target(mp, rho, pol)
    # the Hessian each medium's block reads, formed here: formed in a pool task, one raised peak RSS ~10% (README)
    [getattr(dm, "hess_b" if pol == Polarization.E else "hess_a") for dm in (mp.dm1, mp.dm2)]

    def run(s):
        res = pairing(mp, make_geometry(rho, eta1, eta2, s, mp.k, grid=mp.grid), pol, **solver)
        return ScatteringOutput(s=float(s), pairing=res.value, target=target, clamps=res.clamps, defects=res.defects)

    return ConvergenceResult(rows=_parallel_map(run, s_list, workers), target=target)


# ---------------------------------------------------------------------------
# unique continuation certificate
# ---------------------------------------------------------------------------

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
    r = grid.subbox_distance / (grid.length / 4.0)
    return _smooth_step((r - WINDOW_START) / (WINDOW_STOP - WINDOW_START))


def ucp_coefficients(mp: MediumPair) -> np.ndarray:
    """Pointwise multiplier M = [[V + a, b], [d, W + c]] of the coupled
    system for the square-root contrasts, complex, shape (2, 2, n, n, n).

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

    M = np.empty((2, 2) + window.shape, complex)
    M[0, 0] = window * neg_lap_over(sg1 + sg2) + window * omega2 * sg1 * sg2 * (mu1 + mu2)
    M[0, 1] = -window * omega2 * sg1 * sg2 * (g1 + g2) * (sm1 + sm2) / (sg1 + sg2)
    M[1, 0] = -window * omega2 * sm1 * sm2 * (mu1 + mu2) * (sg1 + sg2) / (sm1 + sm2)
    M[1, 1] = window * neg_lap_over(sm1 + sm2) + window * omega2 * sm1 * sm2 * (g1 + g2)
    return M


def null_covector(magnitude: float) -> np.ndarray:
    """Complex covector (t, i t, 0) with <zeta, zeta> = 0 and the given magnitude."""
    t = magnitude / np.sqrt(2.0)
    return np.array([t, 1j * t, 0.0], dtype=complex)


@dataclass
class UcpReport:
    norm_estimate: float
    conclusive: bool
    contraction_certified: bool
    fixed_point_converged: bool
    fixed_point_iterations: int
    clamped_modes: int


def _support_box(nonzero: np.ndarray) -> tuple[slice, slice, slice]:
    """Bounding box of the true points of a boolean (n, n, n) array; empty
    when there are none."""
    box = []
    for axis in range(3):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0))
    return tuple(box)


class _UcpOperator:
    """resolvent o multiplication, T, on the two coupled scalar components, in support-box coordinates: a
    state is b = to_box(u), the components of the spectral u on the support box of M, and ``from_box``
    transforms a field that is zero off that box.  Both keep the bits of the full-grid transforms, and every
    call builds its own arrays: a state owns its data and pins no n^3 buffer of the transform."""

    def __init__(self, grid: Grid, M: np.ndarray, zeta):
        self.sym = ClampedSymbol(grid, zeta)
        self.inv_p = self.sym.inverse(np.ones(self.sym.mask.shape, complex))  # a multiply, where inverse divides
        self.inv_weight = self.sym.weight(-0.5)
        self.box = _support_box(np.any(M != 0, axis=(0, 1)))
        self.m = M[(slice(None), slice(None)) + self.box].copy()
        self.mh = np.conj(self.m.swapaxes(0, 1))

    def to_box(self, u):
        return _inverse(u, box=self.box)

    def from_box(self, z):
        return _forward_box(z, self.box, self.sym.grid.n)

    def _mult(self, b, m):
        """m (M or its conjugate transpose) times the box values b, spectral out."""
        return self.from_box(m[:, 0] * b[0] + m[:, 1] * b[1])

    def apply(self, b):
        """T u = resolvent(M u) for the u with box values b, spectral out."""
        return self._mult(b, self.m) * self.inv_p

    def power_start(self, b):
        """||T u|| at the unit u that POWER_ITERATIONS steps of T*T reach from
        the unit start b.  On the live modes T*'s conj(1/p) |p| times T's 1/p
        is 1/|p| = Wi, so a step is Wi F(M* B(Wi F(M b))), F = from_box and
        B = to_box; as |p| Wi^2 = Wi, ||T u|| is the weighted norm of Wi F(M b).
        The last step stops at its h, which is all the estimate reads."""
        h = self.inv_weight * self._mult(b, self.m)
        for _ in range(POWER_ITERATIONS - 1):
            g = self.inv_weight * self._mult(self.to_box(h), self.mh)
            ng = self.sym.norm(g, 0.5)
            if ng == 0:
                break
            b = self.to_box(g)
            b /= ng
            h = self.inv_weight * self._mult(b, self.m)
        return self.sym.norm(h, 0.5)

    def fixed_point_start(self, b):
        """(steps, weighted norm) of w <- -T w from the unit start b, run as w <- T w: negation commutes
        exactly with each step, so the norms agree.  The w whose norm ends the loop is not cut to the box."""
        for it in range(1, FIXED_POINT_MAX_ITER + 1):
            norm = self.sym.norm(w := self.apply(b), 0.5)
            if not norm > FIXED_POINT_TOL or it == FIXED_POINT_MAX_ITER:
                return it, norm
            b = self.to_box(w)


def ucp_contraction_check(
    grid: Grid, M: np.ndarray, zeta, trials: int = 4, seed: int = 0
) -> UcpReport:
    """Estimate the weighted operator norm of resolvent o multiplication
    and certify the contraction; M is the multiplier of ucp_coefficients.

    The norm of T on its states, the two square-root contrasts on the
    support box of M, is estimated by power iteration on the adjoint
    composition T*T (the adjoint taken in the +1/2-weighted inner
    product), maximized over seeded random starts.  The fixed-point side
    then iterates w <- -T w from random starts and reports whether every
    start decays below the tolerance.  Estimates inside [0.9, 1.1] are
    reported as inconclusive.  Each phase draws its starts here, in order, normalizes each in place
    and cuts it to the support box at once (a state that owns its data), runs them on min(starts, usable
    CPUs) threads and reduces them with max and all: the report's bits do not depend on the thread
    count.  No command calls the certificate.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    assert_admissible(zeta, 0.0)  # <zeta, zeta> = 0
    shape = (2, 2) + (grid.n,) * 3
    if M.shape != shape:
        raise ValueError(f"M has shape {M.shape}, but the grid needs {shape}")
    for i, j in np.ndindex(2, 2):
        f = M[i, j]
        if not np.all(np.isfinite(f)):
            raise ValueError(f"coefficient M[{i}, {j}] is not finite")
        scale = max(float(np.max(np.abs(f))), 1e-300)
        if float(np.max(np.abs(f[grid.outside_subbox]))) > SUPPORT_TOL * scale:
            raise ValueError(f"coefficient M[{i}, {j}] is not supported in the sub-box")

    op = _UcpOperator(grid, M, zeta)
    rng = seeded_rng(seed)

    def run_starts(run, count):
        starts = []
        for _ in range(count):  # Gaussian, off the clamped modes, of unit weighted norm
            u = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
            u[:, op.sym.mask] = 0.0
            u /= op.sym.norm(u, 0.5)
            starts.append(op.to_box(u))
        return _parallel_map(run, starts, min(count, _usable_cpus()))

    best = max(run_starts(op.power_start, trials))
    ends = run_starts(op.fixed_point_start, FIXED_POINT_STARTS) if best < 1.0 else []
    return UcpReport(
        norm_estimate=best,
        conclusive=not (0.9 <= best <= 1.1),
        contraction_certified=best < 1.0,
        fixed_point_converged=bool(ends) and all(norm <= FIXED_POINT_TOL for _, norm in ends),
        fixed_point_iterations=max((it for it, _ in ends), default=0),
        clamped_modes=op.sym.report().clamped,
    )
