"""Complex geometrical optics machinery: conjugation geometry, constant
amplitudes, the Neumann remainder solver, and the decay experiments.

All solver algebra happens in conjugated periodic variables, where the
exponential factors of the two-sided constructions cancel into lattice
plane waves.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import GradedForm
from .errors import CgolabError, DivergenceError, ResonantGridError, StudyError
from .fields import (
    ClampReport,
    FormField,
    SpectralField,
    _clamped_abs_symbol,
    _symbol_weight,
    _weighted_sq_sum,
    assert_admissible,
    bourgain_norm,
    coderiv,
    default_floor,
    fft_forward,
    fft_inverse,
    l2_norm,
    mollify,
    random_band_limited,
    seeded_rng,
)
from .media import DerivedMedium, first_order_t, potential

GOLDEN_ANGLE = 2.0 * np.pi * (1.0 - 1.0 / ((1.0 + np.sqrt(5.0)) / 2.0))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgoGeometry:
    """Conjugation covectors for the paired constructions.

    zeta1 = -sqrt(s^2 + |rho|^2/4) eta1 + i (rho/2 - sqrt(s^2 + k^2) eta2)
    zeta2 = +sqrt(s^2 + |rho|^2/4) eta1 + i (rho/2 + sqrt(s^2 + k^2) eta2)

    so that <zeta_j, zeta_j> = -k^2 and zeta1 + zeta2 = i rho.
    """

    rho: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    s: float
    k: float
    zeta1: np.ndarray = field(init=False)
    zeta2: np.ndarray = field(init=False)

    def __post_init__(self):
        re = np.sqrt(self.s**2 + np.dot(self.rho, self.rho) / 4.0)
        im = np.sqrt(self.s**2 + self.k**2)
        z1 = -re * self.eta1 + 1j * (self.rho / 2.0 - im * self.eta2)
        z2 = re * self.eta1 + 1j * (self.rho / 2.0 + im * self.eta2)
        object.__setattr__(self, "zeta1", z1)
        object.__setattr__(self, "zeta2", z2)

    @property
    def zeta1_mag(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.zeta1) ** 2)))

    @property
    def zeta2_mag(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.zeta2) ** 2)))


def make_geometry(rho, eta1, eta2, s, k, grid=None, tol=1e-12) -> CgoGeometry:
    """Validated geometry; rejects non-orthonormal frames and, when a grid
    is supplied, rho off the frequency lattice."""
    rho = np.asarray(rho, dtype=float)
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if abs(np.dot(eta, eta) - 1.0) > tol:
            raise ValueError(f"{name} must be a unit covector")
        if abs(np.dot(eta, rho)) > tol * max(1.0, np.linalg.norm(rho)):
            raise ValueError(f"{name} must be orthogonal to rho")
    if abs(np.dot(eta1, eta2)) > tol:
        raise ValueError("eta1 and eta2 must be orthogonal")
    if grid is not None and not grid.on_lattice(rho):
        raise ValueError("rho must lie on the grid frequency lattice")
    return CgoGeometry(rho=rho, eta1=eta1, eta2=eta2, s=float(s), k=float(k))


def orthonormal_frame(rho, angle: float):
    """Orthonormal pair (eta1, eta2) in the plane orthogonal to rho.

    The angle rotates the pair inside that plane; for rho = 0 the plane
    defaults to the xy-plane.
    """
    rho = np.asarray(rho, dtype=float)
    norm = np.linalg.norm(rho)
    if norm == 0:
        e = np.array([1.0, 0.0, 0.0])
        f = np.array([0.0, 1.0, 0.0])
    else:
        unit = rho / norm
        seed = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(seed, unit)) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        e = seed - np.dot(seed, unit) * unit
        e /= np.linalg.norm(e)
        f = np.cross(unit, e)
    eta1 = np.cos(angle) * e + np.sin(angle) * f
    eta2 = -np.sin(angle) * e + np.cos(angle) * f
    return eta1, eta2


class Polarization(enum.Enum):
    """Which constant covector pair drives the amplitudes."""

    E = "E"
    H = "H"


def polarization_forms(pol: Polarization, geom: CgoGeometry):
    """(alpha, beta): grade-1 alpha = eta1 for E, grade-2 beta built from
    eta2 and rho for H (H requires rho != 0)."""
    if pol == Polarization.E:
        return GradedForm.covector(geom.eta1), GradedForm.zero()
    norm = np.linalg.norm(geom.rho)
    if norm == 0:
        raise ValueError("H polarization needs a nonzero rho")
    eta2 = GradedForm.covector(geom.eta2)
    rho_form = GradedForm.covector(geom.rho / norm)
    return GradedForm.zero(), eta2.wedge(rho_form)


def amplitude_a(geom: CgoGeometry, pol: Polarization) -> GradedForm:
    """Constant amplitude of the first construction; satisfies the
    incidence condition by design."""
    alpha, beta = polarization_forms(pol, geom)
    ik = 1j * geom.k
    z1 = GradedForm.covector(geom.zeta1)
    out = z1.vee(alpha) + ik * alpha + ik * beta + z1.wedge(beta)
    return (np.sqrt(2.0) / geom.zeta1_mag) * out


def amplitude_b(geom: CgoGeometry, pol: Polarization) -> GradedForm:
    """Constant amplitude of the paired construction."""
    alpha, beta = polarization_forms(pol, geom)
    ik = 1j * geom.k
    z2 = GradedForm.covector(geom.zeta2)
    out = z2.vee(alpha + beta) + z2.wedge(-1.0 * alpha + beta) + ik * (alpha + beta)
    return (-np.sqrt(2.0) / geom.zeta2_mag) * out


def limit_amplitude_a(geom: CgoGeometry, pol: Polarization) -> GradedForm:
    """Large-s limit of the first amplitude."""
    alpha, beta = polarization_forms(pol, geom)
    m = GradedForm.covector(geom.eta1 + 1j * geom.eta2)
    return -1.0 * (m.vee(alpha) + m.wedge(beta))


def limit_amplitude_b(geom: CgoGeometry, pol: Polarization) -> GradedForm:
    """Large-s limit of the paired amplitude."""
    alpha, beta = polarization_forms(pol, geom)
    m = GradedForm.covector(geom.eta1 + 1j * geom.eta2)
    return -1.0 * (m.vee(alpha + beta) + m.wedge(-1.0 * alpha + beta))


def incidence_residual(zeta, k: float, amp: GradedForm) -> float:
    """Magnitude of -zeta v A^1 + ik A^0 - zeta ^ A^2 + ik A^3."""
    z = GradedForm.covector(np.asarray(zeta, dtype=complex))
    ik = 1j * k
    combo = (
        -1.0 * z.vee(amp.grade(1))
        + ik * amp.grade(0)
        - 1.0 * z.wedge(amp.grade(2))
        + ik * amp.grade(3)
    )
    return combo.norm()


# ---------------------------------------------------------------------------
# Neumann remainder solver
# ---------------------------------------------------------------------------

@dataclass
class CgoSolution:
    """Converged remainder plus solver diagnostics."""

    amplitude: GradedForm
    remainder: FormField
    zeta: np.ndarray
    iterations: int
    residual: float
    remainder_norm: float
    forcing_norm: float
    contraction: float
    clamp: ClampReport
    clamped_defect: float
    converged: bool


def default_clamp_threshold(grid) -> float:
    """Acceptable clamp fraction: the structural kernel of the symbol
    (origin, paired-construction zero, Nyquist-row combinations) stays
    O(10) modes, so the default scales with the lattice size."""
    return max(1e-3, 32.0 / grid.n**3)


def solve_cgo(
    dm: DerivedMedium,
    zeta,
    amplitude: GradedForm,
    tol: float = 1e-9,
    max_iter: int = 60,
    floor: float | None = None,
    clamp_threshold: float | None = None,
    divergence_limit: float = 0.95,
    divergence_patience: int = 3,
) -> CgoSolution:
    """Solve the remainder equation by fixed-point iteration.

    Iterates R <- -(shifted laplacian)^(-1) [Q (A + R)] in conjugated
    periodic variables.  The reported residual is the -1/2-weighted norm
    of the equation applied to the converged remainder, measured over
    the unclamped frequencies and normalized by (||Q A|| + 1).
    """
    grid = dm.grid
    zeta = np.asarray(zeta, dtype=complex)
    assert_admissible(zeta, dm.k)
    if floor is None:
        floor = default_floor(grid)
    if clamp_threshold is None:
        clamp_threshold = default_clamp_threshold(grid)

    p, absp, mask = _clamped_abs_symbol(grid, zeta, floor)
    clamp = ClampReport(
        total=grid.n**3, clamped=int(np.sum(mask)), floor=floor, threshold=clamp_threshold
    )
    if clamp.exceeded:
        raise ResonantGridError(
            f"{clamp.clamped} of {clamp.total} lattice frequencies are inside the "
            f"clamp floor; jitter s or refine the grid",
            clamp_report=clamp,
        )
    divisor = np.where(mask, 1.0, p)
    wm = _symbol_weight(absp, mask, -0.5)
    wp = _symbol_weight(absp, mask, 0.5)
    vol = grid.volume

    def norm_minus(coeffs):
        return float(np.sqrt(vol * _weighted_sq_sum(wm, coeffs)))

    def norm_plus(coeffs):
        return float(np.sqrt(vol * _weighted_sq_sum(wp, coeffs)))

    amp_field = FormField.constant(grid, amplitude)
    remainder = FormField.zero(grid)
    f = potential(amp_field, dm)
    fhat = fft_forward(f).coeffs
    forcing_norm = norm_minus(fhat)

    rhat = np.zeros_like(fhat)
    residual = norm_minus(fhat)  # residual of R = 0
    contraction = 0.0
    deltas: list[float] = []
    ratios: list[float] = []
    iterations = 0
    converged = residual < tol * (forcing_norm + 1.0)

    while not converged and iterations < max_iter:
        iterations += 1
        rhat_new = -fhat / divisor
        rhat_new[:, mask] = 0.0
        delta = norm_plus(rhat_new - rhat)
        deltas.append(delta)
        if len(deltas) >= 2 and deltas[-2] > 0:
            ratios.append(deltas[-1] / deltas[-2])
            contraction = max(ratios[-min(3, len(ratios)):])
            if len(ratios) >= divergence_patience and all(
                r >= divergence_limit for r in ratios[-divergence_patience:]
            ):
                raise DivergenceError(
                    f"Neumann iteration is not contracting (ratio {contraction:.3f} "
                    f"over the last {divergence_patience} iterations); "
                    "the conjugation parameter is too small for this medium",
                    diagnostics={"contraction": contraction, "iterations": iterations},
                )
        rhat = rhat_new
        remainder = fft_inverse(SpectralField(grid, rhat, check=False))
        f = potential(amp_field + remainder, dm)
        fhat_new = fft_forward(f).coeffs
        residual = norm_minus(fhat_new - fhat)
        fhat = fhat_new
        converged = residual < tol * (forcing_norm + 1.0)

    if not converged:
        raise DivergenceError(
            f"no convergence within {max_iter} iterations "
            f"(residual {residual:.3e}, contraction {contraction:.3f})",
            diagnostics={"contraction": contraction, "iterations": iterations},
        )
    zero_mode = float(np.sqrt(vol * np.sum(np.abs(fhat[:, mask]) ** 2)))
    return CgoSolution(
        amplitude=amplitude,
        remainder=remainder,
        zeta=zeta,
        iterations=iterations,
        residual=residual,
        remainder_norm=norm_plus(rhat),
        forcing_norm=forcing_norm,
        contraction=contraction,
        clamp=clamp,
        clamped_defect=zero_mode,
        converged=True,
    )


# ---------------------------------------------------------------------------
# grade-{0,3} annihilation check
# ---------------------------------------------------------------------------

def grade03_ratio(dm: DerivedMedium, geom: CgoGeometry, sol: CgoSolution) -> float:
    """Relative size of the grade-{0,3} part of the derived first-order
    image, computed in conjugated variables."""
    total = FormField.constant(dm.grid, sol.amplitude) + sol.remainder
    v = first_order_t(total, dm, zeta=sol.zeta)
    part = l2_norm(v.select((0, 3)))
    whole = l2_norm(v)
    return part / whole


# ---------------------------------------------------------------------------
# averaged decay study
# ---------------------------------------------------------------------------

@dataclass
class DecaySample:
    lam: float
    s: float
    angle: float
    iterations: int
    residual: float
    remainder_norm: float
    forcing_norm: float
    clamp_fraction: float
    error: str = ""


@dataclass
class DecaySummary:
    lam: float
    n_samples: int
    mean_remainder_sq: float
    stderr_remainder_sq: float
    mean_forcing_sq: float


@dataclass
class DecayStudy:
    samples: list[DecaySample]
    summaries: list[DecaySummary]

    @property
    def remainder_decreasing(self) -> bool:
        vals = [s.mean_remainder_sq for s in self.summaries]
        return all(b < a for a, b in zip(vals, vals[1:]))


def sample_plan(rho, lambdas, n_samples: int, seed: int):
    """Deterministic (lambda, s, angle) plan: stratified s in [lam, 2 lam],
    golden-angle sequence with a seeded offset for the frame angle."""
    jobs = []
    for li, lam in enumerate(lambdas):
        rng = seeded_rng(seed, li)
        offset = rng.uniform(0.0, 2.0 * np.pi)
        strata = rng.uniform(0.0, 1.0, size=n_samples)
        for i in range(n_samples):
            s = lam * (1.0 + (i + strata[i]) / n_samples)
            angle = (offset + i * GOLDEN_ANGLE) % (2.0 * np.pi)
            jobs.append((lam, s, angle))
    return jobs


def decay_study(
    dm: DerivedMedium,
    rho,
    pol: Polarization,
    lambdas,
    n_samples: int,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 80,
    floor: float | None = None,
    workers: int = 1,
    max_failure_fraction: float = 0.2,
) -> DecayStudy:
    """Quasi-Monte-Carlo average of the squared remainder norm over
    (s, eta1) in [lam, 2 lam] x S^1, one row per sample."""
    if n_samples < 8:
        raise ValueError("need at least 8 samples per lambda")
    lambdas = list(lambdas)
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda values must be increasing")
    if lambdas[0] < 1.0:
        raise ValueError("lambda values must be >= 1, since s ranges over [lam, 2 lam]")
    rho = np.asarray(rho, dtype=float)
    jobs = sample_plan(rho, lambdas, n_samples, seed)

    def run(job):
        lam, s, angle = job
        eta1, eta2 = orthonormal_frame(rho, angle)
        geom = make_geometry(rho, eta1, eta2, s, dm.k, grid=dm.grid)
        amp = amplitude_a(geom, pol)
        sol = solve_cgo(dm, geom.zeta1, amp, tol=tol, max_iter=max_iter, floor=floor)
        return DecaySample(
            lam=lam,
            s=s,
            angle=angle,
            iterations=sol.iterations,
            residual=sol.residual,
            remainder_norm=sol.remainder_norm,
            forcing_norm=sol.forcing_norm,
            clamp_fraction=sol.clamp.fraction,
        )

    samples: list[DecaySample] = []
    failures = 0
    outcomes = _parallel_map(_guarded(run), jobs, workers)
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, CgolabError):
            failures += 1
            samples.append(
                DecaySample(
                    lam=job[0], s=job[1], angle=job[2], iterations=0, residual=np.nan,
                    remainder_norm=np.nan, forcing_norm=np.nan, clamp_fraction=np.nan,
                    error=type(outcome).__name__,
                )
            )
        else:
            samples.append(outcome)
    if failures > max_failure_fraction * len(jobs):
        raise StudyError(
            f"{failures} of {len(jobs)} samples failed; study aborted"
        )

    summaries = []
    for lam in lambdas:
        vals = np.array(
            [s.remainder_norm**2 for s in samples if s.lam == lam and not s.error]
        )
        forcing = np.array(
            [s.forcing_norm**2 for s in samples if s.lam == lam and not s.error]
        )
        summaries.append(
            DecaySummary(
                lam=lam,
                n_samples=len(vals),
                mean_remainder_sq=float(np.mean(vals)),
                stderr_remainder_sq=float(np.std(vals, ddof=1) / np.sqrt(len(vals))),
                mean_forcing_sq=float(np.mean(forcing)),
            )
        )
    return DecayStudy(samples=samples, summaries=summaries)


def _parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a pool of ``workers`` threads when
    there is more than one; results keep the order of ``items``."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _guarded(fn):
    def wrapped(job):
        try:
            return fn(job)
        except CgolabError as exc:  # the toolkit's own failures are data; bugs propagate
            return exc

    return wrapped


# ---------------------------------------------------------------------------
# potential operator norm estimate
# ---------------------------------------------------------------------------

@dataclass
class QNormEstimate:
    """Randomized lower bound for the potential's weighted operator norm,
    with the two terms of the smoothing split evaluated at h = |zeta|^(-1/2)."""

    estimate: float
    h: float
    smooth_term: float
    rough_term: float


def q_norm_estimate(
    dm: DerivedMedium,
    zeta,
    trials: int = 16,
    seed: int = 0,
    floor: float | None = None,
) -> QNormEstimate:
    """Max of ||Q u||_(-1/2) over seeded random unit-(+1/2)-norm fields."""
    if trials < 16:
        raise ValueError("need at least 16 trials")
    zeta = np.asarray(zeta, dtype=complex)
    grid = dm.grid
    rng = seeded_rng(seed)
    best = 0.0
    for _ in range(trials):
        u = random_band_limited(grid, rng, band=grid.n // 2 - 1, zero_mean=True)
        denom = bourgain_norm(u, zeta, 0.5, floor)
        qu = potential(u, dm)
        best = max(best, bourgain_norm(qu, zeta, -0.5, floor) / denom)

    mag = float(np.sqrt(np.sum(np.abs(zeta) ** 2)))
    h = mag ** (-0.5) if mag > 0 else 1.0
    smooth = 0.0
    rough = 0.0
    for grad in (dm.da, dm.db):
        mol = mollify(grad, h)
        smooth += coderiv(mol).max_abs()
        rough += (grad - mol).max_abs()
    return QNormEstimate(
        estimate=best, h=h, smooth_term=smooth / max(mag, 1.0), rough_term=rough
    )


def strictly_decreasing(values) -> bool:
    vals = list(values)
    return all(b < a for a, b in zip(vals, vals[1:]))
