"""Complex geometrical optics machinery: conjugation geometry, constant
amplitudes, the Neumann remainder solver, and the decay experiments.

All solver algebra happens in conjugated periodic variables, where the
exponential factors of the two-sided constructions cancel into lattice
plane waves.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algebra import GradedForm
from .errors import CgolabError, DivergenceError, StudyError
from .fields import (
    ClampedSymbol,
    ClampReport,
    FormField,
    _forward,
    _inverse,
    _parallel_map,
    assert_admissible,
    coderiv,
    fft_forward,
    l2_norm,
    mollify,
    random_band_limited,
    seeded_rng,
)
from .media import DerivedMedium, first_order_t, grade_block, potential

GOLDEN_ANGLE = 2.0 * np.pi * (1.0 - 1.0 / ((1.0 + np.sqrt(5.0)) / 2.0))

# The Neumann iteration is declared divergent once this many successive
# step ratios reach the limit.
DIVERGENCE_LIMIT = 0.95
DIVERGENCE_PATIENCE = 3
MIN_SAMPLES = 8  # per lambda in a decay study
QNORM_TRIALS = 16  # random fields per q-norm estimate
MAX_FAILURE_FRACTION = 0.2  # of a decay study's samples before it aborts


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


def zeta_sq(s: float, k: float, rho) -> float:
    """2 s^2 + k^2 + |rho|^2/2, which is |zeta_j|^2, in Python floats (inf past their range)."""
    s, k = float(s), float(k)
    return 2.0 * s * s + k * k + sum(float(r) * float(r) for r in rho) / 2.0


def make_geometry(rho, eta1, eta2, s, k, grid=None) -> CgoGeometry:
    """Validated geometry; rejects non-orthonormal frames and, when a grid
    is supplied, rho off the frequency lattice."""
    rho = np.asarray(rho, dtype=float)
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not np.isfinite(zeta_sq(s, k, rho)):
        raise ValueError(f"s = {s} puts |zeta|^2 beyond the float range")
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if abs(np.dot(eta, eta) - 1.0) > 1e-12:
            raise ValueError(f"{name} must be a unit covector")
        if abs(np.dot(eta, rho)) > 1e-12 * max(1.0, np.linalg.norm(rho)):
            raise ValueError(f"{name} must be orthogonal to rho")
    if abs(np.dot(eta1, eta2)) > 1e-12:
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
    contraction: float | None  # max of the last 3 step ratios; None if none was measured
    clamp: ClampReport
    clamped_defect: float
    deltas: list[float]  # per iteration: +1/2-norm of the remainder update
    residuals: list[float]  # per iteration: -1/2-norm of the forcing update


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches a norm, checked below
def solve_cgo(
    dm: DerivedMedium,
    zeta,
    amplitude: GradedForm,
    tol: float = 1e-9,
    max_iter: int = 80,
) -> CgoSolution:
    """Solve the remainder equation by fixed-point iteration.

    Iterates R <- -(shifted laplacian)^(-1) [Q (A + R)] in conjugated
    periodic variables.  The reported residual is the -1/2-weighted norm
    of the equation applied to the converged remainder, measured over
    the unclamped frequencies and normalized by (||Q A|| + 1).

    Q maps the grade blocks (0, 1) and (2, 3) each into themselves and
    the resolvent acts blade by blade, so the iteration runs on the
    blades of the block that holds the amplitude (both blocks when the
    amplitude has parts in each).  Its buffers are allocated once, before
    the first iteration, which allocates no array of the grid's size; they
    are freed before the 8-blade remainder is allocated.  A forcing norm,
    step norm or residual that is not finite raises DivergenceError at once.
    """
    grid = dm.grid
    zeta = np.asarray(zeta, dtype=complex)
    assert_admissible(zeta, dm.k)
    sym = ClampedSymbol(grid, zeta)
    clamp = sym.report().raise_if_exceeded()
    low, high = np.any(amplitude.data[:4] != 0), np.any(amplitude.data[4:] != 0)
    grades = (0, 1, 2, 3) if low and high else (2, 3) if high else (0, 1)
    blk = grade_block(grades)
    shape = (grid.n,) * 3
    fhat, rhat, dead = (np.empty((blk.stop - blk.start,) + shape, complex) for _ in range(3))
    total = FormField(grid, np.empty((8,) + shape, complex))  # A + R, on the block
    norm_work = (np.empty(shape), np.empty(shape))  # a weighted norm's scratch
    scratch = np.empty((3,) + shape, complex)  # media.potential's scratch
    amp_blk = amplitude.data[blk].reshape(-1, 1, 1, 1)
    total.values[blk] = amp_blk

    def forward_potential(out):  # the transform of Q (A + R) on the block, into out
        return _forward(potential(total, dm, grades, out, scratch), out)

    contraction = None  # fewer than two steps have no step ratio
    iterations = 0

    def norm(coeffs, b, name):  # a weighted norm of coeffs, which must be finite
        value = sym.norm(coeffs, b, norm_work)
        if not np.isfinite(value):
            raise DivergenceError(f"the {name} is not finite after {iterations} iterations",
                                  diagnostics={"contraction": contraction, "iterations": iterations})
        return value

    fhat = forward_potential(fhat)
    forcing_norm = norm(fhat, -0.5, "forcing norm")

    rhat[...] = 0.0
    residual = forcing_norm  # residual of R = 0
    deltas: list[float] = []
    residuals: list[float] = []
    ratios: list[float] = []
    converged = residual < tol * (forcing_norm + 1.0)

    while not converged and iterations < max_iter:
        iterations += 1
        rhat, dead = sym.inverse(np.negative(fhat, out=dead), out=dead), rhat
        # each difference overwrites its older operand, which nothing reads after it
        delta = norm(np.subtract(rhat, dead, out=dead), 0.5, "step norm")
        deltas.append(delta)
        if len(deltas) >= 2 and deltas[-2] > 0:
            ratios.append(deltas[-1] / deltas[-2])
            contraction = max(ratios[-min(3, len(ratios)):])
            if len(ratios) >= DIVERGENCE_PATIENCE and all(
                r >= DIVERGENCE_LIMIT for r in ratios[-DIVERGENCE_PATIENCE:]
            ):
                raise DivergenceError(
                    f"Neumann iteration is not contracting (ratio {contraction:.3f} "
                    f"over the last {DIVERGENCE_PATIENCE} iterations); "
                    "the conjugation parameter is too small for this medium",
                    diagnostics={"contraction": contraction, "iterations": iterations},
                )
        # R goes straight into A + R; R + A has the bits of A + R
        np.add(_inverse(rhat, total.values[blk]), amp_blk, out=total.values[blk])
        fhat, dead = forward_potential(dead), fhat
        residual = norm(np.subtract(fhat, dead, out=dead), -0.5, "residual")
        residuals.append(residual)
        converged = residual < tol * (forcing_norm + 1.0)

    if not converged:
        ratio = "not measured" if contraction is None else f"{contraction:.3f}"
        raise DivergenceError(
            f"no convergence within {max_iter} iterations "
            f"(residual {residual:.3e}, contraction {ratio})",
            diagnostics={"contraction": contraction, "iterations": iterations},
        )
    # the clamped modes of all 8 blades, laid out as fhat[:, mask] of a full
    # 8-blade fhat is (blade axis fastest), so the sum adds in the same order
    clamped = np.zeros((int(np.sum(sym.mask)), 8), dtype=complex).T
    clamped[blk] = fhat[:, sym.mask]
    zero_mode = float(np.sqrt(grid.volume * np.sum(np.abs(clamped) ** 2)))
    remainder_norm = sym.norm(rhat, 0.5, norm_work)
    # only rhat is read from here on: the symbol and the other buffers are
    # freed before the remainder is allocated
    del fhat, dead, total, scratch, norm_work, sym
    remainder = FormField.zero(grid)
    _inverse(rhat, remainder.values[blk])  # the R of the last step, formed again
    return CgoSolution(
        amplitude=amplitude,
        remainder=remainder,
        zeta=zeta,
        iterations=iterations,
        residual=residual,
        remainder_norm=remainder_norm,
        forcing_norm=forcing_norm,
        contraction=contraction,
        clamp=clamp,
        clamped_defect=zero_mode,
        deltas=deltas,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# grade-{0,3} annihilation check
# ---------------------------------------------------------------------------

def grade03_ratio(dm: DerivedMedium, sol: CgoSolution) -> float:
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
    error: str = ""  # class name of the toolkit error that failed the sample
    message: str = ""  # and its message


def sample_failures(samples) -> list[dict]:
    """One JSON-ready entry per failed sample: where it was, and why."""
    return [
        {"lambda": s.lam, "s": s.s, "angle": s.angle, "error": s.error, "message": s.message}
        for s in samples
        if s.error
    ]


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
        return strictly_decreasing(s.mean_remainder_sq for s in self.summaries)


def sample_plan(lambdas, n_samples: int, seed: int):
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
    workers: int = 1,
    **solver,
) -> DecayStudy:
    """Quasi-Monte-Carlo average of the squared remainder norm over
    (s, eta1) in [lam, 2 lam] x S^1, one row per sample; ``solver`` holds
    the keyword arguments of every :func:`solve_cgo`.  A toolkit error
    (CgolabError) becomes its sample's row, with NaN norms, the error's
    class name and its message; any other error propagates."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per lambda")
    lambdas = list(lambdas)
    if not strictly_decreasing(reversed(lambdas)):
        raise ValueError("lambda values must be increasing")
    if lambdas[0] < 1.0:
        raise ValueError("lambda values must be >= 1, since s ranges over [lam, 2 lam]")
    rho = np.asarray(rho, dtype=float)
    jobs = sample_plan(lambdas, n_samples, seed)

    def run(job):
        lam, s, angle = job
        try:
            geom = make_geometry(rho, *orthonormal_frame(rho, angle), s, dm.k, grid=dm.grid)
            sol = solve_cgo(dm, geom.zeta1, amplitude_a(geom, pol), **solver)
        except CgolabError as exc:  # the toolkit's own failures are data; bugs propagate
            return DecaySample(lam, s, angle, 0, np.nan, np.nan, np.nan, np.nan,
                               error=type(exc).__name__, message=str(exc))
        return DecaySample(lam, s, angle, sol.iterations, sol.residual, sol.remainder_norm,
                           sol.forcing_norm, sol.clamp.fraction)

    samples = _parallel_map(run, jobs, workers)
    errors = Counter(s.error for s in samples if s.error)
    failures = sum(errors.values())
    diagnostics = {"failed": failures, "samples": len(jobs), "errors": dict(errors),
                   "failures": sample_failures(samples)}
    if failures > MAX_FAILURE_FRACTION * len(jobs):
        raise StudyError(f"{failures} of {len(jobs)} samples failed; study aborted", diagnostics)

    summaries = []
    for lam in lambdas:
        ok = [s for s in samples if s.lam == lam and not s.error]
        if len(ok) < 2:  # the standard error of a mean needs two samples
            raise StudyError(
                f"{len(ok)} of {n_samples} samples at lambda = {lam} succeeded, fewer than 2; "
                "study aborted", {**diagnostics, "lambda": lam},
            )
        vals = np.array([s.remainder_norm**2 for s in ok])
        forcing = np.array([s.forcing_norm**2 for s in ok])
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches a norm, checked below
def q_norm_estimate(dm: DerivedMedium, zeta, seed: int = 0) -> QNormEstimate:
    """Max of ||Q u||_(-1/2) over QNORM_TRIALS seeded random unit-(+1/2)-norm fields.

    Raises ResonantGridError, as :func:`solve_cgo` does, when the clamp
    fraction exceeds its threshold, and DivergenceError at the first
    norm that is not finite.
    """
    zeta = np.asarray(zeta, dtype=complex)
    grid = dm.grid
    sym = ClampedSymbol(grid, zeta)
    sym.report().raise_if_exceeded()
    rng = seeded_rng(seed)

    def finite(value, name):  # a norm, which must be finite
        if not np.isfinite(value):
            raise DivergenceError(f"the {name} is not finite in trial {trial + 1} of {QNORM_TRIALS}")
        return value

    best = 0.0
    for trial in range(QNORM_TRIALS):
        u = random_band_limited(grid, rng, band=grid.n // 2 - 1, zero_mean=True)
        denom = finite(sym.norm(fft_forward(u).coeffs, 0.5), "+1/2 norm of u")
        qu = potential(u, dm)
        best = max(best, finite(sym.norm(fft_forward(qu).coeffs, -0.5), "-1/2 norm of Q u") / denom)

    mag = float(np.sqrt(np.sum(np.abs(zeta) ** 2)))
    h = mag ** (-0.5) if mag > 0 else 1.0
    smooth = 0.0
    rough = 0.0
    for grad3 in (dm.da3, dm.db3):
        grad = FormField.zero(grid)
        grad.values[1:4] = grad3
        mol = mollify(grad, h)
        smooth += coderiv(mol).max_abs()
        rough += (grad - mol).max_abs()
    return QNormEstimate(
        estimate=best, h=h, smooth_term=smooth / max(mag, 1.0), rough_term=rough
    )


def strictly_decreasing(values) -> bool:
    vals = list(values)
    return all(b < a for a, b in zip(vals, vals[1:]))
