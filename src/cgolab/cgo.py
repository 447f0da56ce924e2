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

from .algebra import form_abs, grade_select, one_form, vee, wedge
from .errors import CgolabError, DivergenceError, StudyError
from .fields import (
    ClampedSymbol,
    ClampReport,
    FormField,
    Grid,
    _forward,
    _inverse,
    _parallel_map,
    _split,
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


def make_geometry(rho, eta1, eta2, s, k, grid) -> CgoGeometry:
    """Validated geometry; rejects non-orthonormal frames and rho off the frequency lattice of ``grid``."""
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
    if not grid.on_lattice(rho):
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
        return one_form(geom.eta1), np.zeros(8, dtype=complex)
    norm = np.linalg.norm(geom.rho)
    if norm == 0:
        raise ValueError("H polarization needs a nonzero rho")
    return np.zeros(8, dtype=complex), wedge(one_form(geom.eta2), one_form(geom.rho / norm))


# A scalar product keeps the form on the left (form * c), and a sign flip is
# form * -1.0: numpy's c * form and -form can differ from these in the last
# bit or in the sign of a zero, and the reference outputs hold these bits.

def amplitude_a(geom: CgoGeometry, pol: Polarization) -> np.ndarray:
    """Constant amplitude (8,) of the first construction; satisfies the
    incidence condition by design."""
    alpha, beta = polarization_forms(pol, geom)
    ik = 1j * geom.k
    z1 = one_form(geom.zeta1)
    out = vee(z1, alpha) + alpha * ik + beta * ik + wedge(z1, beta)
    return out * (np.sqrt(2.0) / geom.zeta1_mag)


def amplitude_b(geom: CgoGeometry, pol: Polarization) -> np.ndarray:
    """Constant amplitude (8,) of the paired construction."""
    alpha, beta = polarization_forms(pol, geom)
    ik = 1j * geom.k
    z2 = one_form(geom.zeta2)
    out = vee(z2, alpha + beta) + wedge(z2, alpha * -1.0 + beta) + (alpha + beta) * ik
    return out * (-np.sqrt(2.0) / geom.zeta2_mag)


def limit_amplitude_a(geom: CgoGeometry, pol: Polarization) -> np.ndarray:
    """Large-s limit of the first amplitude."""
    alpha, beta = polarization_forms(pol, geom)
    m = one_form(geom.eta1 + 1j * geom.eta2)
    return (vee(m, alpha) + wedge(m, beta)) * -1.0


def limit_amplitude_b(geom: CgoGeometry, pol: Polarization) -> np.ndarray:
    """Large-s limit of the paired amplitude."""
    alpha, beta = polarization_forms(pol, geom)
    m = one_form(geom.eta1 + 1j * geom.eta2)
    return (vee(m, alpha + beta) + wedge(m, alpha * -1.0 + beta)) * -1.0


def incidence_residual(zeta, k: float, amp: np.ndarray) -> float:
    """Magnitude of -zeta v A^1 + ik A^0 - zeta ^ A^2 + ik A^3."""
    z = one_form(zeta)
    ik = 1j * k
    combo = (
        vee(z, grade_select(amp, 1)) * -1.0
        + grade_select(amp, 0) * ik
        - wedge(z, grade_select(amp, 2))
        + grade_select(amp, 3) * ik
    )
    return float(form_abs(combo))


# ---------------------------------------------------------------------------
# Neumann remainder solver
# ---------------------------------------------------------------------------

@dataclass
class CgoSolution:
    """Converged A + R, the periodic factor of the CGO field, plus solver diagnostics."""

    grid: Grid
    grades: tuple[int, ...]  # the solved block: (0, 1), (2, 3) or both
    values: np.ndarray  # A + R on the blades of grade_block(grades) alone
    zeta: np.ndarray
    iterations: int
    residual: float
    remainder_norm: float
    forcing_norm: float
    contraction: float | None  # max of the last 3 step ratios; None if none was measured
    clamp: ClampReport
    clamped_defect: float
    residuals: list[float]  # per iteration: -1/2-norm of the forcing update; step k's +1/2-norm is the one before it

    @property
    def total(self) -> FormField:
        """A + R on 8 blades, a new array on each read: +0.0 on the blades of a block not solved."""
        values = np.zeros((8,) + self.values.shape[1:], dtype=complex)
        values[grade_block(self.grades)] = self.values
        return FormField(self.grid, values)

    @property
    def defect_ratio(self) -> float:
        """clamped_defect / forcing_norm: the dropped equations against the forcing; 0.0 for no forcing."""
        return self.clamped_defect / self.forcing_norm if self.forcing_norm else 0.0


def amplitude_grades(amplitude: np.ndarray) -> tuple[int, ...]:
    """The grades a solve of ``amplitude`` runs on: the block that holds it, (0, 1) or (2, 3), or both."""
    low, high = np.any(amplitude[:4] != 0), np.any(amplitude[4:] != 0)
    return (0, 1, 2, 3) if low and high else (2, 3) if high else (0, 1)


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches a norm, checked below
def solve_cgo(
    dm: DerivedMedium,
    zeta,
    amplitude: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 80,
) -> CgoSolution:
    """Solve the remainder equation by fixed-point iteration.

    Iterates R <- -(shifted laplacian)^(-1) [Q (A + R)] in conjugated
    periodic variables.  The reported residual is the absolute
    -1/2-weighted norm of the equation applied to the converged remainder,
    over the unclamped frequencies; only the stopping test, residual <
    tol (||Q A||_{-1/2} + 1), is relative.

    Q maps the grade blocks (0, 1) and (2, 3) each into themselves and the
    resolvent acts blade by blade, so the iteration runs on the blades of
    :func:`amplitude_grades`.  It allocates three arrays of the block's blades before the
    first iteration: the newest forcing, the one before it, and A + R, into
    which each step's R is transformed and which the solution holds (``total``
    forms 8 blades where read).  A remainder is the forcing before it over -p,
    formed over that forcing blade by blade where it is read.  The loop keeps one
    list of norms, the forcing norm and each step's residual: p^-1 is an isometry
    from the -1/2 to the +1/2 norm and R_k - R_{k-1} = -p^-1 (F_{k-1} - F_{k-2}),
    so step k's norm, read for the step ratios, is the residual before it.  A forcing
    norm or residual that is not finite raises DivergenceError at once.  On grids that
    ``fields._split`` splits, every stage runs on the usable CPUs.
    """
    grid = dm.grid
    zeta = np.asarray(zeta, dtype=complex)
    assert_admissible(zeta, dm.k)
    sym = ClampedSymbol(grid, zeta)
    clamp = sym.report().raise_if_exceeded()
    blk = grade_block(grades := amplitude_grades(amplitude))
    blades, shape = range(blk.stop - blk.start), (grid.n,) * 3  # the indices of the block's blades
    # the newest forcing, the one before it (R = 0 is -older / p) and A + R, on the block
    fhat, older, values = (np.zeros((len(blades),) + shape, complex) for _ in range(3))
    amp_blk = amplitude[blk].reshape(-1, 1, 1, 1)
    values += amp_blk  # the A + R of R = 0: +0.0 where A holds -0.0, as 0 + A has it
    workers, slabs = _split(grid.n)  # split: pointwise stages on slabs, transforms on blades
    # a split solve forms its Hessian here, before its tasks: formed in one, 64^3 peak memory rose ~5% (ROADMAP item 9)
    [getattr(dm, h) for l, h in ((1, "hess_b"), (2, "hess_a")) if l in grades and workers > 1]

    def forward_potential(out):  # the transform of Q (A + R) on the block, into out
        _parallel_map(lambda rows: potential(values, dm, grades, out[:, rows], rows), slabs, workers)
        _parallel_map(lambda b: _forward(out[b], out[b]), blades, workers)
        return out

    contraction, iterations = None, 0  # fewer than two steps have no step ratio

    def diverged(message):  # a DivergenceError with the contraction and iteration count so far
        return DivergenceError(message, diagnostics={"contraction": contraction, "iterations": iterations})

    def norm(coeffs, b, name):  # sym.norm, which must be finite
        if not np.isfinite(value := sym.norm(coeffs, b)):
            raise diverged(f"the {name} is not finite after {iterations} iterations")
        return value

    def update(rows):  # per blade: F_k - F_{k-1}, into one blade of the slab (np.subtract's third argument is out)
        return map(np.subtract, fhat[:, rows], older[:, rows], [np.empty_like(fhat[0, rows])] * len(fhat))

    fhat = forward_potential(fhat)
    norms = [norm(fhat, -0.5, "forcing norm")]  # the forcing norm, then the residual after each step

    while not (converged := norms[-1] < tol * (norms[0] + 1.0)) and iterations < max_iter:
        iterations += 1
        # step k's norm ||R_k - R_{k-1}||_{+1/2} = ||p^-1 (F_{k-1} - F_{k-2})||_{+1/2} is norms[k - 1], p^-1 an isometry
        if ratios := [b / a for a, b in zip(norms, norms[1:]) if a > 0]:
            contraction = max(ratios[-3:])
            if len(ratios) >= DIVERGENCE_PATIENCE and min(ratios[-DIVERGENCE_PATIENCE:]) >= DIVERGENCE_LIMIT:
                raise diverged(f"Neumann iteration is not contracting (ratio {contraction:.3f} over the last "
                               f"{DIVERGENCE_PATIENCE} iterations); the conjugation parameter is too small "
                               "for this medium")
        # R_k = -fhat / p over older, then straight into A + R; R + A has the bits of A + R
        _parallel_map(lambda b: np.add(_inverse(sym.inverse(np.negative(fhat[b], out=older[b]), out=older[b]),
                                                values[b]), amp_blk[b], out=values[b]), blades, workers)
        fhat, older = forward_potential(older), fhat
        norms.append(norm(update, -0.5, "residual"))

    if not converged:
        ratio = "not measured" if contraction is None else f"{contraction:.3f}"
        raise diverged(f"no convergence within {max_iter} iterations (residual {norms[-1]:.3e}, contraction {ratio})")
    # the clamped modes of all 8 blades, laid out as fhat[:, mask] of a full
    # 8-blade fhat is (blade axis fastest), so the sum adds in the same order
    clamped = np.zeros((int(np.sum(sym.mask)), 8), dtype=complex).T
    clamped[blk] = fhat[:, sym.mask]
    zero_mode = float(np.sqrt(grid.volume * np.sum(np.abs(clamped) ** 2)))
    return CgoSolution(
        grid=grid, grades=grades, values=values, zeta=zeta, iterations=iterations, residual=norms[-1],
        remainder_norm=sym.norm(sym.inverse(np.negative(older, out=older), out=older), 0.5),
        forcing_norm=norms[0], contraction=contraction, clamp=clamp, clamped_defect=zero_mode, residuals=norms[1:],
    )


# ---------------------------------------------------------------------------
# grade-{0,3} annihilation check
# ---------------------------------------------------------------------------

def grade03_ratio(dm: DerivedMedium, sol: CgoSolution) -> float:
    """Relative size of the grade-{0,3} part of the derived first-order
    image, computed in conjugated variables."""
    v = first_order_t(sol.total, dm, zeta=sol.zeta)
    part = l2_norm(FormField(v.grid, grade_select(v.values, (0, 3))))
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
    defect_ratio: float | None = None  # CgoSolution.defect_ratio; None for a failed sample
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
    if not lambdas or not strictly_decreasing(reversed(lambdas)):
        raise ValueError("lambda values must be a nonempty increasing list")
    if lambdas[0] < 1.0:
        raise ValueError("lambda values must be >= 1, since s ranges over [lam, 2 lam]")
    jobs = sample_plan(lambdas, n_samples, seed)
    getattr(dm, "hess_b" if pol == Polarization.E else "hess_a")  # its solves' Hessian, formed before the pool (README)

    def run(job):
        lam, s, angle = job
        try:
            geom = make_geometry(rho, *orthonormal_frame(rho, angle), s, dm.k, grid=dm.grid)
            sol = solve_cgo(dm, geom.zeta1, amplitude_a(geom, pol), **solver)
        except CgolabError as exc:  # the toolkit's own failures are data; bugs propagate
            return DecaySample(lam, s, angle, 0, np.nan, np.nan, np.nan, np.nan,
                               error=type(exc).__name__, message=str(exc))
        return DecaySample(lam, s, angle, sol.iterations, sol.residual, sol.remainder_norm,
                           sol.forcing_norm, sol.clamp.fraction, sol.defect_ratio)

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
        denom = finite(sym.norm(fft_forward(u).values, 0.5), "+1/2 norm of u")
        qu = potential(u, dm)
        best = max(best, finite(sym.norm(fft_forward(qu).values, -0.5), "-1/2 norm of Q u") / denom)

    mag = float(np.sqrt(np.sum(np.abs(zeta) ** 2)))
    h = mag ** (-0.5) if mag > 0 else 1.0
    smooth = 0.0
    rough = 0.0
    for grad3 in (dm.da3, dm.db3):
        grad = FormField.zero(grid)
        grad.values[1:4] = grad3
        mol = mollify(grad, h)
        smooth += float(np.max(form_abs(coderiv(mol).values)))
        rough += float(np.max(form_abs(grad.values - mol.values)))
    return QNormEstimate(
        estimate=best, h=h, smooth_term=smooth / max(mag, 1.0), rough_term=rough
    )


def strictly_decreasing(values) -> bool:
    vals = list(values)
    return all(b < a for a, b in zip(vals, vals[1:]))
