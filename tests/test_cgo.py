import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from cgolab import algebra, cgo, fields
from cgolab import media as md
from cgolab.algebra import GradedForm
from cgolab.errors import DivergenceError, ResonantGridError, StudyError
from cgolab.fields import (
    FormField,
    SpectralField,
    default_floor,
    fft_forward,
    fft_inverse,
    helmholtz_symbol,
    l2_norm,
)
from cgolab.media import derive_background
from conftest import form_lazy_fields


RHO = np.array([1.0, 0.0, 0.0])


def random_lattice_rho(rng, grid):
    idx = rng.integers(-3, 4, size=3)
    if not np.any(idx):
        idx[0] = 1
    return (2.0 * np.pi / grid.length) * idx.astype(float)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_geometry_invariants_random_frames(grid16):
    rng = np.random.default_rng(100)
    k = 1.0
    for _ in range(100):
        rho = random_lattice_rho(rng, grid16)
        eta1, eta2 = cgo.orthonormal_frame(rho, rng.uniform(0, 2 * np.pi))
        s = float(rng.uniform(1.0, 64.0))
        g = cgo.make_geometry(rho, eta1, eta2, s, k, grid=grid16)
        for z in (g.zeta1, g.zeta2):
            defect = abs(np.dot(z, z) + k**2)
            assert defect <= 1e-10 * max(k**2, np.sum(np.abs(z) ** 2))
        assert np.max(np.abs(g.zeta1 + g.zeta2 - 1j * rho)) <= 1e-12 * max(1.0, s)


def test_geometry_magnitude_plug_in():
    g = cgo.CgoGeometry(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 1.0, 1.0)
    assert g.zeta1_mag == pytest.approx(np.sqrt(3.0), rel=1e-14)


def test_geometry_rejections(grid16):
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        cgo.make_geometry(RHO, e1, e2, 8.0, 1.0, grid=grid16)  # eta1 not orthogonal to rho
    ok1, ok2 = cgo.orthonormal_frame(RHO, 0.3)
    with pytest.raises(ValueError):
        cgo.make_geometry(RHO, 1.1 * ok1, ok2, 8.0, 1.0)  # not unit
    with pytest.raises(ValueError):
        cgo.make_geometry(RHO, ok1, ok2, 0.5, 1.0)  # s below 1
    with pytest.raises(ValueError, match="float range"):
        cgo.make_geometry(RHO, ok1, ok2, 1e160, 1.0)  # |zeta|^2 beyond the float range
    assert np.isfinite(cgo.make_geometry(RHO, ok1, ok2, 6.7e153, 1.0).zeta1_mag)
    with pytest.raises(ValueError):
        cgo.make_geometry(np.array([0.5, 0.0, 0.0]), ok1, ok2, 8.0, 1.0, grid=grid16)


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def test_amplitude_grades_and_incidence(grid16):
    rng = np.random.default_rng(101)
    k = 1.0
    for _ in range(100):
        rho = random_lattice_rho(rng, grid16)
        eta1, eta2 = cgo.orthonormal_frame(rho, rng.uniform(0, 2 * np.pi))
        g = cgo.make_geometry(rho, eta1, eta2, float(rng.uniform(1, 50)), k)
        for pol in (cgo.Polarization.E, cgo.Polarization.H):
            amp = cgo.amplitude_a(g, pol)
            assert cgo.incidence_residual(g.zeta1, k, amp) <= 1e-12
    # E amplitude lives in grades {0, 1}
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.2), 4.0, k)
    amp = cgo.amplitude_a(g, cgo.Polarization.E)
    assert np.max(np.abs(algebra.grade_select(amp.data, (2, 3)))) < 1e-15


def test_incidence_fails_for_scalar_amplitude():
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.2), 8.0, 1.0)
    assert cgo.incidence_residual(g.zeta1, 1.0, GradedForm.scalar(1.0)) > 0.5


def test_amplitude_limits():
    eta1, eta2 = cgo.orthonormal_frame(RHO, 0.4)
    prev_gap = None
    for s in (1e2, 1e3, 1e4):
        g = cgo.make_geometry(RHO, eta1, eta2, s, 1.0)
        for pol in (cgo.Polarization.E, cgo.Polarization.H):
            amp = cgo.amplitude_a(g, pol)
            lim = cgo.limit_amplitude_a(g, pol)
            gap = np.max(np.abs(amp.data - lim.data))
            assert gap < 5.0 / s
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    # E mode: A tends to -1 (unit magnitude), B to -1 + i eta2^eta1
    g = cgo.make_geometry(RHO, eta1, eta2, 1e4, 1.0)
    lim_a = cgo.limit_amplitude_a(g, cgo.Polarization.E)
    assert lim_a.data[0] == pytest.approx(-1.0, abs=1e-12)
    assert lim_a.norm() == pytest.approx(1.0, abs=1e-12)
    lim_b = cgo.limit_amplitude_b(g, cgo.Polarization.E)
    expected = GradedForm.scalar(-1.0) + 1j * GradedForm.covector(eta2).wedge(
        GradedForm.covector(eta1)
    )
    assert np.max(np.abs(lim_b.data - expected.data)) < 1e-12


def test_h_mode_limit_grades():
    eta1, eta2 = cgo.orthonormal_frame(RHO, 1.1)
    g = cgo.make_geometry(RHO, eta1, eta2, 10.0, 1.0)
    lim_a = cgo.limit_amplitude_a(g, cgo.Polarization.H)
    # A limit for H is the volume-form combination -eta1 ^ eta2 ^ rho/|rho|
    expected = -1.0 * GradedForm.covector(eta1).wedge(
        GradedForm.covector(eta2).wedge(GradedForm.covector(RHO / np.linalg.norm(RHO)))
    )
    assert np.max(np.abs(lim_a.data - expected.data)) < 1e-12
    lim_b = cgo.limit_amplitude_b(g, cgo.Polarization.H)
    assert np.max(np.abs(algebra.grade_select(lim_b.data, (0, 2)))) < 1e-12


def test_h_mode_needs_nonzero_rho():
    g = cgo.CgoGeometry(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        cgo.polarization_forms(cgo.Polarization.H, g)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solve_background_is_trivial(grid16):
    dm0 = derive_background(grid16, omega=1.0)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, dm0.k, grid=grid16)
    sol = cgo.solve_cgo(dm0, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    assert sol.iterations == 0
    assert sol.remainder_norm == 0.0
    assert sol.residual == 0.0
    assert sol.contraction is None  # no step ratio was measured


def test_solve_reference_medium(grid16, dm16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    amp = cgo.amplitude_a(g, cgo.Polarization.E)
    tol = 1e-9
    sol = cgo.solve_cgo(dm16, g.zeta1, amp, tol=tol)  # raises unless it converges
    assert sol.contraction < 0.5
    assert sol.residual < tol * (sol.forcing_norm + 1.0)
    assert sol.remainder_norm <= sol.forcing_norm / (1.0 - max(sol.contraction, 0.1))
    assert len(sol.deltas) == len(sol.residuals) == sol.iterations
    assert sol.residuals[-1] == sol.residual
    # re-applying one iteration moves the converged remainder below tol
    from cgolab.fields import bourgain_norm, resolvent

    f = md.potential(FormField.constant(grid16, amp) + sol.remainder, dm16)
    new_r, _ = resolvent(f, g.zeta1, dm16.k)
    delta = FormField(grid16, -new_r.values - sol.remainder.values)
    assert bourgain_norm(delta, g.zeta1, 0.5) < 10 * tol * (sol.forcing_norm + 1.0)


def pre_change_solve(grid, dm, zeta, amp, tol):
    """The solver loop as it read before ClampedSymbol and before the solve
    on the amplitude's grade block: all 8 blades, without the divergence
    guard, which the contracting solves below never trip."""
    p = helmholtz_symbol(grid, zeta)
    absp = np.abs(p)
    mask = absp < default_floor(grid)
    absp = np.maximum(absp, default_floor(grid))
    divisor = np.where(mask, 1.0, p)
    wm, wp = absp**-1.0, absp**1.0
    wm[mask] = 0.0
    wp[mask] = 0.0

    def norm(w, c):
        return float(np.sqrt(grid.volume * np.sum(w * np.sum(np.abs(c) ** 2, axis=0))))

    amp_field = FormField.constant(grid, amp)
    fhat = fft_forward(md.potential(amp_field, dm)).coeffs
    forcing = norm(wm, fhat)
    rhat, residual, iterations = np.zeros_like(fhat), forcing, 0
    deltas, residuals = [], []
    while not residual < tol * (forcing + 1.0):
        iterations += 1
        rhat_new = -fhat / divisor
        rhat_new[:, mask] = 0.0
        deltas.append(norm(wp, rhat_new - rhat))
        rhat = rhat_new
        remainder = fft_inverse(SpectralField(grid, rhat))
        fhat_new = fft_forward(md.potential(amp_field + remainder, dm)).coeffs
        residual = norm(wm, fhat_new - fhat)
        residuals.append(residual)
        fhat = fhat_new
    defect = float(np.sqrt(grid.volume * np.sum(np.abs(fhat[:, mask]) ** 2)))
    return dict(
        remainder=remainder.values, iterations=iterations, residual=residual,
        forcing_norm=forcing, remainder_norm=norm(wp, rhat), clamped_defect=defect,
        deltas=deltas, residuals=residuals,
    )


def test_solve_is_bit_equal_to_the_pre_change_iteration(grid16, dm16):
    # E and H, each with the single-block first amplitude A and the mixed
    # paired amplitude B
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    for pol in cgo.Polarization:
        for amp, zeta in ((cgo.amplitude_a(g, pol), g.zeta1), (cgo.amplitude_b(g, pol), g.zeta2)):
            expected = pre_change_solve(grid16, dm16, zeta, amp, tol=1e-9)
            sol = cgo.solve_cgo(dm16, zeta, amp, tol=1e-9)
            assert expected["iterations"] > 1
            assert np.array_equal(sol.remainder.values, expected.pop("remainder"))
            assert {key: getattr(sol, key) for key in expected} == expected


def test_iterations_allocate_nothing(grid16, dm16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    amp = cgo.amplitude_a(g, cgo.Polarization.E)
    form_lazy_fields(dm16)
    cgo.solve_cgo(dm16, g.zeta1, amp)  # fills the medium's and the grid's caches

    def peak(iterations):
        tracemalloc.start()
        try:
            with pytest.raises(DivergenceError, match=f"within {iterations} iterations"):
                cgo.solve_cgo(dm16, g.zeta1, amp, tol=0.0, max_iter=iterations)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block_bytes = 4 * grid16.n**3 * np.dtype(complex).itemsize
    assert peak(6) - peak(2) < block_bytes


def test_a_fresh_solve_frees_its_buffers_before_the_remainder(grid16, dm16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    amp = cgo.amplitude_a(g, cgo.Polarization.E)
    form_lazy_fields(dm16)
    cgo.solve_cgo(dm16, g.zeta1, amp)  # fills the medium's and the grid's caches
    tracemalloc.start()
    try:
        cgo.solve_cgo(dm16, g.zeta1, amp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the solve's buffers hold 6 blocks and the 8-blade remainder 2: both at once reach 8
    block_bytes = 4 * grid16.n**3 * np.dtype(complex).itemsize
    assert peak < 8 * block_bytes


def test_remainder_scales_linearly_with_amplitude(grid16, dm16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    amp = cgo.amplitude_a(g, cgo.Polarization.E)
    sol1 = cgo.solve_cgo(dm16, g.zeta1, amp)
    sol2 = cgo.solve_cgo(dm16, g.zeta1, 2.5 * amp)
    diff = np.max(np.abs(sol2.remainder.values - 2.5 * sol1.remainder.values))
    assert diff < 1e-7 * np.max(np.abs(sol1.remainder.values))


def test_one_iteration_measures_no_contraction(grid16, dm16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    with pytest.raises(DivergenceError, match="contraction not measured") as err:
        cgo.solve_cgo(dm16, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E), max_iter=1)
    assert err.value.diagnostics == {"contraction": None, "iterations": 1}


def test_solver_divergence_and_resonance(grid16, monkeypatch):
    steep = md.Medium.from_bumps(
        grid16, omega=1.0,
        eps_bumps=[md.Bump(6.0, 1.4, sharpness=2.0)],
        mu_bumps=[md.Bump(5.0, 1.3, sharpness=2.0)],
    )
    dm = md.derive(steep)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 1.0, dm.k, grid=grid16)
    with pytest.raises(DivergenceError) as err:
        cgo.solve_cgo(dm, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    assert err.value.diagnostics["contraction"] >= 0.95

    monkeypatch.setattr(fields, "default_clamp_threshold", lambda grid: 1e-9)
    with pytest.raises(ResonantGridError):
        cgo.solve_cgo(dm, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))


def test_maxwell_linkage(grid16, dm16):
    # the Maxwell residual of the recovered field is controlled by the
    # conjugation magnitude times the grade-{0,3} defect of the image
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm16.k, grid=grid16)
    sol = cgo.solve_cgo(dm16, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    total = FormField.constant(grid16, sol.amplitude) + sol.remainder
    v = md.first_order_t(total, dm16, zeta=g.zeta1)
    u = md.to_maxwell(v, dm16)
    res = md.maxwell_residual(u, dm16, zeta=g.zeta1)
    defect = l2_norm(v.select((0, 3)))
    assert l2_norm(res) <= 3.0 * (g.zeta1_mag * defect + sol.residual * l2_norm(v))


# ---------------------------------------------------------------------------
# grade-{0,3} annihilation
# ---------------------------------------------------------------------------

def test_grade03_background_and_negative_control(grid16, dm16):
    dm0 = derive_background(grid16, omega=1.0)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm0.k, grid=grid16)
    sol0 = cgo.solve_cgo(dm0, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    assert cgo.grade03_ratio(dm0, sol0) < 1e-10

    sol_neg = cgo.solve_cgo(dm16, g.zeta1, GradedForm.scalar(1.0))
    assert cgo.grade03_ratio(dm16, sol_neg) > 1e-2


# ---------------------------------------------------------------------------
# decay study and operator-norm estimate
# ---------------------------------------------------------------------------

def test_decay_study_background_and_determinism(grid16):
    dm0 = derive_background(grid16, omega=1.0)
    study = cgo.decay_study(dm0, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=5)
    assert all(s.mean_remainder_sq == 0.0 for s in study.summaries)

    again = cgo.decay_study(dm0, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=5)
    assert [r.s for r in study.samples] == [r.s for r in again.samples]
    assert [r.angle for r in study.samples] == [r.angle for r in again.samples]


def test_decay_study_monte_carlo_consistency(grid16, dm16):
    base = cgo.decay_study(dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=6)
    double = cgo.decay_study(dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=16, seed=6)
    for a, b in zip(base.summaries, double.summaries):
        stderr = max(a.stderr_remainder_sq, 1e-12)
        assert abs(a.mean_remainder_sq - b.mean_remainder_sq) < 3.0 * stderr


def test_decay_study_validations(grid16, dm16):
    with pytest.raises(ValueError):
        cgo.decay_study(dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=4, seed=1)
    with pytest.raises(ValueError):
        cgo.decay_study(dm16, RHO, cgo.Polarization.E, [4.0, 2.0], n_samples=8, seed=1)
    with pytest.raises(ValueError, match=">= 1"):
        cgo.decay_study(dm16, RHO, cgo.Polarization.E, [0.5, 2.0], n_samples=8, seed=1)


def test_decay_study_threaded_matches_serial(grid16, dm16):
    serial = cgo.decay_study(dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=7)
    # more pool threads than cores, switching often: each solve owns its buffers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = cgo.decay_study(
            dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=7, workers=4
        )
    finally:
        sys.setswitchinterval(interval)
    assert threaded.samples == serial.samples


@pytest.mark.parametrize("workers", [1, 2])
def test_decay_study_propagates_programming_errors(grid16, dm16, monkeypatch, workers):
    def broken(*args, **kwargs):
        raise TypeError("kernel bug")

    monkeypatch.setattr(cgo, "solve_cgo", broken)
    with pytest.raises(TypeError, match="kernel bug"):
        cgo.decay_study(
            dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=1, workers=workers
        )


def test_decay_study_records_toolkit_errors_as_rows(grid16, monkeypatch):
    dm0 = derive_background(grid16, omega=1.0)
    solve = cgo.solve_cgo
    calls = []

    def first_call_diverges(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DivergenceError("not contracting")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgo, "solve_cgo", first_call_diverges)
    study = cgo.decay_study(dm0, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=1)
    assert [s.error for s in study.samples].count("DivergenceError") == 1
    assert np.isnan(study.samples[0].remainder_norm)
    assert study.summaries[0].n_samples == 7


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_sample_frees_its_solve(dm16, monkeypatch, workers):
    # a failed sample keeps its row only: the error's traceback, which holds
    # the failed solve's buffers, must not outlive the row
    form_lazy_fields(dm16)

    def traced_study():
        tracemalloc.start()
        try:
            study = cgo.decay_study(
                dm16, RHO, cgo.Polarization.E, [2.0, 4.0], n_samples=8, seed=1, workers=workers
            )
            return study, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_study()  # fills the medium's and the grid's caches
    _, clean_peak = traced_study()
    solve, calls = cgo.solve_cgo, itertools.count()

    def first_calls_stop_early(*args, **kwargs):
        if next(calls) < 2:  # a real solve, whose buffers exist when it raises
            kwargs["max_iter"] = 2
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgo, "solve_cgo", first_calls_stop_early)
    study, failed_peak = traced_study()
    errors = [s.error for s in study.samples if s.error]
    assert errors == ["DivergenceError"] * 2
    assert failed_peak <= clean_peak + 2**19


@pytest.mark.parametrize("failed", [7, 8])
def test_decay_study_rejects_a_lambda_with_fewer_than_two_samples(grid16, dm16, monkeypatch, failed):
    # 7 or 8 of the 40 samples fail, within the study's failure fraction, but
    # all at the first lambda: its mean and standard error cannot be formed
    solve = cgo.solve_cgo
    calls = []

    def first_calls_diverge(*args, **kwargs):
        calls.append(None)
        if len(calls) <= failed:
            raise DivergenceError("forced divergence")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgo, "solve_cgo", first_calls_diverge)
    lambdas = [1.0, 2.0, 4.0, 8.0, 16.0]
    with pytest.raises(StudyError, match="at lambda = 1.0 succeeded, fewer than 2") as exc:
        cgo.decay_study(dm16, RHO, cgo.Polarization.E, lambdas, n_samples=8, seed=3)
    diagnostics = exc.value.diagnostics
    assert diagnostics["lambda"] == 1.0
    assert diagnostics["failed"] == failed and diagnostics["samples"] == 40
    assert {f["lambda"] for f in diagnostics["failures"]} == {1.0}


def test_q_norm_estimate_background_and_preconditions(grid16, dm16, monkeypatch):
    dm0 = derive_background(grid16, omega=1.0)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, dm0.k, grid=grid16)
    est = cgo.q_norm_estimate(dm0, g.zeta1, seed=9)
    assert est.estimate == 0.0
    monkeypatch.setattr(fields, "default_clamp_threshold", lambda grid: 1e-9)
    with pytest.raises(ResonantGridError):
        cgo.q_norm_estimate(dm16, g.zeta1)

