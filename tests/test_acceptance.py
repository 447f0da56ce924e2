"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from cgolab import cgo, checks, presets
from cgolab import uniqueness as uq
from cgolab.cli import main
from cgolab.fields import ClampedSymbol, resolvent_operator_norm
from conftest import blade, derive_background, reference_config

RHO = np.array([1.0, 0.0, 0.0])
RHO_PAIR = np.array([2.0, 0.0, 0.0])
FRAME = cgo.orthonormal_frame(RHO, 0.7)
FRAME_PAIR = cgo.orthonormal_frame(RHO_PAIR, 0.7)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}")


@pytest.fixture(scope="module")
def pair32(grid32):
    return uq.make_pair(presets.reference_medium(grid32), presets.perturbed_medium(grid32))


def test_criterion_01_algebra_suite():
    started = time.monotonic()
    results = checks.algebra_checks(seed=0)
    elapsed = time.monotonic() - started
    worst = max(r.error for r in results)
    ok = all(r.passed for r in results) and elapsed < 5.0
    report(1, ok, f"algebra identities worst error {worst:.2e} in {elapsed:.1f}s")
    assert all(r.passed for r in results)
    assert elapsed < 5.0


def test_criterion_02_calculus_suite(grid32):
    started = time.monotonic()
    results = checks.calculus_checks(grid32, seed=1)
    elapsed = time.monotonic() - started
    worst = max(r.error for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    report(2, ok, f"calculus identities worst error {worst:.2e} in {elapsed:.1f}s")
    assert all(r.passed for r in results)
    assert elapsed < 30.0


def test_criterion_03_resolvent_norm(grid32, grid16):
    norms, leaks = [], []
    for grid, s in ((grid32, 8.0), (grid32, 32.0), (grid16, 3.0)):
        zeta = np.array([s, 1j * np.sqrt(s**2 + 1.0), 0.0], dtype=complex)
        norms.append(resolvent_operator_norm(grid, zeta))
        sym = ClampedSymbol(grid, zeta)
        leaks.append(float(np.max(np.abs(sym.inverse(np.ones(sym.mask.shape, complex))[sym.mask]))))
    ok = all(abs(v - 1.0) <= 1e-14 for v in norms) and not any(leaks)
    report(3, ok, f"resolvent operator norms {norms} (1 to within 1e-14), "
                  f"largest |inverse(1)| on a clamped mode {max(leaks)}")
    assert ok


def test_criterion_04_factorization(dm32):
    started = time.monotonic()
    results = checks.factorization_checks(dm32, seed=2, n_pairs=20)
    elapsed = time.monotonic() - started
    by_name = {r.name: r for r in results}
    idents = [
        by_name["factorization identity (potential)"],
        by_name["factorization identity (transposed)"],
    ]
    weak = [by_name["weak/strong potential match"], by_name["weak/strong transposed match"]]
    ok = (
        all(r.error < 1e-6 for r in idents)
        and all(r.error < 1e-6 for r in weak)
        and elapsed < 120.0
    )
    report(
        4, ok,
        f"identities {max(r.error for r in idents):.2e}, weak/strong "
        f"{max(r.error for r in weak):.2e}, {elapsed:.0f}s",
    )
    assert all(r.error < 1e-6 for r in idents)
    assert all(r.error < 1e-6 for r in weak)
    assert elapsed < 120.0


def test_criterion_05_geometry(grid32):
    rng = np.random.default_rng(50)
    k = 1.0
    worst_admissible = 0.0
    worst_sum = 0.0
    worst_incidence = 0.0
    for _ in range(100):
        idx = rng.integers(-3, 4, size=3)
        if not np.any(idx):
            idx[0] = 1
        rho = (2.0 * np.pi / grid32.length) * idx.astype(float)
        eta1, eta2 = cgo.orthonormal_frame(rho, rng.uniform(0, 2 * np.pi))
        g = cgo.make_geometry(rho, eta1, eta2, float(rng.uniform(1, 64)), k, grid=grid32)
        for z in (g.zeta1, g.zeta2):
            scale = max(k**2, float(np.sum(np.abs(z) ** 2)))
            worst_admissible = max(worst_admissible, abs(np.dot(z, z) + k**2) / scale)
        worst_sum = max(worst_sum, float(np.max(np.abs(g.zeta1 + g.zeta2 - 1j * rho))))
        for pol in (cgo.Polarization.E, cgo.Polarization.H):
            amp = cgo.amplitude_a(g, pol)
            worst_incidence = max(worst_incidence, cgo.incidence_residual(g.zeta1, k, amp))
    ok = worst_admissible <= 1e-10 and worst_sum <= 1e-12 and worst_incidence <= 1e-12
    report(
        5, ok,
        f"admissibility {worst_admissible:.1e}, covector sum {worst_sum:.1e}, "
        f"incidence {worst_incidence:.1e} over 100 frames x 2 polarizations",
    )
    assert worst_admissible <= 1e-10
    assert worst_sum <= 1e-12
    assert worst_incidence <= 1e-12


def test_criterion_06_reference_solve(grid32, dm32):
    started = time.monotonic()
    g = cgo.make_geometry(RHO, *FRAME, 32.0, dm32.k, grid=grid32)
    sol = cgo.solve_cgo(dm32, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E), tol=1e-9)
    elapsed = time.monotonic() - started
    ok = (  # a solve that does not converge raises DivergenceError
        sol.contraction < 0.5
        and sol.residual < 1e-8
        and sol.remainder_norm <= 2.0 * sol.forcing_norm
        and elapsed < 60.0
    )
    report(
        6, ok,
        f"contraction {sol.contraction:.3f}, residual {sol.residual:.1e}, "
        f"|R| = {sol.remainder_norm:.3f} <= 2|QA| = {2 * sol.forcing_norm:.3f}, {elapsed:.1f}s",
    )
    assert sol.contraction < 0.5
    assert sol.residual < 1e-8
    assert sol.remainder_norm <= 2.0 * sol.forcing_norm
    assert elapsed < 60.0


def test_criterion_07_decay_trends(grid32, dm32):
    started = time.monotonic()
    study = cgo.decay_study(
        dm32, RHO, cgo.Polarization.E, [4.0, 8.0, 16.0], n_samples=16, seed=2024, workers=2,
        tol=1e-8,
    )
    means = [s.mean_remainder_sq for s in study.summaries]
    estimates = []
    for s in (8.0, 16.0, 32.0):
        g = cgo.make_geometry(RHO, *FRAME, s, dm32.k, grid=grid32)
        estimates.append(cgo.q_norm_estimate(dm32, g.zeta1, seed=5).estimate)
    elapsed = time.monotonic() - started
    ok = (
        cgo.strictly_decreasing(means)
        and cgo.strictly_decreasing(estimates)
        and elapsed < 900.0
    )
    report(
        7, ok,
        f"mean |R|^2 {['%.4f' % m for m in means]}, "
        f"norm estimates {['%.5f' % e for e in estimates]}, {elapsed:.0f}s",
    )
    assert cgo.strictly_decreasing(means)
    assert cgo.strictly_decreasing(estimates)
    assert elapsed < 900.0


def test_criterion_08_grade03_annihilation(grid32, dm32):
    ratios = []
    for s in (8.0, 16.0, 32.0):
        g = cgo.make_geometry(RHO, *FRAME, s, dm32.k, grid=grid32)
        sol = cgo.solve_cgo(dm32, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
        ratios.append(cgo.grade03_ratio(dm32, sol))
    dm0 = derive_background(grid32, omega=presets.REFERENCE_OMEGA)
    g8 = cgo.make_geometry(RHO, *FRAME, 8.0, dm0.k, grid=grid32)
    sol0 = cgo.solve_cgo(dm0, g8.zeta1, cgo.amplitude_a(g8, cgo.Polarization.E))
    background = cgo.grade03_ratio(dm0, sol0)
    controls = []
    for s in (8.0, 16.0, 32.0):
        g = cgo.make_geometry(RHO, *FRAME, s, dm32.k, grid=grid32)
        sol_neg = cgo.solve_cgo(dm32, g.zeta1, blade(()))
        controls.append(cgo.grade03_ratio(dm32, sol_neg))
    ok = (
        cgo.strictly_decreasing(ratios)
        and background < 1e-10
        and all(c > 1e-2 for c in controls)
    )
    report(
        8, ok,
        f"ratios {['%.2e' % r for r in ratios]}, background {background:.1e}, "
        f"negative control {['%.3f' % c for c in controls]}",
    )
    assert cgo.strictly_decreasing(ratios)
    assert background < 1e-10
    assert all(c > 1e-2 for c in controls)


def test_criterion_09_uniqueness_lab(grid32, pair32):
    started = time.monotonic()
    same = uq.MediumPair(pair32.dm1, pair32.dm1)
    g = cgo.make_geometry(RHO_PAIR, *FRAME_PAIR, 8.0, same.k, grid=grid32)
    floor_value = abs(uq.pairing(same, g, cgo.Polarization.E).value)

    shrink = {}
    errors = {}
    for pol in (cgo.Polarization.E, cgo.Polarization.H):
        res = uq.convergence_experiment(
            pair32, RHO_PAIR, pol, [8.0, 32.0], *FRAME_PAIR
        )
        errors[pol.value] = (res.rows[0].abs_error, res.rows[-1].abs_error)
        shrink[pol.value] = res.rows[-1].abs_error < res.rows[0].abs_error
    elapsed = time.monotonic() - started
    ok = floor_value < 1e-9 and all(shrink.values()) and elapsed < 600.0
    report(
        9, ok,
        f"identical-media pairing {floor_value:.1e}; "
        f"E {errors['E'][0]:.2e} -> {errors['E'][1]:.2e}, "
        f"H {errors['H'][0]:.2e} -> {errors['H'][1]:.2e}, {elapsed:.0f}s",
    )
    assert floor_value < 1e-9
    assert all(shrink.values())
    assert elapsed < 600.0


def test_criterion_10_unique_continuation(grid32, pair32):
    coeffs = uq.ucp_coefficients(pair32)
    estimates = []
    final = None
    for mag in (8.0, 16.0, 32.0):
        rep = uq.ucp_contraction_check(
            grid32, coeffs, uq.null_covector(mag), trials=3, seed=3
        )
        estimates.append(rep.norm_estimate)
        final = rep
    ok = (
        cgo.strictly_decreasing(estimates)
        and estimates[-1] < 1.0
        and final.fixed_point_converged
    )
    report(
        10, ok,
        f"norm estimates {['%.3f' % e for e in estimates]}, certified "
        f"{final.contraction_certified}, fixed point from 10 starts in "
        f"{final.fixed_point_iterations} iterations",
    )
    assert cgo.strictly_decreasing(estimates)
    assert estimates[-1] < 1.0
    assert final.contraction_certified
    assert final.fixed_point_converged


def test_criterion_11_determinism(tmp_path):
    def run_twice(command, cfg):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{command}-{sub}"
            rc = main([command, "--config", str(path), "--out", str(out)])
            assert rc in (0, 5)
            outputs.append((out / "results.csv").read_bytes())
        return outputs[0] == outputs[1]

    small_grid = {"n": 16, "length": 2.0 * np.pi}
    flags = {}

    cfg = reference_config("cgo")
    cfg["grid"] = small_grid
    cfg["geometry"]["s"] = 8.0
    flags["run-cgo"] = run_twice("run-cgo", cfg)

    cfg = reference_config("decay")
    cfg["grid"] = small_grid
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 99}
    flags["run-decay"] = run_twice("run-decay", cfg)

    cfg = reference_config("uniqueness")
    cfg["grid"] = small_grid
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    flags["run-uniqueness"] = run_twice("run-uniqueness", cfg)

    cfg = reference_config("qnorm")
    cfg["grid"] = small_grid
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    flags["estimate-qnorm"] = run_twice("estimate-qnorm", cfg)

    ok = all(flags.values())
    report(11, ok, f"byte-identical CSV reruns: {flags}")
    assert all(flags.values())
