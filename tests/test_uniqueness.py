import dataclasses
import itertools
import json
import re
import sys

import numpy as np
import pytest

from cgolab import algebra, cgo, fields, presets
from cgolab import media as md
from cgolab import uniqueness as uq
from cgolab.fields import default_floor, plane_wave_scalar
from conftest import bits, coordinates, form_lazy_fields, traced_peak

RHO = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def pair16(grid16):
    return uq.make_pair(presets.reference_medium(grid16), presets.perturbed_medium(grid16))


@pytest.fixture(scope="module")
def pair32(grid32):
    return uq.make_pair(presets.reference_medium(grid32), presets.perturbed_medium(grid32))


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def test_make_pair_rejections(grid16):
    m1 = presets.reference_medium(grid16)
    bad = md.Medium.from_bumps(grid16, omega=2.0)
    with pytest.raises(ValueError):
        uq.make_pair(m1, bad)  # different omega
    bad2 = md.Medium.from_bumps(grid16, omega=1.0, eps0=2.0)
    with pytest.raises(ValueError):
        uq.make_pair(m1, bad2)  # different background
    with pytest.raises(ValueError, match="media must share one grid"):
        uq.make_pair(m1, presets.reference_medium(fields.Grid(8, grid16.length)))
    # The pair is held to the bound each medium meets outside the sub-box,
    # also on a background below 1, so two valid media make a pair ...
    shape = (grid16.n,) * 3
    low = md.Medium(grid16, 1.0, 0.5, 0.5, np.full(shape, 0.5), np.full(shape, 0.5), np.zeros(shape))
    off = md.Medium(grid16, 1.0, 0.5, 0.5, np.full(shape, 0.5 + 9e-13), low.mu, low.sigma)
    uq.make_pair(low, off)
    # ... and only samples changed after construction can break it
    off.eps[0, 0, 0] = 0.5 + 2 * off.background_tol
    with pytest.raises(ValueError, match="eps fields disagree outside the sub-box"):
        uq.make_pair(low, off)


# ---------------------------------------------------------------------------
# pairing and targets
# ---------------------------------------------------------------------------

def test_identical_media_pairing_vanishes(grid16, pair16):
    same = uq.MediumPair(pair16.dm1, pair16.dm1)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, same.k, grid=grid16)
    res = uq.pairing(same, g, cgo.Polarization.E)
    assert abs(res.value) < 1e-12


def assert_pairing_keeps_the_bits_of_the_direct_expression(pair, pol, index, s):
    # the quadrature of e_(i rho) <Q2 w - Q1 w, v> with both potentials formed
    # on all 8 blades of w, the first solve's total, and v the paired one's;
    # np.multiply reuses no temporary, so its operand order is the written one
    grid = pair.grid
    rho = (2.0 * np.pi / grid.length) * np.asarray(index, dtype=float)
    g = cgo.make_geometry(rho, *cgo.orthonormal_frame(rho, 0.7), s, pair.k, grid=grid)
    got = uq.pairing(pair, g, pol).value
    v = cgo.solve_cgo(pair.dm2, g.zeta2, cgo.amplitude_b(g, pol)).total
    w = cgo.solve_cgo(pair.dm1, g.zeta1, cgo.amplitude_a(g, pol)).total
    dq = md.potential(w, pair.dm2).values - md.potential(w, pair.dm1).values
    want = complex(grid.cell_volume * np.sum(np.multiply(algebra.inner(dq, v.values), plane_wave_scalar(grid, rho))))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("pol", list(cgo.Polarization))
@pytest.mark.parametrize("index", [(1, 0, 0), (2, 0, 0)])
@pytest.mark.parametrize("s", [8.0, 32.0])
def test_the_pairing_keeps_the_bits_of_the_direct_expression(pair16, pol, index, s):
    # below 256 KiB numpy reuses no temporary: the written order is the one formed
    assert_pairing_keeps_the_bits_of_the_direct_expression(pair16, pol, index, s)


@pytest.mark.parametrize("pol", list(cgo.Polarization))
@pytest.mark.parametrize("index", [(1, 0, 0), (2, 0, 0)])
@pytest.mark.parametrize("s", [8.0, 32.0])
def test_the_pairing_keeps_the_bits_of_the_direct_expression_at_32(pair32, pol, index, s):
    # from 256 KiB on numpy forms a product in a temporary operand: the same order here
    assert_pairing_keeps_the_bits_of_the_direct_expression(pair32, pol, index, s)


def test_targets_vanish_for_identical_media(pair16):
    same = uq.MediumPair(pair16.dm1, pair16.dm1)
    assert abs(uq.scattering_target(same, RHO, cgo.Polarization.E)) == 0.0
    assert abs(uq.scattering_target(same, RHO, cgo.Polarization.H)) == 0.0


def test_target_zero_frequency_drops_gradient_term(grid16, pair16):
    # at rho = 0 the d e_(i rho) integral vanishes, leaving two terms
    rho0 = np.zeros(3)
    got = uq.scattering_target(pair16, rho0, cgo.Polarization.E)
    dm1, dm2 = pair16.dm1, pair16.dm2
    diff3 = dm1.da3 - dm2.da3
    sum3 = dm1.da3 + dm2.da3
    manual = grid16.cell_volume * (
        np.sum(np.einsum("j...,j...->...", sum3, -diff3))
        + dm1.omega**2 * np.sum(dm1.gamma_mu - dm2.gamma_mu)
    )
    assert got == pytest.approx(complex(manual), rel=1e-12)


def test_target_b_closed_form_for_mu_only_contrast(grid16):
    # gamma identical, mu differs by one bump: the target reduces to the
    # Fourier coefficient of -omega^2 gamma (mu2 - mu1) at the probe
    m1 = md.Medium.from_bumps(grid16, omega=1.0)
    bump = md.Bump(0.2, 1.2, (grid16.length / 2,) * 3, sharpness=2.0)
    m2 = md.Medium.from_bumps(grid16, omega=1.0, mu_bumps=[bump])
    mp = uq.make_pair(m1, m2)
    # the a-contrast is zero, so only the product term remains
    got = uq.scattering_target(mp, RHO, cgo.Polarization.E)
    wave = plane_wave_scalar(grid16, RHO)
    delta_mu = mp.dm2.mu - mp.dm1.mu
    oracle = -grid16.cell_volume * np.sum(wave * mp.dm1.gamma * delta_mu)
    assert got == pytest.approx(complex(oracle), rel=1e-10)


def test_target_at_negative_probe_matches_direct_quadrature(grid16, pair16):
    got = uq.scattering_target(pair16, -RHO, cgo.Polarization.E)
    wave = plane_wave_scalar(grid16, -RHO)
    dm1, dm2 = pair16.dm1, pair16.dm2
    diff3 = dm1.da3 - dm2.da3
    sum3 = dm1.da3 + dm2.da3
    manual = grid16.cell_volume * (
        np.sum(np.einsum("j...,j->...", diff3, -1j * RHO) * wave)
        + np.sum(np.einsum("j...,j...->...", sum3, -diff3) * wave)
        + dm1.omega**2 * np.sum((dm1.gamma_mu - dm2.gamma_mu) * wave)
    )
    assert abs(got - complex(manual)) < 1e-10 * abs(got)


def test_targets_are_the_contrast_transforms_of_the_potentials(grid16, pair16):
    # h^3 sum_x (q2 - q1) e^(i rho x), q the grade-0 multiplier for E and the
    # grade-3 one for H, at every lattice rho with 0 < |rho|^2 <= 9
    steps = range(-3, 4)
    lattice = [np.array(v, float) for v in itertools.product(steps, steps, steps)
               if 0 < np.dot(v, v) <= 9]
    assert len(lattice) == 122
    for pol, c in ((cgo.Polarization.E, 0), (cgo.Polarization.H, 3)):
        contrast = pair16.dm2.coefficients[c] - pair16.dm1.coefficients[c]
        for rho in lattice:
            want = grid16.cell_volume * np.sum(contrast * plane_wave_scalar(grid16, rho))
            got = uq.scattering_target(pair16, rho, pol)
            assert abs(got - want) <= 1e-12 * abs(want), (pol, rho)


def test_the_target_moves_far_less_from_32_to_64_than_from_16_to_32():
    # the grid's share of the error, on the reference pair at rho index
    # (2, 0, 0): the relative change of the target from 16^3 to 32^3 is about
    # 50x its change from 32^3 to 64^3 (1.0e-2 against 1.9e-4 for E, 1.7e-2
    # against 3.4e-4 for H), so a 2n twin, not an n/2 one, bounds an n row
    rho = 2.0 * (2.0 * np.pi / presets.REFERENCE_LENGTH) * np.array([1.0, 0.0, 0.0])
    pols = (cgo.Polarization.E, cgo.Polarization.H)
    targets = []
    for n in (16, 32, 64):
        grid = presets.reference_grid(n)
        pair = uq.make_pair(presets.reference_medium(grid), presets.perturbed_medium(grid))
        targets.append(np.array([uq.scattering_target(pair, rho, pol) for pol in pols]))
        del pair
    t16, t32, t64 = targets
    coarse = np.abs(t32 - t16) / np.abs(t32)
    fine = np.abs(t64 - t32) / np.abs(t64)
    assert np.all(coarse >= 10 * fine), (coarse, fine)


def test_pairing_is_linear_in_first_amplitude(grid16, pair16):
    # scaling the first amplitude scales the pairing value linearly,
    # assembled here from the public solver pieces
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.5), 8.0, pair16.k, grid=grid16)
    amp_a = cgo.amplitude_a(g, cgo.Polarization.E)
    amp_b = cgo.amplitude_b(g, cgo.Polarization.E)
    v = cgo.solve_cgo(pair16.dm2, g.zeta2, amp_b).total
    wave = plane_wave_scalar(grid16, RHO)

    def assemble(scale):
        w = cgo.solve_cgo(pair16.dm1, g.zeta1, scale * amp_a).total
        dq = md.potential(w, pair16.dm2).values - md.potential(w, pair16.dm1).values
        return complex(grid16.cell_volume * np.sum(wave * algebra.inner(dq, v.values)))

    v1 = assemble(1.0)
    v3 = assemble(3.0)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-6)


@pytest.mark.parametrize("pol", list(cgo.Polarization))
def test_pairing_is_bit_equal_to_the_pre_change_expression(grid16, pair16, pol):
    # Q2 w - Q1 w and the quadrature as written before the pairing formed
    # them in place, on the solves' A + R and B + S, paired solve last
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, pair16.k, grid=grid16)
    a_amp, b_amp = cgo.amplitude_a(g, pol), cgo.amplitude_b(g, pol)
    sol1 = cgo.solve_cgo(pair16.dm1, g.zeta1, a_amp)
    sol2 = cgo.solve_cgo(pair16.dm2, g.zeta2, b_amp)
    w, v = sol1.total, sol2.total
    dq = md.potential(w, pair16.dm2).values - md.potential(w, pair16.dm1).values
    product = np.multiply(algebra.inner(dq, v.values), plane_wave_scalar(grid16, RHO))  # the written order
    expected = complex(grid16.cell_volume * np.sum(product))
    res = uq.pairing(pair16, g, pol)
    assert res.value == expected
    assert res.clamps == (sol1.clamp, sol2.clamp)


def b_on_a_block(g, pol) -> np.ndarray:
    """B on the blades of A's block, blades 0..3 for E and 4..7 for H, and +0.0 off them."""
    blk = slice(0, 4) if pol == cgo.Polarization.E else slice(4, 8)
    b_amp = np.zeros(8, dtype=complex)
    b_amp[blk] = cgo.amplitude_b(g, pol)[blk]
    return b_amp


def block_paired_expression(pair, g, pol) -> complex:
    """The pairing with B zeroed off A's block, both potentials and the quadrature formed on 8 blades."""
    v = cgo.solve_cgo(pair.dm2, g.zeta2, b_on_a_block(g, pol)).total
    w = cgo.solve_cgo(pair.dm1, g.zeta1, cgo.amplitude_a(g, pol)).total
    dq = md.potential(w, pair.dm2).values - md.potential(w, pair.dm1).values
    product = np.multiply(algebra.inner(dq, v.values), plane_wave_scalar(pair.grid, g.rho))  # the written order
    return complex(pair.grid.cell_volume * np.sum(product))


@pytest.mark.parametrize("pol", list(cgo.Polarization))
@pytest.mark.parametrize("n", [16, 32])
def test_the_pairing_keeps_the_bits_of_the_expression_with_b_on_a_block(grid16, pair16, grid32, pair32, pol, n):
    grid, pair = (grid16, pair16) if n == 16 else (grid32, pair32)
    rho = np.array([2.0, 1.0, 0.0]) * (2.0 * np.pi / grid.length)
    g = cgo.make_geometry(rho, *cgo.orthonormal_frame(rho, 2.1), 8.0, pair.k, grid=grid)
    got, want = uq.pairing(pair, g, pol).value, block_paired_expression(pair, g, pol)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_the_block_solve_stops_a_step_early_and_keeps_the_pairing_to_1e_10(grid16, pair16):
    # here the 8-blade paired solve takes 5 steps and the block solve 4: the
    # block's residual meets tol one step before that of all 8 blades
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 2.1), 16.0, pair16.k, grid=grid16)
    pol = cgo.Polarization.E
    full = cgo.solve_cgo(pair16.dm2, g.zeta2, cgo.amplitude_b(g, pol))
    block = cgo.solve_cgo(pair16.dm2, g.zeta2, b_on_a_block(g, pol))
    assert (full.iterations, block.iterations) == (5, 4)
    w = cgo.solve_cgo(pair16.dm1, g.zeta1, cgo.amplitude_a(g, pol)).total
    dq = md.potential(w, pair16.dm2).values - md.potential(w, pair16.dm1).values
    want = complex(grid16.cell_volume * np.sum(plane_wave_scalar(grid16, RHO) * algebra.inner(dq, full.total.values)))
    got = uq.pairing(pair16, g, pol).value
    assert got != want
    assert abs(got - want) <= 1e-10 * abs(want)


def test_each_pairing_solve_reports_its_clamped_defect_over_its_forcing(grid16, pair16):
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, pair16.k, grid=grid16)
    sols = (cgo.solve_cgo(pair16.dm1, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E)),
            cgo.solve_cgo(pair16.dm2, g.zeta2, b_on_a_block(g, cgo.Polarization.E)))
    res = uq.pairing(pair16, g, cgo.Polarization.E)
    assert res.defects == tuple(sol.clamped_defect / sol.forcing_norm for sol in sols)
    # a homogeneous first medium has Q1 = 0: no forcing, and a ratio of 0
    flat = uq.make_pair(md.Medium.from_bumps(grid16, pair16.dm1.omega), presets.perturbed_medium(grid16))
    res = uq.pairing(flat, g, cgo.Polarization.E)
    assert res.defects[0] == 0.0 and res.defects[1] > 0.0


def test_pairing_holds_only_what_it_reads(grid32):
    pair = uq.make_pair(presets.reference_medium(grid32), presets.perturbed_medium(grid32))
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, pair.k, grid=grid32)
    field_bytes = 8 * grid32.n**3 * np.dtype(complex).itemsize
    form_lazy_fields(pair.dm1, pair.dm2)
    for pol in cgo.Polarization:
        uq.pairing(pair, g, pol)  # fills the media's and the grid's caches
        _, peak = traced_peak(uq.pairing, pair, g, pol)
        # every array of the pairing holds the 4 blades of A's block: B + S,
        # R + A, Q2 w - Q1 w and Q1 w come to 2 fields, the first solve's
        # working set beside B + S to less than 3
        assert peak <= 3 * field_bytes + 65536, pol


def test_the_pairing_experiment_caches_no_gradient(grid16):
    # the targets form the half-log gradients they read and drop them; the pairings read Hessians only
    pair = uq.make_pair(presets.reference_medium(grid16), presets.perturbed_medium(grid16))
    for pol in cgo.Polarization:
        uq.convergence_experiment(pair, RHO, pol, [8.0], *cgo.orthonormal_frame(RHO, 0.7))
    for dm in (pair.dm1, pair.dm2):
        assert {"da3", "db3"}.isdisjoint(vars(dm))
        assert {"hess_a", "hess_b"} <= set(vars(dm))  # what each polarization's solves read stays cached


def test_convergence_experiment_structure(grid16, pair16):
    res = uq.convergence_experiment(
        pair16, RHO, cgo.Polarization.H, [4.0, 8.0], *cgo.orthonormal_frame(RHO, 0.7)
    )
    assert len(res.rows) == 2
    assert res.rows[0].s == 4.0
    assert all(np.isfinite(row.abs_error) for row in res.rows)
    with pytest.raises(ValueError):
        uq.convergence_experiment(
            pair16, RHO, cgo.Polarization.H, [8.0, 4.0], *cgo.orthonormal_frame(RHO, 0.7)
        )
    with pytest.raises(ValueError, match="nonempty increasing"):
        uq.convergence_experiment(pair16, RHO, cgo.Polarization.H, [], *cgo.orthonormal_frame(RHO, 0.7))


# ---------------------------------------------------------------------------
# unique continuation certificate
# ---------------------------------------------------------------------------

def test_ucp_coefficients_supported_in_subbox(grid16, pair16):
    M = uq.ucp_coefficients(pair16)
    assert M.shape == (2, 2) + (grid16.n,) * 3 and M.dtype == complex
    outside = np.any(np.abs(coordinates(grid16) - grid16.length / 2) > grid16.length / 4, axis=0)
    for f in M.reshape((4,) + M.shape[2:]):
        assert np.max(np.abs(f[outside])) <= 1e-8 * np.max(np.abs(f))


def test_smooth_step_falls_smoothly_from_one_to_zero():
    t = np.linspace(0.0, 1.0, 1001)[1:-1]  # the open interval, where the step moves
    f = uq._smooth_step(t)
    assert np.all(np.diff(f) <= 0) and np.all((f >= 0) & (f <= 1))
    # strictly, where the values stand apart from 0 and 1 in floating point
    inner = f[(t >= 0.05) & (t <= 0.95)]
    assert np.all(np.diff(inner) < 0) and np.all((inner > 0) & (inner < 1))
    assert np.max(np.abs(f + uq._smooth_step(1.0 - t) - 1.0)) < 1e-15
    ends = np.array([-2.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 3.0])
    assert np.array_equal(uq._smooth_step(ends), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_the_32_window_samples_its_transition(grid32):
    # at 16^3 the window takes only the values 0 and 1
    window = uq.subbox_window(grid32)
    assert np.any((window > 0) & (window < 1))


def test_ucp_coefficients_are_bit_equal_to_the_pre_change_expressions(grid32):
    # the window and the six coefficient fields as they were formed before M, at
    # 32^3, where the window has points strictly between 0 and 1
    pair = uq.make_pair(presets.reference_medium(grid32), presets.perturbed_medium(grid32))
    half = grid32.length / 4.0
    r = np.max(np.abs(coordinates(grid32) - grid32.length / 2.0), axis=0) / half
    window = uq._smooth_step((r - uq.WINDOW_START) / (uq.WINDOW_STOP - uq.WINDOW_START))
    assert np.array_equal(bits(uq.subbox_window(grid32)), bits(window))
    dm1, dm2 = pair.dm1, pair.dm2
    omega2 = dm1.omega**2
    sg1, sg2, sm1, sm2 = dm1.sqrt_gamma, dm2.sqrt_gamma, dm1.sqrt_mu, dm2.sqrt_mu
    g1, g2, mu1, mu2 = dm1.gamma, dm2.gamma, dm1.mu, dm2.mu

    def neg_lap_over(f):
        return -fields._inverse(-grid32.xi_op_sq * fields._forward(f)) / f

    V = window * neg_lap_over(sg1 + sg2)
    W = window * neg_lap_over(sm1 + sm2)
    a = window * omega2 * sg1 * sg2 * (mu1 + mu2)
    b = -window * omega2 * sg1 * sg2 * (g1 + g2) * (sm1 + sm2) / (sg1 + sg2)
    c = window * omega2 * sm1 * sm2 * (g1 + g2)
    d = -window * omega2 * sm1 * sm2 * (mu1 + mu2) * (sg1 + sg2) / (sm1 + sm2)
    M = uq.ucp_coefficients(pair)
    for (i, j), entry in zip(np.ndindex(2, 2), (V + a, b, d, W + c)):
        assert np.array_equal(bits(M[i, j]), bits(entry)), (i, j)


def test_ucp_zero_coefficients(grid16):
    M = np.zeros((2, 2) + (grid16.n,) * 3, dtype=complex)
    rep = uq.ucp_contraction_check(grid16, M, uq.null_covector(8.0), trials=2, seed=1)
    assert rep.norm_estimate == 0.0
    assert rep.contraction_certified
    assert rep.fixed_point_converged
    assert rep.fixed_point_iterations <= 1


def test_ucp_contraction_and_fixed_point(grid16, pair16):
    M = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(
        grid16, M, uq.null_covector(32.0), trials=3, seed=3
    )
    assert rep.contraction_certified
    assert rep.conclusive
    assert rep.fixed_point_converged
    assert rep.fixed_point_iterations < 200


def test_ucp_inconclusive_band(grid16, pair16):
    base = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(grid16, base, uq.null_covector(32.0), trials=2, seed=3)
    scale = 1.0 / rep.norm_estimate  # rescale the potential to land near 1
    near_one = uq.ucp_contraction_check(grid16, scale * base, uq.null_covector(32.0), trials=2, seed=3)
    assert 0.9 <= near_one.norm_estimate <= 1.1
    assert not near_one.conclusive


def test_ucp_rejects_bad_inputs(grid16, pair16):
    M = uq.ucp_coefficients(pair16)
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            uq.ucp_contraction_check(grid16, M, uq.null_covector(8.0), trials=trials)
    with pytest.raises(ValueError, match=re.escape("<zeta,zeta> = (1+0j) is not -k^2 = -0.0")):
        uq.ucp_contraction_check(grid16, M, np.array([1.0, 0.0, 0.0]), trials=1)
    bad = np.ones((2, 2) + (grid16.n,) * 3, dtype=complex)
    with pytest.raises(ValueError, match=r"coefficient M\[0, 0\] is not supported in the sub-box"):
        uq.ucp_contraction_check(grid16, bad, uq.null_covector(8.0), trials=1)
    # a multiplier formed on another grid, or not 2 x 2
    for n, other in ((8, M), (32, M), (16, M[0])):
        grid = fields.Grid(n, grid16.length)
        shapes = re.escape(f"M has shape {other.shape}, but the grid needs {(2, 2) + (n,) * 3}")
        with pytest.raises(ValueError, match=shapes):
            uq.ucp_contraction_check(grid, other, uq.null_covector(8.0), trials=1)


def test_ucp_power_iteration_weighs_one_estimate_per_start(grid16, pair16, monkeypatch):
    # every weighted norm of the certificate is one ClampedSymbol.norm call
    M = uq.ucp_coefficients(pair16)
    calls = []
    norm = fields.ClampedSymbol.norm
    monkeypatch.setattr(fields.ClampedSymbol, "norm", lambda sym, c, b: calls.append(b) or norm(sym, c, b))
    rep = uq.ucp_contraction_check(grid16, M, uq.null_covector(8.0), trials=3, seed=3)
    assert not rep.contraction_certified  # so no fixed-point start weighs a norm
    # per start: the start's norm, one per step but the last for the next start, one estimate
    assert calls == [0.5] * 3 * (uq.POWER_ITERATIONS + 1) and len(calls) == 3 * 31


def test_each_fixed_point_start_stops_at_its_last_step(grid16, pair16, monkeypatch):
    # the w whose norm ends a start's loop is not cut back to the box: a start of k steps cuts k - 1
    cuts, ends = [], []
    to_box, fixed_point_start = uq._UcpOperator.to_box, uq._UcpOperator.fixed_point_start

    def recorded_start(op, b):
        ends.append(end := fixed_point_start(op, b))
        return end

    monkeypatch.setattr(uq._UcpOperator, "to_box", lambda op, u: cuts.append(None) or to_box(op, u))
    monkeypatch.setattr(uq._UcpOperator, "fixed_point_start", recorded_start)
    rep = uq.ucp_contraction_check(grid16, uq.ucp_coefficients(pair16), uq.null_covector(32.0), trials=3, seed=3)
    assert rep.contraction_certified and len(ends) == uq.FIXED_POINT_STARTS
    assert rep.fixed_point_iterations == max(it for it, _ in ends) > 1
    starts = 3 + uq.FIXED_POINT_STARTS  # each cut to the box once
    power_steps = 3 * 2 * (uq.POWER_ITERATIONS - 1)  # each step cuts h and the next b
    assert len(cuts) == starts + power_steps + sum(it - 1 for it, _ in ends)


def certified_call_peak(grid, M):
    """The traced peak of criterion 10's certified call (|zeta| = 32, 3 trials, seed 3), once a first call has
    filled the grid's caches, in two-component grid arrays."""
    def check():
        return uq.ucp_contraction_check(grid, M, uq.null_covector(32.0), trials=3, seed=3)

    check()
    rep, peak = traced_peak(check)
    assert rep.contraction_certified and rep.fixed_point_iterations > 0  # so the fixed-point phase ran
    return peak / (2 * grid.n**3 * np.dtype(complex).itemsize)


def test_the_certified_call_peaks_under_15_grid_arrays_at_16(grid16, pair16):
    # the box states own their data: a state that viewed its n^3 first pass would pin one grid array
    # per held start, and with the 10 fixed-point starts held at once the call peaks at 21.6-23.1
    assert certified_call_peak(grid16, uq.ucp_coefficients(pair16)) < 15


def test_the_certified_call_peaks_under_14_grid_arrays_at_32(grid32, pair32):
    # 11.7 with box states that own their data, 21.0 with views of their first pass
    assert certified_call_peak(grid32, uq.ucp_coefficients(pair32)) < 14


def pre_change_power_start(op, b):
    """_UcpOperator.power_start as it read when its last step also formed
    g, its norm and the next b, which the estimate does not read."""
    for _ in range(uq.POWER_ITERATIONS):
        h = op.inv_weight * op._mult(b, op.m)
        g = op.inv_weight * op._mult(op.to_box(h), op.mh)
        ng = op.sym.norm(g, 0.5)
        if ng == 0:
            break
        b = op.to_box(g) / ng
    return op.sym.norm(h, 0.5)


def test_ucp_reports_are_bit_equal_to_the_pre_change_power_loop_on_criterion_10(grid32, pair32, monkeypatch):
    M = uq.ucp_coefficients(pair32)

    def reports():
        return [uq.ucp_contraction_check(grid32, M, uq.null_covector(mag), trials=3, seed=3)
                for mag in (8.0, 16.0, 32.0)]

    new = reports()
    monkeypatch.setattr(uq._UcpOperator, "power_start", pre_change_power_start)
    old = reports()
    assert new == old
    assert [r.norm_estimate.hex() for r in new] == [r.norm_estimate.hex() for r in old]


def test_ucp_norm_estimate_is_lower_bounded_by_samples(grid16, pair16):
    # the power-iteration estimate dominates single random Rayleigh quotients
    M = uq.ucp_coefficients(pair16)
    zeta = uq.null_covector(16.0)
    rep = uq.ucp_contraction_check(grid16, M, zeta, trials=3, seed=11)
    op = uq._UcpOperator(grid16, M, zeta)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2,) + (grid16.n,) * 3) + 1j * rng.standard_normal((2,) + (grid16.n,) * 3)
    u[:, op.sym.mask] = 0.0
    u /= op.sym.norm(u, 0.5)
    assert op.sym.norm(op.apply(op.to_box(u)), 0.5) <= rep.norm_estimate * (1 + 1e-6)


def _pre_change_symbol(grid, zeta):
    """(clamp mask, 1/p, |p|, 1/|p|) as the certificate formed them before it
    read a ClampedSymbol: straight from the symbol p and the clamp floor."""
    floor = default_floor(grid)
    p = fields.helmholtz_symbol(grid, zeta)
    absp = np.abs(p)
    mask = absp < floor
    weight = np.maximum(absp, floor) ** 1.0
    weight[mask] = 0.0
    inv_p = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, p))
    inv_weight = np.where(~mask, 1.0 / np.where(~mask, weight, 1.0), 0.0)
    return mask, inv_p, weight, inv_weight


def test_ucp_operator_is_bit_equal_to_the_pre_change_expressions(grid16, pair16):
    zeta = uq.null_covector(16.0)
    mask, inv_p, weight, inv_weight = _pre_change_symbol(grid16, zeta)
    op = uq._UcpOperator(grid16, uq.ucp_coefficients(pair16), zeta)
    assert np.array_equal(op.sym.mask, mask)
    assert np.array_equal(op.inv_p, inv_p)
    assert np.array_equal(op.sym.weight(0.5), weight)
    assert np.array_equal(op.inv_weight, inv_weight)
    assert not any(hasattr(op, name) for name in ("mask", "weight", "norm_sq"))  # the symbol holds them


class _FullTransformOperator(uq._UcpOperator):
    """Oracle: the operator on the full n^3 grid.  A box state is cropped
    from the full inverse transform, or embedded in a zero field before the
    full forward one, and the multiply runs on every point with the whole,
    uncropped M, its conjugate transpose written out entry by entry."""

    def __init__(self, grid, M, zeta):
        super().__init__(grid, M, zeta)
        self.full = M

    def _embed(self, z):
        full = np.zeros(z.shape[:1] + (self.sym.grid.n,) * 3, complex)
        full[(slice(None),) + self.box] = z
        return full

    def to_box(self, u):
        return fields._inverse(u)[(slice(None),) + self.box]

    def from_box(self, z):
        return fields._forward(self._embed(z))

    def _mult(self, b, m):
        (m00, m03), (m30, m33) = self.full
        w0, w3 = self._embed(b)
        if m is self.mh:
            o0 = np.conj(m00) * w0 + np.conj(m30) * w3
            o3 = np.conj(m03) * w0 + np.conj(m33) * w3
        else:
            assert m is self.m
            o0 = m00 * w0 + m03 * w3
            o3 = m30 * w0 + m33 * w3
        return fields._forward(np.stack([o0, o3]))


def _apply(op, u):
    """T u, spectral in and out."""
    return op.apply(op.to_box(u))


def _apply_adjoint(op, u):
    """Adjoint of T in the +1/2-weighted inner product, spectral in and out."""
    adjoint_in = np.conj(op.inv_p) * op.sym.weight(0.5)
    return op.inv_weight * op._mult(op.to_box(adjoint_in * u), op.mh)


def _serial_spectral_check(grid, M, zeta, trials, seed):
    """Oracle: the certificate as one serial loop over whole 2 x n^3 spectra,
    with T*T as T followed by its weighted adjoint, and w <- -T w.  Only
    the transforms and the multiply by M are the full-transform operator's;
    the clamp mask, 1/p, the weights and the volume-free weighted norm are
    formed here from the symbol p, not read from a ClampedSymbol."""
    op = _FullTransformOperator(grid, M, zeta)
    mask, inv_p, weight, inv_weight = _pre_change_symbol(grid, zeta)
    rng = fields.seeded_rng(seed)

    def norm(u):
        return float(np.sqrt(np.sum(weight * np.sum(np.abs(u) ** 2, axis=0))))

    def apply(u):  # T u
        return inv_p * op._mult(op.to_box(u), op.m)

    def apply_adjoint(u):  # T* u, the adjoint in the +1/2-weighted inner product
        return inv_weight * op._mult(op.to_box(np.conj(inv_p) * weight * u), op.mh)

    def random_start():
        shape = (2,) + mask.shape
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u[:, mask] = 0.0
        return u / norm(u)

    best = 0.0
    for _ in range(trials):
        u = random_start()
        for _ in range(uq.POWER_ITERATIONS):
            tu = apply(u)
            g = apply_adjoint(tu)
            ng = norm(g)
            if ng == 0:
                break
            u = g / ng
        best = max(best, norm(tu))  # ||T u|| for the last step's unit u
    converged_all = best < 1.0
    worst_iters = 0
    if converged_all:
        for _ in range(uq.FIXED_POINT_STARTS):
            w = random_start()
            it = 0
            size = 1.0
            while size > uq.FIXED_POINT_TOL and it < uq.FIXED_POINT_MAX_ITER:
                w = -apply(w)
                size = norm(w)
                it += 1
            worst_iters = max(worst_iters, it)
            if size > uq.FIXED_POINT_TOL:
                converged_all = False
    return uq.UcpReport(
        norm_estimate=best,
        conclusive=not (0.9 <= best <= 1.1),
        contraction_certified=best < 1.0,
        fixed_point_converged=converged_all,
        fixed_point_iterations=worst_iters,
        clamped_modes=int(np.sum(mask)),
    )


def _assert_agrees_with_the_serial_loop(rep, oracle):
    assert abs(rep.norm_estimate - oracle.norm_estimate) <= 1e-12 * oracle.norm_estimate
    for name in ("fixed_point_iterations", "fixed_point_converged", "contraction_certified",
                 "conclusive", "clamped_modes"):
        assert getattr(rep, name) == getattr(oracle, name), name


@pytest.mark.parametrize("seed", range(32))
def test_ucp_report_agrees_with_the_serial_spectral_loop(grid16, pair16, seed):
    M = uq.ucp_coefficients(pair16)
    for mag in (8.0, 16.0, 32.0):
        zeta = uq.null_covector(mag)
        _assert_agrees_with_the_serial_loop(
            uq.ucp_contraction_check(grid16, M, zeta, trials=2, seed=seed),
            _serial_spectral_check(grid16, M, zeta, trials=2, seed=seed),
        )


def test_ucp_report_agrees_with_the_serial_spectral_loop_on_criterion_10(grid32, pair32):
    # criterion 10's inputs at |zeta| = 32, where the fixed-point phase runs
    M = uq.ucp_coefficients(pair32)
    zeta = uq.null_covector(32.0)
    rep = uq.ucp_contraction_check(grid32, M, zeta, trials=3, seed=3)
    assert rep.fixed_point_iterations > 0
    _assert_agrees_with_the_serial_loop(rep, _serial_spectral_check(grid32, M, zeta, trials=3, seed=3))


@pytest.mark.parametrize("mag", [8.0, 16.0, 32.0])
def test_ucp_weighted_adjoint_composition_is_the_inverse_weight(grid32, mag):
    # conj(1/p) |p| (1/p) = 1/|p|: what lets a T*T step run on the box
    sym = fields.ClampedSymbol(grid32, uq.null_covector(mag))
    inv_p = sym.inverse(np.ones(sym.mask.shape, complex))
    composed = np.conj(inv_p) * sym.weight(0.5) * inv_p
    live, inv_weight = ~sym.mask, sym.weight(-0.5)
    assert np.sum(sym.mask) == 8
    assert np.all(composed[sym.mask] == 0) and np.all(inv_weight[sym.mask] == 0)
    assert np.all(np.abs(composed[live] - inv_weight[live]) <= 8 * np.spacing(inv_weight[live]))


def test_ucp_report_does_not_depend_on_the_thread_count(grid16, pair16, monkeypatch):
    M = uq.ucp_coefficients(pair16)
    parallel_map = uq._parallel_map
    calls = []  # (workers, the results of one phase's starts, in start order)

    def recorded(fn, items, workers):
        out = parallel_map(fn, items, workers)
        calls.append((workers, out))
        return out

    def backwards(fn, items, workers):
        out = [fn(item) for item in reversed(items)][::-1]
        calls.append((workers, out))
        return out

    def run():
        calls.clear()
        reports = [uq.ucp_contraction_check(grid16, M, uq.null_covector(mag), seed=5)
                   for mag in (8.0, 32.0)]
        return reports, [out for _, out in calls], [workers for workers, _ in calls]

    monkeypatch.setattr(uq, "_parallel_map", recorded)
    monkeypatch.setattr(uq, "_usable_cpus", lambda: 1)
    one = run()
    monkeypatch.setattr(uq, "_usable_cpus", lambda: 4)  # more threads than the host's cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        four = run()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(uq, "_parallel_map", backwards)
    reverse = run()
    assert not one[0][0].contraction_certified and one[0][1].fixed_point_iterations > 0
    # |zeta| = 8: 4 power starts; |zeta| = 32: 4 power starts, then 10 fixed-point starts
    assert one[2] == [1, 1, 1] and four[2] == [4, 4, 4]
    for reports, starts, _ in (four, reverse):
        assert reports == one[0] and repr(reports) == repr(one[0])
        assert starts == one[1]  # every start's own result, not only the reduction


def _with_tail(grid, M):
    """M with a small value at one point outside the sub-box, below the
    support tolerance, so the support box grows past the sub-box."""
    M = M.copy()
    M[0, 0, 1, grid.n - 2, 3] = 1e-3 * uq.SUPPORT_TOL * np.max(np.abs(M[0, 0]))
    return M


@pytest.mark.parametrize("tail", [False, True])
def test_ucp_operator_matches_the_full_transform_oracle(grid16, pair16, tail):
    M = uq.ucp_coefficients(pair16)
    if tail:
        M = _with_tail(grid16, M)
    rng = np.random.default_rng(4)
    shape = (2,) + (grid16.n,) * 3
    for mag in (8.0, 32.0):
        zeta = uq.null_covector(mag)
        op = uq._UcpOperator(grid16, M, zeta)
        oracle = _FullTransformOperator(grid16, M, zeta)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = op.to_box(u)
        assert np.array_equal(bits(b), bits(oracle.to_box(u)))
        assert np.array_equal(bits(op.from_box(b)), bits(oracle.from_box(b)))
        assert np.array_equal(bits(_apply(op, u)), bits(_apply(oracle, u)))
        assert np.array_equal(bits(_apply_adjoint(op, u)), bits(_apply_adjoint(oracle, u)))


def test_ucp_support_box_is_that_of_the_exact_nonzeros(grid16, pair16):
    M = uq.ucp_coefficients(pair16)
    zeta = uq.null_covector(8.0)
    box = uq._UcpOperator(grid16, M, zeta).box
    nonzero = np.zeros((grid16.n,) * 3, dtype=bool)
    for f in M.reshape((4,) + M.shape[2:]):
        nonzero |= f != 0
    inside = np.zeros_like(nonzero)
    inside[box] = True
    assert nonzero[box].any() and not (nonzero & ~inside).any()
    assert all(0 < s.stop - s.start < grid16.n for s in box)
    tail_box = uq._UcpOperator(grid16, _with_tail(grid16, M), zeta).box
    assert tail_box[0].start == 1 and tail_box[1].stop == grid16.n - 1
    assert tail_box[2] == slice(3, box[2].stop)
    empty = uq._UcpOperator(grid16, np.zeros_like(M), zeta)
    assert empty.box == (slice(0, 0),) * 3
    u = np.ones((2,) + (grid16.n,) * 3, dtype=complex)
    assert not np.any(_apply(empty, u)) and not np.any(_apply_adjoint(empty, u))


@pytest.mark.parametrize("tail", [False, True])
def test_ucp_report_equals_the_full_transform_oracle(grid16, pair16, tail, monkeypatch):
    M = uq.ucp_coefficients(pair16)
    if tail:
        M = _with_tail(grid16, M)

    def reports():
        return [
            uq.ucp_contraction_check(grid16, M, uq.null_covector(mag), trials=2, seed=3)
            for mag in (8.0, 16.0, 32.0)
        ]

    fast = reports()
    monkeypatch.setattr(uq, "_UcpOperator", _FullTransformOperator)
    assert fast == reports()


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["M00", "M01", "M10", "M11"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ucp_rejects_non_finite_coefficients(grid16, pair16, i, j, value):
    bad = uq.ucp_coefficients(pair16)
    bad[i, j, 8, 8, 8] = value
    with pytest.raises(ValueError, match=rf"coefficient M\[{i}, {j}\] is not finite"):
        uq.ucp_contraction_check(grid16, bad, uq.null_covector(8.0), trials=1)


def test_ucp_report_round_trips_through_json(grid16, pair16):
    M = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(grid16, M, uq.null_covector(32.0), trials=1, seed=3)
    for f in dataclasses.fields(rep):
        assert type(getattr(rep, f.name)).__name__ == f.type, f.name  # plain, not numpy
    assert uq.UcpReport(**json.loads(json.dumps(dataclasses.asdict(rep)))) == rep
