import dataclasses

import numpy as np
import pytest
from scipy import fft as sfft

from cgolab import cgo, fields, presets
from cgolab import media as md
from cgolab import uniqueness as uq
from cgolab.fields import FormField, default_floor, plane_wave_scalar

RHO = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def pair16(grid16):
    return uq.make_pair(presets.reference_medium(grid16), presets.perturbed_medium(grid16))


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def test_make_pair_rejections(grid16):
    m1 = presets.reference_medium(grid16)
    bad = md.Medium.background(grid16, omega=2.0)
    with pytest.raises(ValueError):
        uq.make_pair(m1, bad)  # different omega
    bad2 = md.Medium.background(grid16, omega=1.0, eps0=2.0)
    with pytest.raises(ValueError):
        uq.make_pair(m1, bad2)  # different background


# ---------------------------------------------------------------------------
# pairing and targets
# ---------------------------------------------------------------------------

def test_identical_media_pairing_vanishes(grid16, pair16):
    same = uq.MediumPair(pair16.dm1, pair16.dm1)
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 8.0, same.k, grid=grid16)
    res = uq.pairing(same, g, cgo.Polarization.E)
    assert abs(res.value) < 1e-12


def test_targets_vanish_for_identical_media(pair16):
    same = uq.MediumPair(pair16.dm1, pair16.dm1)
    assert abs(uq.target_a(same, RHO)) == 0.0
    assert abs(uq.target_b(same, RHO)) == 0.0


def test_target_zero_frequency_drops_gradient_term(grid16, pair16):
    # at rho = 0 the d e_(i rho) integral vanishes, leaving two terms
    rho0 = np.zeros(3)
    got = uq.target_a(pair16, rho0)
    dm1, dm2 = pair16.dm1, pair16.dm2
    diff3 = dm1.da.values[1:4] - dm2.da.values[1:4]
    sum3 = dm1.da.values[1:4] + dm2.da.values[1:4]
    manual = grid16.cell_volume * (
        np.sum(np.einsum("j...,j...->...", sum3, -diff3))
        + dm1.omega**2 * np.sum(dm1.gamma_mu - dm2.gamma_mu)
    )
    assert got == pytest.approx(complex(manual), rel=1e-12)


def test_target_b_closed_form_for_mu_only_contrast(grid16):
    # gamma identical, mu differs by one bump: the target reduces to the
    # Fourier coefficient of -omega^2 gamma (mu2 - mu1) at the probe
    m1 = md.Medium.background(grid16, omega=1.0)
    bump = md.Bump(0.2, 1.2, sharpness=2.0)
    m2 = md.Medium.from_bumps(grid16, omega=1.0, mu_bumps=[bump])
    mp = uq.make_pair(m1, m2)
    got = uq.target_a(mp, RHO)  # a-contrast is zero, only the product term remains
    wave = plane_wave_scalar(grid16, RHO)
    delta_mu = mp.dm2.mu - mp.dm1.mu
    oracle = -grid16.cell_volume * np.sum(wave * mp.dm1.gamma * delta_mu)
    assert got == pytest.approx(complex(oracle), rel=1e-10)


def test_target_at_negative_probe_matches_direct_quadrature(grid16, pair16):
    got = uq.target_a(pair16, -RHO)
    wave = plane_wave_scalar(grid16, -RHO)
    dm1, dm2 = pair16.dm1, pair16.dm2
    diff3 = dm1.da.values[1:4] - dm2.da.values[1:4]
    sum3 = dm1.da.values[1:4] + dm2.da.values[1:4]
    manual = grid16.cell_volume * (
        np.sum(np.einsum("j...,j->...", diff3, -1j * RHO) * wave)
        + np.sum(np.einsum("j...,j...->...", sum3, -diff3) * wave)
        + dm1.omega**2 * np.sum((dm1.gamma_mu - dm2.gamma_mu) * wave)
    )
    assert abs(got - complex(manual)) < 1e-10 * abs(got)


def test_pairing_is_linear_in_first_amplitude(grid16, pair16):
    # scaling the first amplitude scales the pairing value linearly,
    # assembled here from the public solver pieces
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.5), 8.0, pair16.k, grid=grid16)
    amp_a = cgo.amplitude_a(g, cgo.Polarization.E)
    amp_b = cgo.amplitude_b(g, cgo.Polarization.E)
    sol_b = cgo.solve_cgo(pair16.dm2, g.zeta2, amp_b)
    v = FormField.constant(grid16, amp_b) + sol_b.remainder
    wave = plane_wave_scalar(grid16, RHO)

    def assemble(scale):
        sol_a = cgo.solve_cgo(pair16.dm1, g.zeta1, scale * amp_a)
        w = FormField.constant(grid16, scale * amp_a) + sol_a.remainder
        dq = md.potential(w, pair16.dm2) - md.potential(w, pair16.dm1)
        return complex(grid16.cell_volume * np.sum(wave * dq.inner(v)))

    v1 = assemble(1.0)
    v3 = assemble(3.0)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-6)


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


# ---------------------------------------------------------------------------
# unique continuation certificate
# ---------------------------------------------------------------------------

def test_ucp_coefficients_supported_in_subbox(grid16, pair16):
    coeffs = uq.ucp_coefficients(pair16)
    outside = np.any(np.abs(grid16.x - grid16.length / 2) > grid16.length / 4, axis=0)
    for f in coeffs.as_tuple():
        assert np.max(np.abs(f[outside])) <= 1e-8 * np.max(np.abs(f))


def test_ucp_zero_coefficients(grid16):
    z = np.zeros((grid16.n,) * 3)
    coeffs = uq.UcpCoefficients(z, z, z, z, z, z)
    rep = uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(8.0), trials=2, seed=1)
    assert rep.norm_estimate == 0.0
    assert rep.contraction_certified
    assert rep.fixed_point_converged
    assert rep.fixed_point_iterations <= 1


def test_ucp_contraction_and_fixed_point(grid16, pair16):
    coeffs = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(
        grid16, coeffs, uq.null_covector(32.0), trials=3, seed=3, fixed_point_starts=10
    )
    assert rep.contraction_certified
    assert rep.conclusive
    assert rep.fixed_point_converged
    assert rep.fixed_point_iterations < 200


def test_ucp_inconclusive_band(grid16, pair16):
    base = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(grid16, base, uq.null_covector(32.0), trials=2, seed=3)
    scale = 1.0 / rep.norm_estimate  # rescale the potential to land near 1
    coeffs = uq.UcpCoefficients(*(scale * f for f in base.as_tuple()))
    near_one = uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(32.0), trials=2, seed=3)
    assert 0.9 <= near_one.norm_estimate <= 1.1
    assert not near_one.conclusive


def test_ucp_rejects_bad_inputs(grid16, pair16):
    coeffs = uq.ucp_coefficients(pair16)
    with pytest.raises(ValueError):
        uq.ucp_contraction_check(grid16, coeffs, np.array([1.0, 0.0, 0.0]), trials=1)
    ones = np.ones((grid16.n,) * 3)
    bad = uq.UcpCoefficients(ones, ones, ones, ones, ones, ones)
    with pytest.raises(ValueError):
        uq.ucp_contraction_check(grid16, bad, uq.null_covector(8.0), trials=1)


def test_ucp_norm_estimate_is_lower_bounded_by_samples(grid16, pair16):
    # the power-iteration estimate dominates single random Rayleigh quotients
    coeffs = uq.ucp_coefficients(pair16)
    zeta = uq.null_covector(16.0)
    rep = uq.ucp_contraction_check(grid16, coeffs, zeta, trials=3, seed=11)
    op = uq._UcpOperator(grid16, coeffs, zeta, default_floor(grid16))
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2,) + (grid16.n,) * 3) + 1j * rng.standard_normal((2,) + (grid16.n,) * 3)
    u[:, op.mask] = 0.0
    u /= np.sqrt(op.norm_sq(u))
    assert np.sqrt(op.norm_sq(op.apply(u))) <= rep.norm_estimate * (1 + 1e-6)


# ---------------------------------------------------------------------------
# FFT worker setting
# ---------------------------------------------------------------------------

def _set_fft_workers(monkeypatch, n):
    """set_fft_workers for one test; the previous setting comes back afterwards."""
    monkeypatch.setattr(fields, "_FFT_WORKERS", fields._FFT_WORKERS)
    fields.set_fft_workers(n)


def test_ucp_transforms_honour_the_fft_workers(grid16, pair16, monkeypatch):
    seen = []

    class Spy:
        def __getattr__(self, name):
            fn = getattr(sfft, name)

            def call(*args, **kwargs):
                seen.append(kwargs.get("workers"))
                return fn(*args, **kwargs)

            return call

    monkeypatch.setattr(fields, "sfft", Spy())
    _set_fft_workers(monkeypatch, 2)
    coeffs = uq.ucp_coefficients(pair16)
    uq.ucp_contraction_check(
        grid16, coeffs, uq.null_covector(32.0), trials=1, seed=3,
        power_iterations=3, fixed_point_starts=1,
    )
    assert seen
    assert all(w == 2 for w in seen)


def test_results_do_not_depend_on_fft_workers(grid16, monkeypatch):
    def run():
        mp = uq.make_pair(presets.reference_medium(grid16), presets.perturbed_medium(grid16))
        coeffs = uq.ucp_coefficients(mp)
        rep = uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(32.0), trials=2, seed=3)
        return mp, coeffs, rep

    def raw(value):
        value = value.values if isinstance(value, FormField) else value
        return np.asarray(value).tobytes() if isinstance(value, np.ndarray) else value

    _set_fft_workers(monkeypatch, 1)
    mp1, coeffs1, rep1 = run()
    _set_fft_workers(monkeypatch, 2)
    mp2, coeffs2, rep2 = run()
    for dm1, dm2 in ((mp1.dm1, mp2.dm1), (mp1.dm2, mp2.dm2)):
        for f in dataclasses.fields(dm1):
            assert raw(getattr(dm1, f.name)) == raw(getattr(dm2, f.name)), f.name
    for a, b in zip(coeffs1.as_tuple(), coeffs2.as_tuple()):
        assert raw(a) == raw(b)
    assert rep1 == rep2
