import dataclasses
import json

import numpy as np
import pytest

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
    with pytest.raises(ValueError, match="media must share one grid"):
        uq.make_pair(m1, presets.reference_medium(fields.Grid(8, grid16.length)))
    # A background below 1 makes the pair's bound (1e-12 eps0) tighter than a
    # medium's own (1e-12), so two valid media can still disagree outside.
    shape = (grid16.n,) * 3
    low = md.Medium(grid16, 1.0, 0.5, 0.5, np.full(shape, 0.5), np.full(shape, 0.5), np.zeros(shape))
    off = md.Medium(grid16, 1.0, 0.5, 0.5, np.full(shape, 0.5 + 9e-13), low.mu, low.sigma)
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


def test_targets_vanish_for_identical_media(pair16):
    same = uq.MediumPair(pair16.dm1, pair16.dm1)
    assert abs(uq.scattering_target(same, RHO, cgo.Polarization.E)) == 0.0
    assert abs(uq.scattering_target(same, RHO, cgo.Polarization.H)) == 0.0


def test_target_zero_frequency_drops_gradient_term(grid16, pair16):
    # at rho = 0 the d e_(i rho) integral vanishes, leaving two terms
    rho0 = np.zeros(3)
    got = uq.scattering_target(pair16, rho0, cgo.Polarization.E)
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
        grid16, coeffs, uq.null_covector(32.0), trials=3, seed=3
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
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(8.0), trials=trials)
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
    op = uq._UcpOperator(grid16, coeffs, zeta)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2,) + (grid16.n,) * 3) + 1j * rng.standard_normal((2,) + (grid16.n,) * 3)
    u[:, op.mask] = 0.0
    u /= np.sqrt(op.norm_sq(u))
    assert np.sqrt(op.norm_sq(op.apply(u))) <= rep.norm_estimate * (1 + 1e-6)


def test_ucp_operator_is_bit_equal_to_the_pre_change_expressions(grid16, pair16):
    zeta = uq.null_covector(16.0)
    floor = default_floor(grid16)
    p = fields.helmholtz_symbol(grid16, zeta)
    absp = np.abs(p)
    mask = absp < floor
    weight = np.maximum(absp, floor) ** 1.0
    weight[mask] = 0.0
    inv_p = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, p))
    inv_weight = np.where(~mask, 1.0 / np.where(~mask, weight, 1.0), 0.0)

    op = uq._UcpOperator(grid16, uq.ucp_coefficients(pair16), zeta)
    assert np.array_equal(op.mask, mask)
    assert np.array_equal(op.inv_p, inv_p)
    assert np.array_equal(op.weight, weight)
    assert np.array_equal(op.inv_weight, inv_weight)


class _FullTransformOperator(uq._UcpOperator):
    """Oracle: the operator with full n^3 transforms and a multiply on every
    point, as it was written before the support-box transforms."""

    def __init__(self, grid, coeffs, zeta):
        super().__init__(grid, coeffs, zeta)
        self.full = (coeffs.V + coeffs.a, coeffs.b, coeffs.d, coeffs.W + coeffs.c)

    def _mult(self, u, conj_transpose=False):
        m00, m03, m30, m33 = self.full
        w0, w3 = fields._inverse(u)
        if conj_transpose:
            o0 = np.conj(m00) * w0 + np.conj(m30) * w3
            o3 = np.conj(m03) * w0 + np.conj(m33) * w3
        else:
            o0 = m00 * w0 + m03 * w3
            o3 = m30 * w0 + m33 * w3
        return fields._forward(np.stack([o0, o3]))

    def apply(self, u):
        return self._mult(u) * self.inv_p

    def apply_adjoint(self, u):
        v = np.conj(self.inv_p) * self.weight * u
        return self.inv_weight * self._mult(v, conj_transpose=True)


def _with_tail(grid, coeffs):
    """The coefficients with a small value at one point outside the sub-box,
    below the support tolerance, so the support box grows past the sub-box."""
    V = coeffs.V.copy()
    V[1, grid.n - 2, 3] = 1e-3 * uq.SUPPORT_TOL * np.max(np.abs(V))
    return dataclasses.replace(coeffs, V=V)


@pytest.mark.parametrize("tail", [False, True])
def test_ucp_operator_matches_the_full_transform_oracle(grid16, pair16, tail):
    coeffs = uq.ucp_coefficients(pair16)
    if tail:
        coeffs = _with_tail(grid16, coeffs)
    rng = np.random.default_rng(4)
    shape = (2,) + (grid16.n,) * 3
    for mag in (8.0, 32.0):
        zeta = uq.null_covector(mag)
        op = uq._UcpOperator(grid16, coeffs, zeta)
        oracle = _FullTransformOperator(grid16, coeffs, zeta)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(op.apply(u), oracle.apply(u))
        assert np.array_equal(op.apply_adjoint(u), oracle.apply_adjoint(u))


def test_ucp_support_box_is_that_of_the_exact_nonzeros(grid16, pair16):
    coeffs = uq.ucp_coefficients(pair16)
    zeta = uq.null_covector(8.0)
    box = uq._UcpOperator(grid16, coeffs, zeta).box
    nonzero = np.zeros((grid16.n,) * 3, dtype=bool)
    for f in coeffs.as_tuple():
        nonzero |= f != 0
    inside = np.zeros_like(nonzero)
    inside[box] = True
    assert nonzero[box].any() and not (nonzero & ~inside).any()
    assert all(0 < s.stop - s.start < grid16.n for s in box)
    tail_box = uq._UcpOperator(grid16, _with_tail(grid16, coeffs), zeta).box
    assert tail_box[0].start == 1 and tail_box[1].stop == grid16.n - 1
    assert tail_box[2] == slice(3, box[2].stop)
    z = np.zeros((grid16.n,) * 3)
    empty = uq._UcpOperator(grid16, uq.UcpCoefficients(z, z, z, z, z, z), zeta)
    assert empty.box == (slice(0, 0),) * 3
    u = np.ones((2,) + (grid16.n,) * 3, dtype=complex)
    assert not np.any(empty.apply(u)) and not np.any(empty.apply_adjoint(u))


@pytest.mark.parametrize("tail", [False, True])
def test_ucp_report_equals_the_full_transform_oracle(grid16, pair16, tail, monkeypatch):
    coeffs = uq.ucp_coefficients(pair16)
    if tail:
        coeffs = _with_tail(grid16, coeffs)

    def reports():
        return [
            uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(mag), trials=2, seed=3)
            for mag in (8.0, 16.0, 32.0)
        ]

    fast = reports()
    monkeypatch.setattr(uq, "_UcpOperator", _FullTransformOperator)
    assert fast == reports()


@pytest.mark.parametrize("name", ["V", "c"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ucp_rejects_non_finite_coefficients(grid16, pair16, name, value):
    coeffs = uq.ucp_coefficients(pair16)
    field = getattr(coeffs, name).copy()
    field[8, 8, 8] = value
    bad = dataclasses.replace(coeffs, **{name: field})
    with pytest.raises(ValueError, match=f"coefficient {name} is not finite"):
        uq.ucp_contraction_check(grid16, bad, uq.null_covector(8.0), trials=1)


def test_ucp_report_round_trips_through_json(grid16, pair16):
    coeffs = uq.ucp_coefficients(pair16)
    rep = uq.ucp_contraction_check(grid16, coeffs, uq.null_covector(32.0), trials=1, seed=3)
    for f in dataclasses.fields(rep):
        assert type(getattr(rep, f.name)).__name__ == f.type, f.name  # plain, not numpy
    assert uq.UcpReport(**json.loads(json.dumps(dataclasses.asdict(rep)))) == rep
