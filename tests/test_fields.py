import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgolab import algebra, cgo, fields, media, presets
from cgolab.algebra import GradedForm
from cgolab.fields import (
    FormField,
    Grid,
    SpectralField,
    bourgain_norm,
    coderiv,
    conj_laplacian,
    d_plus_delta,
    ext_deriv,
    fft_forward,
    fft_inverse,
    hermitian_pairing,
    mollify,
    quadrature_pairing,
    random_band_limited,
    resolvent,
    resolvent_operator_norm,
    sobolev_norms,
    spectral_pairing,
    sym_coderiv,
    sym_product_field,
)

GRID = Grid(16, 2.0 * np.pi)


def admissible_zeta(s, k, grid=GRID):
    """<zeta, zeta> = -k^2 with real part s e1 and imaginary part along e2."""
    return np.array([s, 1j * np.sqrt(s**2 + k**2), 0.0], dtype=complex)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(12, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 1.0)
    with pytest.raises(ValueError):
        Grid(16, -1.0)


def test_fft_round_trip_and_constant():
    rng = np.random.default_rng(0)
    f = random_band_limited(GRID, rng, band=GRID.n // 2 - 1)
    g = fft_inverse(fft_forward(f))
    assert rel_err(g.values, f.values) < 1e-12

    c = FormField.constant(GRID, GradedForm.scalar(3.0 - 2.0j))
    C = fft_forward(c)
    assert C.coeffs[0, 0, 0, 0] == pytest.approx(3.0 - 2.0j)
    offzero = np.abs(C.coeffs).sum() - abs(C.coeffs[0, 0, 0, 0])
    assert offzero < 1e-10


def test_discrete_parseval():
    rng = np.random.default_rng(1)
    u = random_band_limited(GRID, rng, band=7)
    v = random_band_limited(GRID, rng, band=7)
    lhs = hermitian_pairing(u, v)
    rhs = spectral_pairing(u, v)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_ext_deriv_sine_mode():
    x1 = GRID.x[0]
    kappa = 2.0 * np.pi / GRID.length
    f = FormField.from_scalar(GRID, np.sin(kappa * x1))
    df = ext_deriv(f)
    expected = np.zeros_like(df.values)
    expected[1] = kappa * np.cos(kappa * x1)
    assert rel_err(df.values, expected) < 1e-12


def test_d_squared_and_delta_squared_vanish():
    rng = np.random.default_rng(2)
    f = random_band_limited(GRID, rng, band=5)
    assert ext_deriv(ext_deriv(f)).max_abs() < 1e-10
    assert coderiv(coderiv(f)).max_abs() < 1e-10


def test_coderiv_of_scalar_is_zero():
    rng = np.random.default_rng(3)
    f = random_band_limited(GRID, rng, band=5, grades=(0,))
    assert coderiv(f).max_abs() < 1e-12 * f.max_abs()


def test_adjointness_of_d_and_delta():
    rng = np.random.default_rng(4)
    u = random_band_limited(GRID, rng, band=5)
    v = random_band_limited(GRID, rng, band=5)
    lhs = quadrature_pairing(ext_deriv(u), v)
    rhs = quadrature_pairing(u, coderiv(v))
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_coderiv_matches_star_d_star():
    # delta u = (-1)^(n(l+1)+1) * d * u, which for n = 3 reads (-1)^l *d*
    rng = np.random.default_rng(5)
    f = random_band_limited(GRID, rng, band=5)
    lhs = coderiv(f)
    total = np.zeros_like(f.values)
    for l in range(4):
        sign = (-1.0) ** (3 * (l + 1) + 1)
        piece = ext_deriv(f.select(l).hodge()).hodge().values
        total += sign * piece
    assert rel_err(lhs.values, total) < 1e-12


def test_conjugated_ops_reduce_at_zero():
    rng = np.random.default_rng(6)
    f = random_band_limited(GRID, rng, band=5)
    zeta = np.zeros(3, dtype=complex)
    assert rel_err(ext_deriv(f, zeta).values, ext_deriv(f).values) < 1e-13
    assert rel_err(coderiv(f, zeta).values, coderiv(f).values) < 1e-13


def test_conjugated_d_squared_vanishes():
    rng = np.random.default_rng(7)
    zeta = admissible_zeta(3.0, 1.0)
    f = random_band_limited(GRID, rng, band=5)
    df = ext_deriv(ext_deriv(f, zeta), zeta)
    assert df.max_abs() < 1e-10 * max(f.max_abs(), 1.0) * (1 + np.sum(np.abs(zeta) ** 2))


def test_conjugated_laplacian_equals_composition():
    rng = np.random.default_rng(8)
    zeta = admissible_zeta(2.5, 1.0)
    f = random_band_limited(GRID, rng, band=5)
    comp = (
        coderiv(ext_deriv(f, zeta), zeta) + ext_deriv(coderiv(f, zeta), zeta)
    )
    direct = conj_laplacian(f, zeta)
    assert rel_err(comp.values, direct.values) < 1e-10


def test_conjugated_laplacian_examples():
    rng = np.random.default_rng(9)
    f = random_band_limited(GRID, rng, band=5)
    hodge_helmholtz = coderiv(ext_deriv(f)) + ext_deriv(coderiv(f))
    assert rel_err(conj_laplacian(f).values, hodge_helmholtz.values) < 1e-11

    zeta = admissible_zeta(2.0, 1.5)
    c = FormField.constant(GRID, GradedForm.covector([1.0, 2.0, 0.5]))
    expected = -np.dot(zeta, zeta) * c.values
    assert rel_err(conj_laplacian(c, zeta).values, expected) < 1e-12

    xi0 = (2.0 * np.pi / GRID.length) * np.array([2.0, -1.0, 3.0])
    wave = fields.plane_wave_scalar(GRID, xi0)
    f = FormField(GRID, np.zeros((8,) + wave.shape, dtype=complex))
    f.values[1] = wave
    symbol = np.dot(xi0, xi0) - 2j * np.dot(zeta, xi0) - np.dot(zeta, zeta)
    out = conj_laplacian(f, zeta)
    assert rel_err(out.values[1], symbol * wave) < 1e-12


def test_resolvent_inverts_off_clamp_set():
    rng = np.random.default_rng(10)
    k = 1.0
    zeta = admissible_zeta(3.3, k)
    f = random_band_limited(GRID, rng, band=5, zero_mean=True)
    g = conj_laplacian(f, zeta) - FormField(GRID, k**2 * f.values)
    back, report = resolvent(g, zeta, k)
    # kernel of the symbol: xi = 0 plus the 7 pure-Nyquist index
    # combinations where the symmetrized derivative symbol vanishes
    assert report.clamped == 8
    assert rel_err(back.values, f.values) < 1e-10
    # two-sided: apply operator after resolvent
    h, _ = resolvent(f, zeta, k)
    forward = conj_laplacian(h, zeta) - FormField(GRID, k**2 * h.values)
    assert rel_err(forward.values, f.values) < 1e-10


def test_resolvent_clamps_zero_mode():
    k = 1.0
    zeta = admissible_zeta(2.0, k)
    c = FormField.constant(GRID, GradedForm.scalar(1.0))
    out, report = resolvent(c, zeta, k)
    assert report.clamped >= 1
    assert out.max_abs() < 1e-14


def test_resolvent_operator_norm_is_one():
    zeta = admissible_zeta(3.0, 1.0)
    assert resolvent_operator_norm(GRID, zeta) == 1.0


def test_resolvent_requires_admissible_zeta():
    with pytest.raises(ValueError):
        resolvent(FormField.zero(GRID), np.array([1.0, 0.0, 0.0]), 1.0)


def _pre_change_symbol(grid, zeta):
    """The clamp as each caller spelled it before ClampedSymbol: p, the
    floored |p| and the mask |p| < floor."""
    floor = fields.default_floor(grid)
    p = fields.helmholtz_symbol(grid, zeta)
    absp = np.abs(p)
    mask = absp < floor
    return p, np.maximum(absp, floor), mask


def test_clamped_symbol_is_bit_equal_to_the_pre_change_expressions():
    rng = np.random.default_rng(12)
    k = 1.0
    zeta = admissible_zeta(2.9, k)
    f = random_band_limited(GRID, rng, band=GRID.n // 2 - 1)
    F = fft_forward(f)
    p, absp, mask = _pre_change_symbol(GRID, zeta)

    out = F.coeffs / np.where(mask, 1.0, p)
    out[:, mask] = 0.0
    got, report = resolvent(f, zeta, k)
    assert np.array_equal(got.values, fft_inverse(SpectralField(GRID, out)).values)
    assert report.clamped == int(np.sum(mask))

    for b in (0.5, -0.5):
        w = absp ** (2.0 * b)
        w[mask] = 0.0
        want = float(np.sqrt(GRID.volume * np.sum(w * np.sum(np.abs(F.coeffs) ** 2, axis=0))))
        assert bourgain_norm(f, zeta, b) == want
        assert np.array_equal(fields.bourgain_weight(GRID, zeta, b), w)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_resolvent_reports_against_the_solver_threshold(n):
    grid = Grid(n, 2.0 * np.pi)
    dm0 = media.derive_background(grid, omega=1.0)
    rho = np.array([1.0, 0.0, 0.0])
    g = cgo.make_geometry(rho, *cgo.orthonormal_frame(rho, 0.7), 8.0, dm0.k, grid=grid)
    sol = cgo.solve_cgo(dm0, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    _, report = resolvent(FormField.zero(grid), g.zeta1, dm0.k)
    assert report.threshold == sol.clamp.threshold
    assert report.clamped == sol.clamp.clamped


def test_bourgain_norm_zero_field_and_preconditions():
    zeta = admissible_zeta(2.0, 1.0)
    assert bourgain_norm(FormField.zero(GRID), zeta, 0.5) == 0.0
    with pytest.raises(ValueError):
        bourgain_norm(FormField.zero(GRID), zeta, 0.25)


def test_bourgain_duality_bound():
    rng = np.random.default_rng(11)
    zeta = admissible_zeta(2.7, 1.0)
    for _ in range(10):
        f = random_band_limited(GRID, rng, band=6, zero_mean=True)
        g = random_band_limited(GRID, rng, band=6, zero_mean=True)
        lhs = abs(spectral_pairing(f, g))
        rhs = bourgain_norm(f, zeta, 0.5) * bourgain_norm(g, zeta, -0.5)
        assert lhs <= rhs * (1 + 1e-12)


def test_bourgain_duality_equality_for_aligned_mode():
    zeta = admissible_zeta(2.7, 1.0)
    coeffs = np.zeros((8, GRID.n, GRID.n, GRID.n), dtype=complex)
    coeffs[2, 3, 1, 0] = 1.5 - 0.5j
    f = fft_inverse(SpectralField(GRID, coeffs))
    lhs = abs(spectral_pairing(f, f))
    rhs = bourgain_norm(f, zeta, 0.5) * bourgain_norm(f, zeta, -0.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bourgain_norm_single_mode_against_direct_sum():
    # direct summation oracle on an 8^3 grid
    grid = Grid(8, 2.0 * np.pi)
    zeta = admissible_zeta(2.0, 1.0, grid)
    idx = (3, 2, 1)
    coeffs = np.zeros((8, 8, 8, 8), dtype=complex)
    coeffs[1][idx] = 2.0 + 1.0j
    f = fft_inverse(SpectralField(grid, coeffs))
    for b in (0.5, -0.5):
        got = bourgain_norm(f, zeta, b)
        # oracle: explicit lattice loop
        total = 0.0
        for i in range(8):
            for j in range(8):
                for kk in range(8):
                    ivec = np.array(
                        [np.fft.fftfreq(8)[i] * 8, np.fft.fftfreq(8)[j] * 8, np.fft.fftfreq(8)[kk] * 8]
                    )
                    xi = ivec * (2 * np.pi / grid.length)
                    p = np.dot(xi, xi) - 2j * np.dot(zeta, xi)
                    w = max(abs(p), fields.default_floor(grid)) ** (2 * b)
                    if (i, j, kk) == (0, 0, 0):
                        w = 0.0
                    total += w * abs(coeffs[1][i, j, kk]) ** 2
        expected = np.sqrt(grid.volume * total)
        assert got == pytest.approx(expected, rel=1e-12)


def test_sobolev_norms_constant_and_plane_wave():
    c = FormField.constant(GRID, GradedForm.scalar(2.0 + 1.0j))
    l2, hm1 = sobolev_norms(c)
    expected = abs(2.0 + 1.0j) * GRID.length ** 1.5
    assert l2 == pytest.approx(expected, rel=1e-12)
    assert hm1 == pytest.approx(expected, rel=1e-12)

    xi0 = (2.0 * np.pi / GRID.length) * np.array([5.0, 0.0, 0.0])
    wave = fields.plane_wave_scalar(GRID, xi0)
    f = FormField(GRID, np.zeros((8, GRID.n, GRID.n, GRID.n), dtype=complex))
    f.values[1] = wave
    l2, hm1 = sobolev_norms(f)
    assert hm1 == pytest.approx(l2 / np.sqrt(1.0 + np.dot(xi0, xi0)), rel=1e-12)


def test_local_regularity_identity():
    # ||phi||_L2^2 = ||phi||_H-1^2 + ||(d+delta) sum (-1)^l phi^l||_H-1^2
    rng = np.random.default_rng(12)
    for _ in range(5):
        phi = random_band_limited(GRID, rng, band=7)
        l2, hm1 = sobolev_norms(phi)
        _, hm1_d = sobolev_norms(d_plus_delta(phi.alternate()))
        lhs = l2**2
        rhs = hm1**2 + hm1_d**2
        assert abs(lhs - rhs) / lhs < 1e-10


def test_mollify_limits():
    rng = np.random.default_rng(13)
    f = random_band_limited(GRID, rng, band=4)
    g = mollify(f, 1e-6)
    assert rel_err(g.values, f.values) < 1e-10

    c = FormField.constant(GRID, GradedForm.scalar(1.0 - 1.0j))
    for h in (1.0, 0.1, 3.0):
        assert rel_err(mollify(c, h).values, c.values) < 1e-13


def fd_gradient_sup(f):
    """Finite-difference oracle for the sup norm of the gradient."""
    worst = 0.0
    dx = f.grid.spacing
    for axis in range(3):
        diff = (np.roll(f.values, -1, axis=1 + axis) - np.roll(f.values, 1, axis=1 + axis)) / (
            2 * dx
        )
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def test_mollify_gradient_scaling():
    rng = np.random.default_rng(14)
    f = random_band_limited(GRID, rng, band=GRID.n // 2 - 1)
    sup = f.max_abs()
    rates = []
    for h in (1.0, 0.5, 0.25):
        g = mollify(f, h)
        rates.append(fd_gradient_sup(g) * h / sup)
    # gradient grows as the scale shrinks, with h * grad / sup bounded
    assert rates[0] <= rates[1] * 1.05 or rates[1] <= rates[2] * 1.05
    assert max(rates) < 5.0


def test_sym_coderiv_constant_and_sine():
    t = np.zeros((6, GRID.n, GRID.n, GRID.n), dtype=complex)
    t[0] = 1.0
    assert sym_coderiv(GRID, t).max_abs() < 1e-14

    kappa = 2.0 * np.pi / GRID.length
    t[0] = np.sin(kappa * GRID.x[0])
    out = sym_coderiv(GRID, t)
    expected = np.zeros_like(out.values)
    expected[1] = -2.0 * kappa * np.cos(kappa * GRID.x[0])
    assert rel_err(out.values, expected) < 1e-12


def test_symmetric_tensor_identity():
    # u v dv + v v du + (delta u) v v + (delta v) v u = d<u,v> + D*(u . v)
    rng = np.random.default_rng(15)
    for _ in range(5):
        u = random_band_limited(GRID, rng, band=2, grades=(1,))
        v = random_band_limited(GRID, rng, band=2, grades=(1,))
        lhs = (
            u.vee(ext_deriv(v))
            + v.vee(ext_deriv(u))
            + coderiv(u).vee(v)
            + coderiv(v).vee(u)
        )
        inner_uv = FormField.from_scalar(GRID, u.inner(v))
        rhs = ext_deriv(inner_uv) + sym_coderiv(GRID, sym_product_field(u, v))
        assert rel_err(lhs.values, rhs.values) < 1e-10


@pytest.mark.parametrize("n", [8, 16, 32])
def test_outside_subbox_is_the_inline_mask(n):
    grid = Grid(n, 2.0 * np.pi)
    inline = np.any(np.abs(grid.x - grid.length / 2) > grid.length / 4, axis=0)
    assert np.array_equal(grid.outside_subbox, inline)


def test_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(16)
    f = random_band_limited(GRID, rng, band=5)
    binpath = tmp_path / "field.bin"
    fields.save_field_bin(f, binpath)
    g = fields.load_field_bin(binpath)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_snapshot_payload_length_is_checked(tmp_path):
    binpath = tmp_path / "field.bin"
    fields.save_field_bin(FormField.zero(GRID), binpath)
    data = binpath.read_bytes()
    expected = 8 * 16**3 * 16
    for payload, actual in ((data[:-16], expected - 16), (data + bytes(16), expected + 16)):
        binpath.write_bytes(payload)
        with pytest.raises(ValueError, match=f"{actual} bytes, expected {expected}"):
            fields.load_field_bin(binpath)


def test_snapshot_magic_and_version_are_checked(tmp_path):
    binpath = tmp_path / "field.bin"
    fields.save_field_bin(FormField.zero(GRID), binpath)
    data = binpath.read_bytes()
    version = (2).to_bytes(4, "little")  # the header's version word follows the magic
    for payload, message in ((b"XXXX" + data[4:], "bad magic b'XXXX'"),
                             (data[:4] + version + data[8:], r"unsupported snapshot layout \(version 2")):
        binpath.write_bytes(payload)
        with pytest.raises(ValueError, match=message):
            fields.load_field_bin(binpath)


@pytest.mark.parametrize("n", [16, 32])
def test_fft_of_a_grade_block_is_bit_equal_to_its_rows(n):
    # the solver transforms only the blades of its amplitude's grade block
    # and relies on getting the same bits as the 8-blade transform
    grid = Grid(n, 2.0 * np.pi)
    values = random_band_limited(grid, np.random.default_rng(n), band=n // 2 - 1).values
    forward, inverse = fields._forward(values), fields._inverse(values)
    for blk in (slice(0, 4), slice(4, 8)):
        assert np.array_equal(fields._forward(values[blk]), forward[blk])
        assert np.array_equal(fields._inverse(values[blk]), inverse[blk])


def _oracle_forward(f):
    """fft_forward as one 8-blade transform, with no live-blade skip."""
    return SpectralField(f.grid, fields._forward(f.values), check=False)


def _oracle_inverse(F):
    return FormField(F.grid, fields._inverse(F.coeffs), check=False)


def _blade_cases(grid):
    """Fields with 0, 1, 3 and 8 live blades, one live blade that is zero at
    the origin only, and fields with blades of -0.0 (bitwise not +0.0)."""
    n = grid.n
    dense = random_band_limited(grid, np.random.default_rng(3), band=n // 2 - 1).values
    cases = {"zero": np.zeros_like(dense), "dense": dense}
    for name, live in (("scalar", [0]), ("covector", [1, 2, 3])):
        values = np.zeros_like(dense)
        values[live] = dense[live]
        cases[name] = values
    hollow = np.zeros_like(dense)
    hollow[5] = dense[5]
    hollow[5, 0, 0, 0] = 0.0
    cases["zero_at_origin"] = hollow
    for name, z in (("neg_zero", complex(-0.0, -0.0)), ("neg_zero_real", complex(-0.0, 0.0))):
        values = cases["covector"].copy()
        values[6] = z
        cases[name] = values
    cases["negated_scalar"] = -cases["scalar"]  # a -0.0 in every other blade
    return cases


@pytest.mark.parametrize("n", [8, 16])
def test_fft_pair_skips_only_exactly_zero_blades(n):
    grid = Grid(n, 2.0 * np.pi)
    for name, values in _blade_cases(grid).items():
        f = FormField(grid, values, check=False)
        F = SpectralField(grid, values, check=False)
        # byte equality: a -0.0 written by repr would change a CSV byte
        assert fft_forward(f).coeffs.tobytes() == _oracle_forward(f).coeffs.tobytes(), name
        assert fft_inverse(F).values.tobytes() == _oracle_inverse(F).values.tobytes(), name
    cases = _blade_cases(grid)
    assert fields._live_blades(cases["zero"]) == []
    assert fields._live_blades(cases["scalar"]) == [0]
    assert fields._live_blades(cases["covector"]) == [1, 2, 3]
    assert fields._live_blades(cases["dense"]) == list(range(8))
    assert fields._live_blades(cases["zero_at_origin"]) == [5]
    assert fields._live_blades(cases["neg_zero"]) == [1, 2, 3, 6]


def test_derive_is_bit_equal_to_a_derive_on_8_blade_transforms(monkeypatch):
    grid = Grid(16, 2.0 * np.pi)
    medium = presets.perturbed_medium(grid)
    fast = media.derive(medium)
    monkeypatch.setattr(fields, "fft_forward", _oracle_forward)
    monkeypatch.setattr(fields, "fft_inverse", _oracle_inverse)
    monkeypatch.setattr(fields, "_live_grades", lambda a: (0, 1, 2, 3))  # products over every grade
    slow = media.derive(medium)
    for name, value in vars(slow).items():
        if isinstance(value, FormField):
            value, other = value.values, getattr(fast, name).values
        elif isinstance(value, np.ndarray):
            other = getattr(fast, name)
        else:
            continue
        assert value.tobytes() == other.tobytes(), name
    assert slow.grade_multipliers.tobytes() == fast.grade_multipliers.tobytes()


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("zeta", [None, np.array([1.0, 2.0j, 0.5])])
def test_derivatives_skip_only_the_grades_of_dead_blades(n, zeta):
    # a dead blade only adds zeros, and a sum that starts at +0.0 keeps its bits
    grid = Grid(n, 2.0 * np.pi)
    c = fields._spectral_covector(grid, zeta)
    for name, values in _blade_cases(grid).items():
        f = FormField(grid, values, check=False)
        d_all = fields._spectral_map(f, lambda F: algebra.wedge_cov(c, F))
        delta_all = fields._spectral_map(f, lambda F: algebra.vee_cov(c, algebra.alternate(F)))
        assert ext_deriv(f, zeta).values.tobytes() == d_all.values.tobytes(), name
        assert coderiv(f, zeta).values.tobytes() == delta_all.values.tobytes(), name
    cases = _blade_cases(grid)
    assert fields._live_grades(cases["zero"]) == ()
    assert fields._live_grades(cases["scalar"]) == (0,)
    assert fields._live_grades(cases["neg_zero"]) == (1, 2)


# ---------------------------------------------------------------------------
# transforms pruned to a box
# ---------------------------------------------------------------------------

def _boxes(n):
    return {
        "interior": (slice(3, n - 4), slice(5, n - 2), slice(2, 7)),
        "both ends": (slice(0, 3), slice(n - 2, n), slice(0, n // 2)),
        "full axis": (slice(0, n), slice(4, 9), slice(1, n - 1)),
        "full box": (slice(0, n),) * 3,
        "point": (slice(5, 6), slice(n - 1, n), slice(0, 1)),
        "empty": (slice(0, 0),) * 3,
    }


@pytest.mark.parametrize("n", [12, 16, 32])  # 12: 1/n is inexact, so where it is applied shows
def test_box_transforms_are_byte_equal_to_the_full_transforms(n):
    rng = np.random.default_rng(n)
    shape = (2, n, n, n)
    for name, box in _boxes(n).items():
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = fields._inverse(a)[(Ellipsis,) + box]
        got = fields._inverse(a, box=box)
        assert got.shape == full.shape, name
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(full).tobytes(), name
        z = rng.standard_normal(full.shape) + 1j * rng.standard_normal(full.shape)
        embedded = np.zeros(shape, dtype=complex)
        embedded[(Ellipsis,) + box] = z
        assert fields._forward_box(z, box, n).tobytes() == fields._forward(embedded).tobytes(), name


def test_only_fields_imports_the_fft_backend():
    # no module imports scipy, and fields.py alone calls numpy.fft: its
    # _forward/_inverse and the box transforms are the one FFT entry point
    offenders = []
    for path in sorted((Path(fields.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "fft":
                names = ["numpy.fft"]
            else:
                continue
            scipy = any(name == "scipy" or name.startswith("scipy.") for name in names)
            fft = any(name == "numpy.fft" or name.startswith("numpy.fft.") for name in names)
            if scipy or (fft and path.name != "fields.py"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_importing_the_library_loads_no_scipy():
    code = (
        "import sys; import cgolab, cgolab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(fields.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the transform pair against scipy.fft as an oracle
# ---------------------------------------------------------------------------

def _oracle_cases(n):
    """Dense random blades, and the same with blades of -0.0 (all, real
    part only), a blade of +0.0 and a blade with one -0.0 sample."""
    rng = np.random.default_rng(n)
    shape = (8, n, n, n)
    dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    signed = dense.copy()
    signed[2] = complex(-0.0, -0.0)
    signed[3].real = -0.0
    signed[4] = 0.0
    signed[5, 0, 1, 2] = complex(-0.0, 0.0)
    return dense, signed


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_fft_pair_is_bit_equal_to_scipy(n):
    sfft = pytest.importorskip("scipy.fft")
    axes, n3 = (-3, -2, -1), n**3
    dense, signed = _oracle_cases(n)
    for lead in (dense, dense[0], dense[2:4]):  # leading blade axes: 8, none, 2
        assert fields._forward(lead).tobytes() == (sfft.fftn(lead, axes=axes) / n3).tobytes()
        assert fields._inverse(lead).tobytes() == sfft.ifftn(lead * n3, axes=axes).tobytes()
    # Dividing by n^3 is a complex division, which may flip the sign of a
    # zero part; scipy's own 1/n^3 scales each part by a real factor and
    # keeps it, as each axis of the pair does with its 1/n.
    assert (
        fields._forward(signed).tobytes()
        == sfft.fftn(signed, axes=axes, norm="forward").tobytes()
    )
    assert (
        fields._inverse(signed).tobytes()
        == sfft.ifftn(signed, axes=axes, norm="forward").tobytes()
    )
