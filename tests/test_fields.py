import numpy as np
import pytest

from cgolab import algebra, fields
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
        piece = ext_deriv(f.grade(l).hodge()).hodge().values
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
