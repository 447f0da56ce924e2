import ast
import os
import re
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cgolab
from cgolab import algebra, cgo, fields, media
from cgolab.fields import (
    ClampedSymbol,
    FormField,
    Grid,
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
    resolvent_operator_norm,
    sobolev_norms,
    spectral_pairing,
    sym_coderiv,
)
from conftest import bits, blade, constant, coordinates, derive_background, traced_peak

GRID = Grid(16, 2.0 * np.pi)
GRID32 = Grid(32, 2.0 * np.pi)


def admissible_zeta(s, k):
    """<zeta, zeta> = -k^2 with real part s e1 and imaginary part along e2."""
    return np.array([s, 1j * np.sqrt(s**2 + k**2), 0.0], dtype=complex)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(12, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 1.0)
    for length in (-1.0, 0.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"grid.length must be positive and finite, got {length}"):
            Grid(16, length)
    # the volume L^3 or the cell volume (L/n)^3 would leave the float range
    for length in (1e300, 1e-300, 6e102):
        with pytest.raises(ValueError, match=re.escape(f"grid.length {length} puts the volume or cell volume")):
            Grid(8, length)
    assert Grid(8, 5e102).volume == 5e102**3 and Grid(8, 1e-100).cell_volume == (1e-100 / 8) ** 3
    for shape in [(6, 16, 16, 16), (8, 16, 16, 8), (8,)]:
        with pytest.raises(ValueError, match=f"field values must have shape .* got {re.escape(str(shape))}"):
            FormField(GRID, np.zeros(shape, dtype=complex))


def test_fft_round_trip_and_constant():
    rng = np.random.default_rng(0)
    f = random_band_limited(GRID, rng, band=GRID.n // 2 - 1)
    g = fft_inverse(fft_forward(f))
    assert rel_err(g.values, f.values) < 1e-12

    c = constant(GRID, blade((), 3.0 - 2.0j))
    C = fft_forward(c)
    assert C.values[0, 0, 0, 0] == pytest.approx(3.0 - 2.0j)
    offzero = np.abs(C.values).sum() - abs(C.values[0, 0, 0, 0])
    assert offzero < 1e-10


def test_discrete_parseval():
    rng = np.random.default_rng(1)
    u = random_band_limited(GRID, rng, band=7)
    v = random_band_limited(GRID, rng, band=7)
    lhs = hermitian_pairing(u, v)
    rhs = spectral_pairing(u, v)
    assert abs(lhs - rhs) / abs(lhs) < 1e-12


@pytest.mark.parametrize("n", [8, 16])
def test_both_sides_of_parseval_keep_one_operand_order_at_every_size(n):
    # an 8-blade field is 64 KiB at 8^3 and 512 KiB at 16^3, on either side of
    # the 256 KiB from which numpy forms a product in its temporary operand;
    # np.multiply reuses no temporary, so its operand order is the written one
    grid = Grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(3)
    u, v = (random_band_limited(grid, rng, band=n // 2 - 1) for _ in range(2))
    U, V = fft_forward(u).values, fft_forward(v).values
    want = (
        complex(grid.cell_volume * np.sum(np.multiply(np.conj(v.values), u.values))),
        complex(grid.volume * np.sum(np.multiply(np.conj(V), U))),
    )
    assert np.array_equal(bits([hermitian_pairing(u, v), spectral_pairing(u, v)]), bits(want))


def test_ext_deriv_sine_mode():
    x1 = coordinates(GRID)[0]
    kappa = 2.0 * np.pi / GRID.length
    f = FormField.from_scalar(GRID, np.sin(kappa * x1))
    df = ext_deriv(f)
    expected = np.zeros_like(df.values)
    expected[1] = kappa * np.cos(kappa * x1)
    assert rel_err(df.values, expected) < 1e-12


def test_d_squared_and_delta_squared_vanish():
    rng = np.random.default_rng(2)
    f = random_band_limited(GRID, rng, band=5)
    assert np.max(algebra.form_abs(ext_deriv(ext_deriv(f)).values)) < 1e-10
    assert np.max(algebra.form_abs(coderiv(coderiv(f)).values)) < 1e-10


def test_coderiv_of_scalar_is_zero():
    rng = np.random.default_rng(3)
    f = random_band_limited(GRID, rng, band=5, grades=(0,))
    assert np.max(algebra.form_abs(coderiv(f).values)) < 1e-12 * np.max(algebra.form_abs(f.values))


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
        star = FormField(GRID, algebra.hodge(algebra.grade_select(f.values, l)))
        piece = algebra.hodge(ext_deriv(star).values)
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
    bound = 1e-10 * max(np.max(algebra.form_abs(f.values)), 1.0) * (1 + np.sum(np.abs(zeta) ** 2))
    assert np.max(algebra.form_abs(df.values)) < bound


def test_conjugated_laplacian_equals_composition():
    rng = np.random.default_rng(8)
    zeta = admissible_zeta(2.5, 1.0)
    f = random_band_limited(GRID, rng, band=5)
    comp = coderiv(ext_deriv(f, zeta), zeta).values + ext_deriv(coderiv(f, zeta), zeta).values
    direct = conj_laplacian(f, zeta)
    assert rel_err(comp, direct.values) < 1e-10


def test_conjugated_laplacian_examples():
    rng = np.random.default_rng(9)
    f = random_band_limited(GRID, rng, band=5)
    hodge_helmholtz = coderiv(ext_deriv(f)).values + ext_deriv(coderiv(f)).values
    assert rel_err(conj_laplacian(f).values, hodge_helmholtz) < 1e-11

    zeta = admissible_zeta(2.0, 1.5)
    c = constant(GRID, algebra.one_form([1.0, 2.0, 0.5]))
    expected = -np.dot(zeta, zeta) * c.values
    assert rel_err(conj_laplacian(c, zeta).values, expected) < 1e-12

    xi0 = (2.0 * np.pi / GRID.length) * np.array([2.0, -1.0, 3.0])
    wave = fields.plane_wave_scalar(GRID, xi0)
    f = FormField(GRID, np.zeros((8,) + wave.shape, dtype=complex))
    f.values[1] = wave
    symbol = np.dot(xi0, xi0) - 2j * np.dot(zeta, xi0) - np.dot(zeta, zeta)
    out = conj_laplacian(f, zeta)
    assert rel_err(out.values[1], symbol * wave) < 1e-12


# the spectra of the maps as written before each map overwrote its forward
# spectrum: new arrays for the alternation, the wedge and vee images and their sum
PRE_CHANGE_SPECTRA = {
    "ext_deriv": lambda c, F: algebra.wedge_cov(c, F),
    "coderiv": lambda c, F: algebra.vee_cov(c, algebra.alternate(F)),
    "d_plus_delta": lambda c, F: algebra.wedge_cov(c, F) + algebra.vee_cov(c, algebra.alternate(F)),
    # d + delta of an alternated copy of the field, as first_order and the calculus check formed it:
    # the copy transformed, then the map's own spectrum
    "d_plus_delta of the alternated copy": lambda c, f, offset: PRE_CHANGE_SPECTRA["d_plus_delta"](
        c, fft_forward(FormField(f.grid, algebra.alternate(f.values, offset))).values),
}


def signed_zero_fields(seed):
    """A random field, and a copy with -0.0 in whole blades and in half the points of one."""
    f = random_band_limited(GRID, np.random.default_rng(seed), band=GRID.n // 2 - 1)
    signed = f.values.copy()
    signed[1::2] = complex(-0.0, -0.0)
    signed[0, ::2] = complex(-0.0, 0.0)
    return f, FormField(GRID, signed)


SPECTRAL_MAPS = {
    "ext_deriv": ext_deriv,
    "coderiv": coderiv,
    # d + delta of f itself: offset 0 scales f's alternation back to f
    "d_plus_delta": lambda f, zeta: d_plus_delta(FormField(f.grid, algebra.alternate(f.values)), zeta, 0),
}


@pytest.mark.parametrize("zeta", [None, admissible_zeta(2.5, 1.0)], ids=["plain", "zeta"])
@pytest.mark.parametrize("name", sorted(SPECTRAL_MAPS))
def test_spectral_maps_are_bit_equal_to_the_pre_change_expressions(name, zeta):
    c = fields._spectral_covector(GRID, zeta)
    for f in signed_zero_fields(36):
        before = f.values.copy()
        F = fft_forward(f).values
        want = fft_inverse(FormField(GRID, PRE_CHANGE_SPECTRA[name](c, F)))
        assert np.array_equal(bits(SPECTRAL_MAPS[name](f, zeta).values), bits(want.values))
        assert np.array_equal(bits(f.values), bits(before))  # only the spectrum is overwritten


@pytest.mark.parametrize("zeta", [None, admissible_zeta(2.5, 1.0)], ids=["plain", "zeta"])
@pytest.mark.parametrize("offset", [0, 1])
def test_d_plus_delta_of_an_alternation_is_bit_equal_to_the_alternated_copy_route(offset, zeta):
    c = fields._spectral_covector(GRID, zeta)
    for f in signed_zero_fields(38):
        before = f.values.copy()
        spectrum = PRE_CHANGE_SPECTRA["d_plus_delta of the alternated copy"](c, f, offset)
        want = fft_inverse(FormField(GRID, spectrum))
        assert np.array_equal(bits(d_plus_delta(f, zeta, offset).values), bits(want.values))
        assert np.array_equal(bits(f.values), bits(before))


def pre_change_sym_coderiv(grid, tensor):
    """sym_coderiv as first written: the full (3, 3) tensor spectrum and one einsum."""
    that = fields._forward(tensor)
    full = np.empty((3, 3) + tensor.shape[1:], dtype=complex)
    for idx, (j, k) in enumerate(algebra.SYM_PAIRS):
        full[j, k] = full[k, j] = that[idx]
    out_hat = -2.0 * np.einsum("j...,jk...->k...", 1j * grid.xi_op, full)
    return fields._inverse(out_hat, out_hat)


def test_sym_coderiv_is_bit_equal_to_the_pre_change_expression():
    rng = np.random.default_rng(39)
    shape = (6,) + (GRID.n,) * 3
    for _ in range(4):
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t[rng.random(shape) < 0.2] *= 0.0  # signed zeros, in either part
        t.imag[rng.random(shape) < 0.2] = -0.0
        t[rng.integers(6)] = complex(-0.0, -0.0)  # and one whole component
        assert np.array_equal(bits(sym_coderiv(GRID, t)), bits(pre_change_sym_coderiv(GRID, t)))
    for zero in (complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)):  # zero tensors keep their signs
        t = np.full(shape, zero)
        assert np.array_equal(bits(sym_coderiv(GRID, t)), bits(pre_change_sym_coderiv(GRID, t)))


def test_multiplier_maps_are_bit_equal_to_the_pre_change_expressions():
    zeta = admissible_zeta(2.5, 1.0)
    z = np.asarray(zeta)
    for f in signed_zero_fields(37):
        F = fft_forward(f).values
        for got, m in [
            (conj_laplacian(f), GRID.xi_op_sq.astype(complex)),
            (conj_laplacian(f, zeta), fields.helmholtz_symbol(GRID, z) - np.dot(z, z)),
            (mollify(f, 0.3), np.exp(-0.5 * (0.3**2) * GRID.xi_sq)),
        ]:
            want = fft_inverse(FormField(GRID, F * m))
            assert np.array_equal(bits(got.values), bits(want.values))


@pytest.mark.parametrize("op", [conj_laplacian, lambda f: conj_laplacian(f, admissible_zeta(2.5, 1.0)),
                                lambda f: mollify(f, 0.3)], ids=["conj_laplacian", "conj_laplacian zeta", "mollify"])
def test_multiplier_maps_hold_one_spectrum(op):
    # the spectrum is transformed back in place: with the multiplier, about 1.1 fields above the input
    f = random_band_limited(GRID32, np.random.default_rng(40), band=10)
    op(f)  # forms the grid's cached symbols
    _, peak = traced_peak(op, f)
    assert peak < 1.5 * f.values.nbytes


def resolve(sym, f):
    """The clamped resolvent of f: its transform divided by the symbol, transformed back."""
    return fft_inverse(FormField(f.grid, sym.inverse(fft_forward(f).values)))


def test_resolvent_inverts_off_clamp_set():
    rng = np.random.default_rng(10)
    k = 1.0
    zeta = admissible_zeta(3.3, k)
    sym = ClampedSymbol(GRID, zeta)
    f = random_band_limited(GRID, rng, band=5, zero_mean=True)
    g = FormField(GRID, conj_laplacian(f, zeta).values - k**2 * f.values)
    back = resolve(sym, g)
    # kernel of the symbol: xi = 0 plus the 7 pure-Nyquist index
    # combinations where the symmetrized derivative symbol vanishes
    assert sym.report().clamped == 8
    assert rel_err(back.values, f.values) < 1e-10
    # two-sided: apply operator after resolvent
    h = resolve(sym, f)
    forward = conj_laplacian(h, zeta).values - k**2 * h.values
    assert rel_err(forward, f.values) < 1e-10


def test_resolvent_clamps_zero_mode():
    k = 1.0
    zeta = admissible_zeta(2.0, k)
    sym = ClampedSymbol(GRID, zeta)
    out = resolve(sym, constant(GRID, blade((), 1.0)))
    assert sym.report().clamped >= 1
    assert np.max(algebra.form_abs(out.values)) < 1e-14


def test_resolvent_operator_norm_is_one(monkeypatch):
    zeta = admissible_zeta(3.0, 1.0)
    assert abs(resolvent_operator_norm(GRID, zeta) - 1.0) <= 1e-14

    def over_p_squared(self, coeffs, out=None):  # a wrong resolvent: coeffs / |p|^2
        out = np.divide(coeffs, np.abs(self.divisor) ** 2, out=out)
        out[..., self.mask] = 0.0
        return out
    monkeypatch.setattr(ClampedSymbol, "inverse", over_p_squared)
    assert abs(resolvent_operator_norm(GRID, zeta) - 1.0) > 1e-14


def test_resolvent_requires_admissible_zeta():
    dm0 = derive_background(GRID, omega=1.0)  # k = 1, and <zeta, zeta> = 1
    with pytest.raises(ValueError, match=r"is not -k\^2"):
        cgo.solve_cgo(dm0, np.array([1.0, 0.0, 0.0]), blade((), 1.0))


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

    out = F.values / np.where(mask, 1.0, p)
    out[:, mask] = 0.0
    sym = ClampedSymbol(GRID, zeta)
    assert np.array_equal(resolve(sym, f).values, fft_inverse(FormField(GRID, out)).values)
    assert sym.report().clamped == int(np.sum(mask))

    for b in (0.5, -0.5):
        w = absp ** (2.0 * b)
        w[mask] = 0.0
        want = float(np.sqrt(GRID.volume * np.sum(w * np.sum(np.abs(F.values) ** 2, axis=0))))
        assert sym.norm(F.values, b) == want
        assert np.array_equal(sym.weight(b), w)
        assert np.array_equal(fields.bourgain_weight(GRID, zeta, b), w)


@pytest.mark.parametrize("n, slab_points, slabs",
                         [(16, fields.SLAB_POINTS, 1), (16, 2**9, 8), (64, fields.SLAB_POINTS, 8)],
                         ids=["16-whole", "16-split", "64"])
def test_the_weighted_norm_of_an_array_or_of_its_slabs_keeps_the_bits_of_one_sum(monkeypatch, n, slab_points, slabs):
    # the split solve's norm, of the components that a function yields slab by slab, is ClampedSymbol.norm
    monkeypatch.setattr(fields, "SLAB_POINTS", slab_points)
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    assert len(fields._split(n)[1]) == slabs
    grid, rng = Grid(n, 2.0 * np.pi), np.random.default_rng(38)
    coeffs = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))  # one grade block
    sym = ClampedSymbol(grid, admissible_zeta(2.9, 1.0))
    for b in (0.5, -0.5):
        whole = fields._weighted_sq(sym.weight(b), coeffs, np.empty((n,) * 3))
        want = float(np.sqrt(grid.volume * np.sum(whole))).hex()
        assert sym.norm(coeffs, b).hex() == want
        assert sym.norm(lambda rows: coeffs[:, rows], b).hex() == want
        assert sym.norm(lambda rows: (c for c in coeffs[:, rows]), b).hex() == want  # as a step yields them


@pytest.mark.parametrize("n", [8, 16, 32])
def test_resolvent_reports_against_the_solver_threshold(n):
    grid = Grid(n, 2.0 * np.pi)
    dm0 = derive_background(grid, omega=1.0)
    rho = np.array([1.0, 0.0, 0.0])
    g = cgo.make_geometry(rho, *cgo.orthonormal_frame(rho, 0.7), 8.0, dm0.k, grid=grid)
    sol = cgo.solve_cgo(dm0, g.zeta1, cgo.amplitude_a(g, cgo.Polarization.E))
    report = ClampedSymbol(grid, g.zeta1).report()
    assert report.threshold == sol.clamp.threshold
    assert report.clamped == sol.clamp.clamped


def test_bourgain_norm_zero_field_and_preconditions():
    sym = ClampedSymbol(GRID, admissible_zeta(2.0, 1.0))
    zero = fft_forward(FormField.zero(GRID)).values
    assert sym.norm(zero, 0.5) == 0.0
    with pytest.raises(ValueError):
        sym.norm(zero, 0.25)
    for b in (0.25, 0.0, 1.0, -1.0):
        with pytest.raises(ValueError, match=f"b must be \\+1/2 or -1/2, got {b}"):
            sym.weight(b)


def test_bourgain_duality_bound():
    rng = np.random.default_rng(11)
    sym = ClampedSymbol(GRID, admissible_zeta(2.7, 1.0))
    for _ in range(10):
        f = random_band_limited(GRID, rng, band=6, zero_mean=True)
        g = random_band_limited(GRID, rng, band=6, zero_mean=True)
        lhs = abs(spectral_pairing(f, g))
        rhs = sym.norm(fft_forward(f).values, 0.5) * sym.norm(fft_forward(g).values, -0.5)
        assert lhs <= rhs * (1 + 1e-12)


def test_bourgain_duality_equality_for_aligned_mode():
    sym = ClampedSymbol(GRID, admissible_zeta(2.7, 1.0))
    coeffs = np.zeros((8, GRID.n, GRID.n, GRID.n), dtype=complex)
    coeffs[2, 3, 1, 0] = 1.5 - 0.5j
    f = fft_inverse(FormField(GRID, coeffs))
    lhs = abs(spectral_pairing(f, f))
    F = fft_forward(f).values
    rhs = sym.norm(F, 0.5) * sym.norm(F, -0.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bourgain_norm_single_mode_against_direct_sum():
    # direct summation oracle on an 8^3 grid
    grid = Grid(8, 2.0 * np.pi)
    zeta = admissible_zeta(2.0, 1.0)
    idx = (3, 2, 1)
    coeffs = np.zeros((8, 8, 8, 8), dtype=complex)
    coeffs[1][idx] = 2.0 + 1.0j
    f = fft_inverse(FormField(grid, coeffs))
    for b in (0.5, -0.5):
        got = ClampedSymbol(grid, zeta).norm(fft_forward(f).values, b)
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
    c = constant(GRID, blade((), 2.0 + 1.0j))
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
        _, hm1_d = sobolev_norms(d_plus_delta(phi, None, offset=0))
        lhs = l2**2
        rhs = hm1**2 + hm1_d**2
        assert abs(lhs - rhs) / lhs < 1e-10


def test_mollify_limits():
    rng = np.random.default_rng(13)
    f = random_band_limited(GRID, rng, band=4)
    g = mollify(f, 1e-6)
    assert rel_err(g.values, f.values) < 1e-10

    c = constant(GRID, blade((), 1.0 - 1.0j))
    for h in (1.0, 0.1, 3.0):
        assert rel_err(mollify(c, h).values, c.values) < 1e-13
    for h in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="mollification scale must be positive"):
            mollify(f, h)


def fd_gradient_sup(f):
    """Finite-difference oracle for the sup norm of the gradient."""
    worst = 0.0
    dx = f.grid.length / f.grid.n
    for axis in range(3):
        diff = (np.roll(f.values, -1, axis=1 + axis) - np.roll(f.values, 1, axis=1 + axis)) / (
            2 * dx
        )
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def test_mollify_gradient_scaling():
    rng = np.random.default_rng(14)
    f = random_band_limited(GRID, rng, band=GRID.n // 2 - 1)
    sup = np.max(algebra.form_abs(f.values))
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
    out = sym_coderiv(GRID, t)
    assert out.shape == (3, GRID.n, GRID.n, GRID.n)  # the covector, blades 1..3
    assert np.max(np.abs(out)) < 1e-14

    kappa = 2.0 * np.pi / GRID.length
    t[0] = np.sin(kappa * coordinates(GRID)[0])
    out = sym_coderiv(GRID, t)
    expected = np.zeros_like(out)
    expected[0] = -2.0 * kappa * np.cos(kappa * coordinates(GRID)[0])
    assert rel_err(out, expected) < 1e-12
    for shape in [(3,) + t.shape[1:], (6, 8, 8, 8), t.shape[1:]]:
        with pytest.raises(ValueError, match=re.escape("tensor field must have shape (6, n, n, n)")):
            sym_coderiv(GRID, np.zeros(shape, dtype=complex))


def test_symmetric_tensor_identity():
    # u v dv + v v du + (delta u) v v + (delta v) v u = d<u,v> + D*(u . v)
    rng = np.random.default_rng(15)
    for _ in range(5):
        u = random_band_limited(GRID, rng, band=2, grades=(1,))
        v = random_band_limited(GRID, rng, band=2, grades=(1,))
        lhs = (
            algebra.vee(u.values, ext_deriv(v).values)
            + algebra.vee(v.values, ext_deriv(u).values)
            + algebra.vee(coderiv(u).values, v.values)
            + algebra.vee(coderiv(v).values, u.values)
        )
        rhs = ext_deriv(FormField.from_scalar(GRID, algebra.inner(u.values, v.values)))
        sym = algebra.sym_product_components(u.values[1:4], v.values[1:4])
        rhs.values[1:4] += sym_coderiv(GRID, sym)  # a covector field
        assert rel_err(lhs, rhs.values) < 1e-10


@pytest.mark.parametrize("n", [8, 16, 32])
def test_outside_subbox_is_the_inline_mask(n):
    grid = Grid(n, 2.0 * np.pi)
    inline = np.any(np.abs(coordinates(grid) - grid.length / 2) > grid.length / 4, axis=0)
    assert np.array_equal(grid.outside_subbox, inline)


def former_stacks(grid):
    """The grid's (3, n, n, n) stacks as the library first formed them, by np.meshgrid: the
    coordinates, the integer frequency indices, xi, and xi_op (xi with the Nyquist entries zeroed)."""
    k = np.rint(np.fft.fftfreq(grid.n) * grid.n).astype(int)
    index = np.stack(np.meshgrid(k, k, k, indexing="ij"))
    xi = (2.0 * np.pi / grid.length) * index.astype(float)
    xi_op = xi.copy()
    xi_op[index == -(grid.n // 2)] = 0.0
    return coordinates(grid), index, xi, xi_op


def former_sample_bumps(grid, x, bumps):
    total = np.zeros((grid.n,) * 3)
    for bump in bumps:
        d2 = np.sum((x - np.reshape(bump.center, (3, 1, 1, 1))) ** 2, axis=0)
        inside = d2 < bump.radius**2
        r2 = d2[inside] / bump.radius**2
        total[inside] += bump.amplitude * np.exp(bump.sharpness * (1.0 - 1.0 / (1.0 - r2)))
    return total


def former_random_band_limited(grid, rng, band, index):
    coeffs = np.zeros((8,) + index.shape[1:], dtype=complex)
    mask = np.all(np.abs(index) <= band, axis=0)
    nsel = int(np.sum(mask))
    for b in range(8):
        coeffs[b][mask] = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
    return fft_inverse(FormField(grid, coeffs)).values


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_broadcast_axes_give_the_bits_of_the_n3_stacks(n):
    # every reader of the per-axis coordinates and frequencies adds and multiplies
    # in the order of the n^3 expressions it replaced, so no output bit moves,
    # and no sign of a zero
    def bit_equal(a, b):
        return a.dtype == b.dtype and np.array_equal(bits(a), bits(b))

    grid = Grid(n, 2.0 * np.pi)
    x, index, xi, xi_op = former_stacks(grid)
    xi_op_sq = np.sum(xi_op**2, axis=0)
    assert bit_equal(grid.xi_op, xi_op)
    assert bit_equal(grid.xi_op_sq, xi_op_sq)
    assert bit_equal(grid.xi_sq, np.sum(xi**2, axis=0))
    assert bit_equal(grid.subbox_distance, np.max(np.abs(x - grid.length / 2), axis=0))
    rng = np.random.default_rng(n)
    for _ in range(6):
        scale = 10.0 ** rng.uniform(-1.0, 2.0)
        zeta = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        zdot = np.einsum("j,j...->...", zeta, xi_op)
        assert bit_equal(fields.helmholtz_symbol(grid, zeta), xi_op_sq - 2j * zdot)
        kvec = scale * rng.standard_normal(3)
        phase = np.einsum("j,j...->...", kvec, x)
        assert bit_equal(fields.plane_wave_scalar(grid, kvec), np.exp(1j * phase))
        band, seed = int(rng.integers(0, n // 2 + 1)), int(rng.integers(2**32))
        assert bit_equal(random_band_limited(grid, np.random.default_rng(seed), band).values,
                              former_random_band_limited(grid, np.random.default_rng(seed), band, index))
        bumps = [media.Bump(rng.uniform(0.1, 1.0), rng.uniform(0.7, 1.5), tuple(np.pi + rng.uniform(-1.0, 1.0, 3)),
                      rng.uniform(0.5, 2.0)) for _ in range(2)]
        assert bit_equal(media.sample_bumps(grid, bumps), former_sample_bumps(grid, x, bumps))


def test_the_subbox_mask_holds_under_two_scalar_fields():
    # the three (3, n, n, n) arrays of the coordinate stack and its distances
    # took this to 6 scalar fields
    grid = GRID32
    fresh = Grid(grid.n, grid.length)  # outside_subbox is cached per grid
    mask, peak = traced_peak(getattr, fresh, "outside_subbox")
    assert peak <= 2 * grid.n**3 * np.dtype(float).itemsize
    assert np.array_equal(mask, grid.outside_subbox)


def test_no_library_module_forms_a_meshgrid():
    # the grid's coordinates and frequencies are its broadcast axes (Grid.axes,
    # Grid.xi_axes): one realization, with no (3, n, n, n) stack of np.meshgrid
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fields.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and "meshgrid" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert calls == []


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

    def with_length(length):  # L, after the version and n words
        return data[:12] + struct.pack("<d", length) + data[20:]

    for payload, message in ((b"XXXX" + data[4:], "bad magic b'XXXX'"),
                             (data[:4] + version + data[8:], r"unsupported snapshot layout \(version 2"),
                             (data[:10], "snapshot is 10 bytes, shorter than its 24-byte header"),
                             *((with_length(length), "grid.length must be positive and finite")
                               for length in (float("inf"), float("nan"), 0.0)),
                             *((with_length(length), re.escape(f"grid.length {length} puts the volume"))
                               for length in (1e300, 1e-300))):
        binpath.write_bytes(payload)
        with pytest.raises(ValueError, match=message):
            fields.load_field_bin(binpath)



def test_snapshot_values_must_be_finite(tmp_path):
    f = FormField.zero(GRID)
    f.values[3, 1, 2, 3] = complex(np.nan, 0.0)
    binpath = tmp_path / "field.bin"
    fields.save_field_bin(f, binpath)
    with pytest.raises(ValueError, match="snapshot values must be finite"):
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


@pytest.mark.parametrize("n", [16, 32])
def test_a_box_inverse_owns_its_data(n):
    # a view of the box would pin the n^3 array of the first pass: 8 MiB under each 0.91 MiB state at 64^3
    a = np.random.default_rng(43).standard_normal((2, n, n, n)) + 0j
    for name, box in _boxes(n).items():
        got = fields._inverse(a, box=box)
        assert got.base is None, name
        assert got.nbytes == 2 * np.prod([len(range(n)[keep]) for keep in box]) * a.itemsize, name


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


#: public library names that nothing in src/ or perfbench/ reads, each kept
#: for a reason outside the library
UNREFERENCED_BY_DESIGN = {
    "potential_via_factorization": "oracle of the assembled potential (ROADMAP item 7)",
    "to_maxwell": "oracle map from the rescaled to the Maxwell fields (ROADMAP item 7)",
    "maxwell_residual": "oracle residual of the time-harmonic system (ROADMAP item 7)",
    "limit_amplitude_a": "oracle large-s limit of the first amplitude (ROADMAP item 7)",
    "limit_amplitude_b": "oracle large-s limit of the paired amplitude (ROADMAP item 7)",
    "resolvent_operator_norm": "read by acceptance criterion 3",
    "incidence_residual": "read by acceptance criterion 5",
    "grade03_ratio": "read by acceptance criterion 8",
    "load_field_bin": "the reader of the fields.bin that run-cgo writes",
    "bourgain_weight": "kept until the benchmark is remade (ROADMAP item 1)",
}


def test_every_public_library_name_has_a_reader():
    # a public function or class of src/, or a public method of a public
    # class, is referenced outside its own definition in src/ or perfbench/:
    # by a name, an attribute, an import or an identifier-like string (as
    # in getattr(dm, "hess_a")); methods match by attribute name alone
    ident = re.compile(r"[A-Za-z_]\w*\Z")

    def references(tree) -> Counter:
        out = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out[node.id] += 1
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
            elif isinstance(node, ast.alias):
                out[node.name.rpartition(".")[2]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ident.match(node.value):
                out[node.value] += 1
        return out

    src = sorted(Path(fields.__file__).parent.glob("*.py"))
    bench = sorted((Path(fields.__file__).parents[2] / "perfbench").glob("*.py"))
    assert bench  # the benchmark's readers are part of the scan
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in src + bench}
    total = sum((references(tree) for tree in trees.values()), Counter())
    public = {}  # qualified name -> definition
    for path in src:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[node.name] = node
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        public[f"{node.name}.{member.name}"] = member
    unread = sorted(
        name for name, node in public.items()
        if total[node.name] - references(node)[node.name] == 0 and name not in UNREFERENCED_BY_DESIGN
    )
    assert unread == []
    assert sorted(set(UNREFERENCED_BY_DESIGN) - set(public)) == []  # no stale entries


#: parameters of public library functions that no call in src/ or perfbench/
#: passes, each kept for a reason outside those callers
UNPASSED_BY_DESIGN = {
    "first_order(zeta)": "the conjugated operator, which ROADMAP item 3's stage B and items 19 and 21 apply",
    "main(argv)": "the tests drive the CLI in process",
}


def test_every_parameter_has_a_caller():
    # a parameter of a public function of src/, or of a public method of a
    # public class, is passed by keyword or position by at least one of the
    # calls to it in src/ or perfbench/, if there are any; calls match by
    # name, methods by attribute name alone, and a call with *args or
    # **kwargs passes every parameter
    src = sorted(Path(fields.__file__).parent.glob("*.py"))
    bench = sorted((Path(fields.__file__).parents[2] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in src + bench}
    calls = {}  # called name -> its ast.Call nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)

    def passes(call, positional, name):
        keywords = {k.arg for k in call.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
            return True  # **kwargs or *args
        return name in keywords or (name in positional and positional.index(name) < len(call.args))

    unpassed = []
    for path in src:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = [m for m in node.body if isinstance(m, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if fn.name.startswith("_") or not calls.get(fn.name):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
                if fn is not node and not static:
                    positional = positional[1:]  # self or cls
                qualname = fn.name if fn is node else f"{node.name}.{fn.name}"
                unpassed += [f"{qualname}({name})" for name in positional + [a.arg for a in fn.args.kwonlyargs]
                             if not any(passes(call, positional, name) for call in calls[fn.name])]
    assert sorted(unpassed) == sorted(UNPASSED_BY_DESIGN)  # nothing unpassed outside the list, and no stale entries


def test_importing_the_library_loads_no_scipy():
    code = (
        "import sys; import cgolab, cgolab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(fields.__file__).parents[1])
    out = subprocess.check_output(
        [sys.executable, "-c", code], text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.strip() == "[]"


def test_every_public_name_resolves():
    assert [name for name in cgolab.__all__ if not hasattr(cgolab, name)] == []


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


def test_usable_cpus_counts_the_affinity_set_not_the_host(monkeypatch):
    # a process pinned to 3 of the host's 64 CPUs sizes its pools for 3
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert fields._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # an OS without affinity sets
    assert fields._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fields._usable_cpus() == 1


def test_a_map_returns_only_once_every_task_has_finished_and_raises_the_first_failure():
    finished = []

    def task(i):
        if i in (1, 3):  # the second task fails first; the fourth fails too, later in item order
            raise ValueError(f"task {i}")
        time.sleep(0.05)
        finished.append(i)

    with pytest.raises(ValueError, match="task 1"):
        fields._parallel_map(task, range(6), 2)
    assert sorted(finished) == [0, 2, 4, 5]


def test_a_map_on_a_pool_thread_runs_inline():
    def outer(_):  # a nested map, here on a pool of another size, starts no thread
        return fields._parallel_map(lambda _: threading.get_ident(), range(4), 3), threading.get_ident()

    for idents, ident in fields._parallel_map(outer, range(2), 2):
        assert ident != threading.get_ident() and idents == [ident] * 4


def test_a_map_runs_each_task_in_the_callers_context():
    # numpy's error state is part of the context: a pool task raises as the caller would
    def divide(_):
        return np.float64(1.0) / np.float64(0.0)

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        fields._parallel_map(divide, range(2), 2)
    with np.errstate(divide="ignore"):
        assert fields._parallel_map(divide, range(2), 2) == [np.inf, np.inf]


def test_a_solve_splits_from_two_slabs_up_and_never_on_a_pool_thread(monkeypatch):
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    assert fields._split(32) == (1, [slice(None)])  # one slab of 2^15 points
    assert fields._split(64) == (2, [slice(r, r + 8) for r in range(0, 64, 8)])
    assert fields._parallel_map(lambda n: fields._split(n), [64, 128], 2) == [(1, [slice(None)])] * 2
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)
    assert fields._split(64) == (1, [slice(None)])
