import dataclasses
import tracemalloc

import numpy as np
import pytest

from cgolab import algebra, cgo, checks, fields, presets
from cgolab import media as md
from cgolab.errors import CoefficientError
from cgolab.fields import (
    FormField,
    coderiv,
    ext_deriv,
    fft_forward,
    plane_wave_scalar,
    quadrature_pairing,
    random_band_limited,
)
from conftest import LAZY_FIELDS


RHO = np.array([1.0, 0.0, 0.0])


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def bit_equal(a, b):
    """Equal bit for bit, signs of zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def oracle_fields(dm) -> dict:
    """What derive forms from dm's gamma and mu, through the FormField route
    (ext_deriv and coderiv of FormField.from_scalar) and the coefficient
    expressions as first written; also the codifferentials delta da, delta db."""
    grid, xi = dm.grid, dm.grid.xi_op
    a, b = 0.5 * np.log(dm.gamma), 0.5 * np.log(dm.mu)
    out = {}
    for name, s in (("a", a), ("b", b)):
        shat = fft_forward(FormField.from_scalar(grid, s)).coeffs[0]
        hess = [-xi[j] * xi[k] * shat for j, k in algebra.SYM_PAIRS]
        out[f"hess_{name}"] = np.stack([fields._inverse(h, h) for h in hess])
        grad = ext_deriv(FormField.from_scalar(grid, s))
        out[f"d{name}3"] = grad.values[1:4]
        out[f"delta_d{name}"] = coderiv(grad).values[0]
    out["dc3"] = ext_deriv(FormField.from_scalar(grid, np.exp(a) * np.exp(b))).values[1:4]
    base = -dm.omega**2 * (dm.gamma * dm.mu - dm.eps0 * dm.mu0)
    dada = algebra.inner(out["da3"], out["da3"])
    dbdb = algebra.inner(out["db3"], out["db3"])
    out["grade_multipliers"] = np.stack([
        base + dada - out["delta_da"], base + dbdb + out["delta_db"],
        base + dada + out["delta_da"], base + dbdb - out["delta_db"],
    ])
    out["contraction_covector"] = 2j * dm.omega * out["dc3"]
    return out


# ---------------------------------------------------------------------------
# medium construction and derivation
# ---------------------------------------------------------------------------

def test_background_derivation(grid16):
    dm = md.derive_background(grid16, omega=2.0, eps0=4.0, mu0=0.25)
    assert np.allclose(dm.gamma, 4.0)
    assert np.allclose(dm.sqrt_gamma, 2.0)
    assert np.max(np.abs(dm.da3)) < 1e-12
    assert dm.k == pytest.approx(2.0 * np.sqrt(4.0 * 0.25))


def test_conductivity_enters_imaginary_part(grid16):
    omega = 2.0
    bump = md.Bump(0.3, 1.2)
    m = md.Medium.from_bumps(grid16, omega=omega, sigma_bumps=[bump])
    dm = md.derive(m)
    expected = md.sample_bumps(grid16, [bump]) / omega
    assert np.max(np.abs(dm.gamma.imag - expected)) < 1e-12


def test_exp_recovers_gamma_on_random_media(grid16):
    rng = np.random.default_rng(41)
    for _ in range(5):
        m = md.Medium.from_bumps(
            grid16,
            omega=float(rng.uniform(0.5, 3.0)),
            eps_bumps=[md.Bump(float(rng.uniform(0.05, 0.6)), 1.3, sharpness=2.0)],
            mu_bumps=[md.Bump(float(rng.uniform(0.05, 0.6)), 1.2, sharpness=2.0)],
            sigma_bumps=[md.Bump(float(rng.uniform(0.0, 0.4)), 1.1, sharpness=2.0)],
        )
        dm = md.derive(m)
        assert rel_err(dm.sqrt_gamma**2, dm.gamma) < 1e-12
        assert rel_err(dm.sqrt_mu**2, dm.mu) < 1e-12


HALF_POWER_FIELDS = ("sqrt_gamma", "sqrt_mu", "iwc")


def _half_power_fields(gamma, mu, omega):
    """The three fields as derive formed them before they were formed on first use."""
    a, b = 0.5 * np.log(gamma), 0.5 * np.log(mu)
    c = np.exp(a) * np.exp(b)
    return dict(sqrt_gamma=np.exp(a), sqrt_mu=np.exp(b), iwc=1j * omega * c)


def test_half_power_fields_are_formed_on_first_read(grid16):
    dm = md.derive(presets.reference_medium(grid16))
    assert not set(HALF_POWER_FIELDS) & set(vars(dm))
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm.k, grid=grid16)
    cgo.solve_cgo(dm, g.zeta1, cgo.amplitude_b(g, cgo.Polarization.E))
    assert not set(HALF_POWER_FIELDS) & set(vars(dm))  # the solver reads none of them
    want = _half_power_fields(dm.gamma, dm.mu, dm.omega)
    for name in HALF_POWER_FIELDS:
        assert np.array_equal(getattr(dm, name), want[name])


def test_derived_fields_hold_only_their_live_components(grid16):
    # the gradients are their 3 covector components, not 8-blade fields,
    # and no array is a view that keeps a larger one alive
    dm = md.derive(presets.reference_medium(grid16))
    for f in dataclasses.fields(md.DerivedMedium):
        value = getattr(dm, f.name)
        assert not isinstance(value, FormField), f.name
        assert not isinstance(value, np.ndarray) or value.base is None, f.name
    for grad3 in (dm.da3, dm.db3):
        assert grad3.shape == (3,) + (grid16.n,) * 3
    assert dm.coefficients.shape == (7,) + (grid16.n,) * 3
    # the codifferentials and dc enter only the coefficients: none is kept
    assert not {"delta_da", "delta_db", "dc3"} & set(vars(dm))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("medium", ["reference", "perturbed"])
def test_derive_is_bit_equal_to_the_form_field_route(n, medium):
    m = getattr(presets, f"{medium}_medium")(presets.reference_grid(n))
    dm = md.derive(m)
    assert bit_equal(dm.gamma, m.eps + 1j * m.sigma / m.omega)
    assert bit_equal(dm.mu, m.mu.astype(complex))
    want = oracle_fields(dm)
    for name in ("da3", "db3", "hess_a", "hess_b", "grade_multipliers",
                 "contraction_covector", "dc3"):
        assert bit_equal(getattr(dm, name), want[name]), name
    assert bit_equal(dm.coefficients, np.concatenate(
        [want["grade_multipliers"], want["contraction_covector"]]))


def test_gradient_is_bit_equal_to_the_form_field_route(grid16):
    # the weak pairings take the gradients of their by-parts terms through
    # _gradient; it must give the bits of ext_deriv of the scalar field
    rng = np.random.default_rng(11)
    w, phi = (random_band_limited(grid16, rng, band=5).values for _ in range(2))
    ip = [np.sum(w[b] * phi[b], axis=0) for b in md._GRADE_BLADES]  # <w^l, phi^l>
    mixed = ip[2] - ip[0]
    mixed[::2] = complex(-0.0, -0.0)
    cases = {"even": ip[2] - ip[0], "odd": ip[1] - ip[3], "zero": np.zeros_like(mixed),
             "neg_zero": np.full_like(mixed, complex(-0.0, -0.0)), "mixed": mixed}
    for name, s in cases.items():
        want = ext_deriv(FormField.from_scalar(grid16, s)).values[1:4]
        assert bit_equal(md._gradient(grid16, s), want), name


def test_replace_derives_afresh(grid16):
    dm = md.derive(presets.reference_medium(grid16))
    fresh = md.derive(presets.perturbed_medium(grid16))
    new = dataclasses.replace(dm, gamma=fresh.gamma, mu=fresh.mu)
    for name in ("k", "da3", "db3", "hess_a", "hess_b", "grade_multipliers",
                 "contraction_covector", "dc3"):
        assert bit_equal(getattr(new, name), getattr(fresh, name)), name
    assert not bit_equal(new.grade_multipliers, dm.grade_multipliers)


def test_derive_holds_only_what_it_keeps():
    grid = presets.reference_grid()
    medium = presets.reference_medium(grid)
    grid.xi_op  # the grid's own symbol cache, shared by every derivation
    tracemalloc.start()
    try:
        dm = md.derive(medium)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # gamma, mu and the 7 coefficients: 9 scalar fields; the gradients and
    # Hessians of the half-logs are formed on first read
    assert set(vars(dm)) == {"grid", "omega", "eps0", "mu0", "gamma", "mu", "k", "coefficients"}
    field_bytes = grid.n**3 * np.dtype(complex).itemsize
    assert sum(a.nbytes for a in (dm.gamma, dm.mu, dm.coefficients)) == 9 * field_bytes
    assert held <= 9 * field_bytes + 65536
    # the coordinate and frequency index stacks are formed where they are read
    assert not {"x", "freq_index"} & set(vars(grid))


@pytest.mark.parametrize("pol, formed", [(cgo.Polarization.E, {"hess_b"}),
                                         (cgo.Polarization.H, {"hess_a"})])
def test_a_one_block_solve_forms_only_its_hessian(grid16, pol, formed):
    # E's first amplitude lies in grades (0, 1), whose potential reads H_b;
    # H's lies in grades (2, 3), whose potential reads H_a; neither reads a gradient
    dm = md.derive(presets.reference_medium(grid16))
    g = cgo.make_geometry(RHO, *cgo.orthonormal_frame(RHO, 0.7), 16.0, dm.k, grid=grid16)
    cgo.solve_cgo(dm, g.zeta1, cgo.amplitude_a(g, pol))
    assert set(LAZY_FIELDS) & set(vars(dm)) == formed


def test_replaced_coefficients_give_their_own_half_power_fields(grid16):
    dm = md.derive_background(grid16, omega=1.5)
    assert dm.iwc[0, 0, 0] == 1.5j  # formed and kept for the background
    n = grid16.n
    gamma, mu = np.full((n,) * 3, 1.3 + 0.2j), np.full((n,) * 3, 1.1 + 0j)
    new = dataclasses.replace(dm, gamma=gamma, mu=mu)
    want = _half_power_fields(gamma, mu, 1.5)
    for name in HALF_POWER_FIELDS:
        assert np.array_equal(getattr(new, name), want[name])


def test_medium_validation(grid16):
    n = grid16.n
    ones = np.ones((n,) * 3)
    with pytest.raises(ValueError):
        md.Medium(grid16, 1.0, 1.0, 1.0, 0.9 * ones, ones, 0.0 * ones)
    with pytest.raises(ValueError):
        md.Medium(grid16, 1.0, 1.0, 1.0, ones, ones, -0.1 * ones)
    # support violation: bump sticking out of the central sub-box
    with pytest.raises(ValueError):
        md.Medium.from_bumps(grid16, 1.0, eps_bumps=[md.Bump(0.2, 2.5)])
    with pytest.raises(ValueError):
        md.Medium(grid16, -1.0, 1.0, 1.0, ones, ones, 0.0 * ones)


def test_a_bump_whose_radius_squared_is_subnormal_keeps_its_centre(grid16):
    # radius**2 = 1e-310: d2 / radius**2 overflows at every point but the centre,
    # which is the only one inside
    centre = tuple(grid16.x[:, 8, 8, 8])
    total = md.sample_bumps(grid16, [md.Bump(0.4, 1e-155, centre)])
    assert total[8, 8, 8] == 0.4 and np.count_nonzero(total) == 1


@pytest.mark.parametrize("name", ["eps", "mu", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_medium_rejects_non_finite_samples(grid16, name, bad):
    samples = {"eps": np.ones((grid16.n,) * 3), "mu": np.ones((grid16.n,) * 3),
               "sigma": np.zeros((grid16.n,) * 3)}
    samples[name][8, 8, 8] = bad
    with pytest.raises(CoefficientError, match=f"{name}.* must be finite") as exc:
        md.Medium(grid16, 1.0, 1.0, 1.0, **samples)
    assert exc.value.name == name


@pytest.mark.parametrize("name, omega, peak", [("mu", 1.0, 1e200), ("omega", 1e160, 1.0)])
def test_medium_rejects_overflowing_products(grid16, name, omega, peak):
    # every sample is finite, but omega^2 gamma mu or omega^2 eps0 mu0 is not
    eps, mu = np.ones((grid16.n,) * 3), np.ones((grid16.n,) * 3)
    eps[8, 8, 8] = mu[8, 8, 8] = peak
    with pytest.raises(CoefficientError, match="must be finite") as exc:
        md.Medium(grid16, omega, 1.0, 1.0, eps, mu, np.zeros((grid16.n,) * 3))
    assert exc.value.name == name


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def test_first_order_on_constant_background(grid16):
    dm = md.derive_background(grid16, omega=1.5, eps0=2.0, mu0=0.5)
    v = FormField.constant(grid16, algebra.GradedForm(np.arange(1.0, 9.0) + 0.5j))
    expected = 1.5j * np.sqrt(2.0 * 0.5) * v.values
    assert rel_err(md.first_order(v, dm).values, expected) < 1e-12
    assert rel_err(md.first_order_t(v, dm).values, expected) < 1e-12
    assert md.first_order(FormField.zero(grid16), dm).max_abs() == 0.0


def test_first_order_pair_drops_derivatives_for_constant_media(grid16, dm16):
    # on a constant-coefficient background the alternating signs cancel
    dm0 = md.derive_background(grid16, omega=1.0)
    rng = np.random.default_rng(3)
    v = random_band_limited(grid16, rng, band=4)
    combo = md.first_order(v, dm0) + md.first_order_t(v, dm0)
    expected = 2.0 * dm0.iwc * v.values
    assert rel_err(combo.values, expected) < 1e-12


def test_first_order_transpose_pairing(grid16, dm16):
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = random_band_limited(grid16, rng, band=5)
        phi = random_band_limited(grid16, rng, band=5)
        lhs = quadrature_pairing(md.first_order(v, dm16), phi)
        rhs = quadrature_pairing(v, md.first_order_t(phi, dm16))
        assert abs(lhs - rhs) / abs(lhs) < 1e-8


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potential_vanishes_on_background(grid16):
    dm0 = md.derive_background(grid16, omega=1.0)
    rng = np.random.default_rng(5)
    w = random_band_limited(grid16, rng, band=5)
    assert md.potential(w, dm0).max_abs() == 0.0
    assert md.potential_t(w, dm0).max_abs() == 0.0


def test_potential_on_constant_contrast(grid16):
    # A Medium rejects constant non-background coefficients (they are not
    # supported in the sub-box), so gamma and mu replace those of a derived
    # background medium, which derives its fields afresh from them.
    n = grid16.n
    dm = dataclasses.replace(
        md.derive_background(grid16, omega=1.0),
        gamma=np.full((n,) * 3, 1.3 + 0j), mu=np.full((n,) * 3, 1.1 + 0j),
    )
    rng = np.random.default_rng(6)
    w = random_band_limited(grid16, rng, band=5)
    expected = -(1.0**2) * (1.3 * 1.1 - 1.0) * w.values
    assert rel_err(md.potential(w, dm).values, expected) < 1e-12


def test_weak_form_matches_strong_potential(grid16, dm16):
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = random_band_limited(grid16, rng, band=5)
        phi = random_band_limited(grid16, rng, band=5)
        strong = quadrature_pairing(md.potential(w, dm16), phi)
        weak = md.weak_potential_pairing(w, phi, dm16)
        assert abs(strong - weak) / abs(weak) < 1e-12
        strong_t = quadrature_pairing(md.potential_t(w, dm16), phi)
        weak_t = md.weak_potential_t_pairing(w, phi, dm16)
        assert abs(strong_t - weak_t) / abs(weak_t) < 1e-12


def test_factorization_identities(grid16, dm16):
    # aliasing-level agreement; the spectral tail of the 16^3 medium sets
    # the floor (the 32^3 acceptance run pins the 1e-6 contract); band 3
    # keeps test-field products off the Nyquist row
    rng = np.random.default_rng(8)
    w = random_band_limited(grid16, rng, band=3)
    phi = random_band_limited(grid16, rng, band=3)
    lhs = quadrature_pairing(md.first_order_t(w, dm16), md.first_order_t(phi, dm16))
    rhs = md.dirichlet_pairing(w, phi, dm16.k) + md.weak_potential_pairing(w, phi, dm16)
    assert abs(lhs - rhs) / abs(lhs) < 1e-4
    lhs = quadrature_pairing(md.first_order(w, dm16), md.first_order(phi, dm16))
    rhs = md.dirichlet_pairing(w, phi, dm16.k) + md.weak_potential_t_pairing(w, phi, dm16)
    assert abs(lhs - rhs) / abs(lhs) < 1e-4
    # the two realizations agree weakly at the same level
    fact = quadrature_pairing(md.potential_via_factorization(w, dm16), phi)
    mult = quadrature_pairing(md.potential(w, dm16), phi)
    assert abs(fact - mult) / abs(mult) < 1e-2


def test_factorization_checks_evaluate_each_oracle_once_per_pair(dm16, monkeypatch):
    calls = {}

    def counted(name):
        fn = getattr(checks, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    oracles = ("first_order", "first_order_t", "dirichlet_pairing",
               "weak_potential_pairing", "weak_potential_t_pairing")
    for name in oracles:
        monkeypatch.setattr(checks, name, counted(name))
    checks.factorization_checks(dm16, n_pairs=2)
    assert calls == {
        "first_order": 4, "first_order_t": 4, "dirichlet_pairing": 2,
        "weak_potential_pairing": 2, "weak_potential_t_pairing": 2,
    }


def test_transposed_potential_decouples(grid16, dm16):
    rng = np.random.default_rng(9)
    w03 = random_band_limited(grid16, rng, band=5, grades=(0, 3))
    qt = md.potential_t(w03, dm16)
    stray = np.max(np.abs(algebra.grade_select(qt.values, (1, 2))))
    assert stray / np.max(np.abs(qt.values)) < 1e-8


def test_grade03_potential_matches_multipliers_and_weak_form(grid16, dm16):
    rng = np.random.default_rng(10)
    w03 = random_band_limited(grid16, rng, band=5, grades=(0, 3))
    q03 = md.potential_t(w03, dm16).select((0, 3))
    m0, m3 = dm16.grade_multipliers[1], dm16.grade_multipliers[2]
    oracle = np.zeros_like(q03.values)
    oracle[0] = m0 * w03.values[0]
    oracle[7] = m3 * w03.values[7]
    assert rel_err(q03.values, oracle) < 1e-12
    # weak-form quadrature oracle against a random scalar test field
    phi0 = random_band_limited(grid16, rng, band=5, grades=(0,))
    weak = md.weak_potential_t_pairing(w03, phi0, dm16)
    strong = quadrature_pairing(q03, phi0)
    assert abs(weak - strong) / abs(weak) < 1e-10


def test_potential_is_multiplication_operator(grid16, dm16):
    rng = np.random.default_rng(12)
    w = random_band_limited(grid16, rng, band=4)
    f = np.exp(1j * grid16.x[0]) + 0.3
    lhs = md.potential(FormField(grid16, w.values * f), dm16)
    rhs = md.potential(w, dm16).values * f
    assert rel_err(lhs.values, rhs) < 1e-12


@pytest.mark.parametrize("grades", [(0, 1), (2, 3)])
def test_potential_maps_each_closed_grade_block_into_itself(grid16, dm16, grades):
    rng = np.random.default_rng(14)
    w = random_band_limited(grid16, rng, band=6, grades=grades)
    full = md.potential(w, dm16)
    assert np.all(full.values[~np.isin(algebra.GRADES, grades)] == 0.0)
    assert np.array_equal(md.potential(w, dm16, grades=grades).values, full.values)
    # the blades outside the block are not read
    other = tuple(sorted({0, 1, 2, 3} - set(grades)))
    noisy = w + random_band_limited(grid16, rng, band=6, grades=other)
    assert np.array_equal(md.potential(noisy, dm16, grades=grades).values, full.values)


@pytest.mark.parametrize("grades", [(0, 1), (2, 3), (0, 1, 2, 3)])
def test_potential_into_a_block_buffer_is_bit_equal(grid16, dm16, grades):
    w = random_band_limited(grid16, np.random.default_rng(16), band=6)
    blk = md.grade_block(grades)
    nb = blk.stop - blk.start
    # stale contents of the buffers must not reach the result
    out = np.full((nb,) + (grid16.n,) * 3, np.nan, dtype=complex)
    scratch = np.full((3,) + (grid16.n,) * 3, np.nan, dtype=complex)
    assert md.potential(w, dm16, grades, out=out, scratch=scratch) is out
    assert out.tobytes() == md.potential(w, dm16, grades).values[blk].tobytes()
    assert md.potential(w, dm16, grades, out=np.empty_like(out)).tobytes() == out.tobytes()
    for shape in [(nb + 1,) + out.shape[1:], (8, 8, 8, 8), out.shape[1:]]:
        with pytest.raises(ValueError, match="out must have shape"):
            md.potential(w, dm16, grades, out=np.empty(shape, dtype=complex))


def test_potential_grades_must_be_closed_blocks(grid16, dm16):
    w = random_band_limited(grid16, np.random.default_rng(15), band=4)
    assert np.array_equal(md.potential(w, dm16, grades=(3, 2, 1, 0)).values,
                          md.potential(w, dm16).values)
    for grades in [(0, 2), (1, 2), (0,), 3, (0, 1, 2), ()]:
        with pytest.raises(ValueError, match="grades must be"):
            md.potential(w, dm16, grades=grades)


# The potentials as first written: full 8-component products, kept here as
# the oracle for the sliced implementation in the package.

def _reference_hess_apply(packed, vec3):
    hess = packed[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]  # full (3, 3) from SYM_PAIRS order
    return np.einsum("jk...,j...->k...", hess, vec3)


def reference_potential(w, dm):
    wv = w.values
    delta_da, delta_db = (oracle_fields(dm)[name] for name in ("delta_da", "delta_db"))
    base = -dm.omega**2 * (dm.gamma_mu - dm.eps0 * dm.mu0)
    dada = algebra.inner(dm.da3, dm.da3)
    dbdb = algebra.inner(dm.db3, dm.db3)

    out = np.zeros_like(wv)
    out[0] = (base + dada - delta_da) * wv[0]
    out[1:4] = (base + dbdb + delta_db) * wv[1:4] + 2.0 * _reference_hess_apply(dm.hess_b, wv[1:4])
    star2 = algebra.hodge(algebra.grade_select(wv, 2))[1:4]
    h2 = np.zeros_like(wv)
    h2[1:4] = 2.0 * _reference_hess_apply(dm.hess_a, star2)
    out[4:7] = (base + dada + delta_da) * wv[4:7] + algebra.hodge(h2)[4:7]
    out[7] = (base + dbdb - delta_db) * wv[7]

    two_iw = 2j * dm.omega
    out += two_iw * algebra.vee_cov(dm.dc3, algebra.grade_select(wv, (1, 3)))
    out += two_iw * algebra.wedge_cov(dm.dc3, algebra.grade_select(wv, (0, 2)))
    return out


def reference_potential_t(w, dm):
    wv = w.values
    delta_da, delta_db = (oracle_fields(dm)[name] for name in ("delta_da", "delta_db"))
    base = -dm.omega**2 * (dm.gamma_mu - dm.eps0 * dm.mu0)
    dada = algebra.inner(dm.da3, dm.da3)
    dbdb = algebra.inner(dm.db3, dm.db3)

    out = np.zeros_like(wv)
    out[0] = (base + dbdb + delta_db) * wv[0]
    out[1:4] = (base + dada - delta_da) * wv[1:4] - 2.0 * _reference_hess_apply(dm.hess_a, wv[1:4])
    star2 = algebra.hodge(algebra.grade_select(wv, 2))[1:4]
    h2 = np.zeros_like(wv)
    h2[1:4] = -2.0 * _reference_hess_apply(dm.hess_b, star2)
    out[4:7] = (base + dbdb - delta_db) * wv[4:7] + algebra.hodge(h2)[4:7]
    out[7] = (base + dada + delta_da) * wv[7]

    two_iw = 2j * dm.omega
    out -= two_iw * algebra.vee_cov(dm.dc3, algebra.grade_select(wv, 2))
    out += two_iw * algebra.wedge_cov(dm.dc3, algebra.grade_select(wv, 1))
    return out


@pytest.mark.parametrize(
    "fast, reference",
    [(md.potential, reference_potential), (md.potential_t, reference_potential_t)],
)
def test_potentials_match_full_field_formulas(grid16, dm16, fast, reference):
    rng = np.random.default_rng(13)
    w = random_band_limited(grid16, rng, band=6)
    assert rel_err(fast(w, dm16).values, reference(w, dm16)) < 1e-13


@pytest.mark.parametrize("op", [md.potential, md.potential_t])
def test_potentials_are_pointwise_symmetric(grid16, dm16, op):
    # column i of the pointwise 8x8 matrix is the image of the constant blade e_i
    columns = []
    for i in range(8):
        e = np.zeros(8, dtype=complex)
        e[i] = 1.0
        columns.append(op(FormField.constant(grid16, algebra.GradedForm(e)), dm16).values)
    matrix = np.stack(columns, axis=1)  # (row j, column i, n, n, n)
    asym = np.max(np.abs(matrix - matrix.transpose(1, 0, 2, 3, 4)))
    assert asym < 1e-13 * np.max(np.abs(matrix))


# ---------------------------------------------------------------------------
# Maxwell maps
# ---------------------------------------------------------------------------

def test_background_plane_wave_solves_maxwell(grid16):
    # u1 = e^(i kappa.x) eta with <kappa, eta> = 0, |kappa|^2 = omega^2 eps0 mu0,
    # u2 = (omega mu0)^(-1) kappa ^ u1
    eps0, mu0 = 1.0, 1.0
    kappa = (2.0 * np.pi / grid16.length) * np.array([1.0, 0.0, 0.0])
    omega = np.linalg.norm(kappa) / np.sqrt(eps0 * mu0)
    dm = md.derive_background(grid16, omega=omega, eps0=eps0, mu0=mu0)
    wave = plane_wave_scalar(grid16, kappa)
    u = FormField.zero(grid16)
    u.values[2] = wave  # dx2 polarized electric part
    u.values[4] = np.linalg.norm(kappa) / (omega * mu0) * wave  # dx1^dx2 magnetic part
    assert md.maxwell_residual(u, dm).max_abs() < 1e-10


def test_maxwell_residual_trivial_cases(grid16, dm16):
    assert md.maxwell_residual(FormField.zero(grid16), dm16).max_abs() == 0.0
    rng = np.random.default_rng(13)
    v03 = random_band_limited(grid16, rng, band=4, grades=(0, 3))
    assert md.to_maxwell(v03, dm16).max_abs() == 0.0


def test_to_maxwell_rescales_grades(grid16, dm16):
    rng = np.random.default_rng(14)
    v = random_band_limited(grid16, rng, band=4)
    u = md.to_maxwell(v, dm16)
    # the inverse half powers as DerivedMedium formed them when it kept them
    assert np.array_equal(u.values[1:4], v.values[1:4] * np.exp(-(0.5 * np.log(dm16.gamma))))
    assert np.array_equal(u.values[4:7], v.values[4:7] * np.exp(-(0.5 * np.log(dm16.mu))))
    assert np.max(np.abs(u.values[0])) == 0.0
    assert np.max(np.abs(u.values[7])) == 0.0
