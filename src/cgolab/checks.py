"""Self-check suites behind the check-* commands.

Each suite returns a list of named results with the measured error and
its tolerance, so the CLI can print a table or emit JSON and the test
suite can assert on the same numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (
    BLADES, form_abs, grade_select, hodge, inner, one_form, sym_product_components, vee, wedge,
)
from .fields import (
    FormField,
    Grid,
    coderiv,
    conj_laplacian,
    d_plus_delta,
    ext_deriv,
    hermitian_pairing,
    quadrature_pairing,
    random_band_limited,
    seeded_rng,
    sobolev_norms,
    spectral_pairing,
    sym_coderiv,
)
from .media import (
    DerivedMedium,
    dirichlet_pairing,
    first_order,
    first_order_t,
    potential,
    potential_t,
    weak_potential_pairing,
    weak_potential_t_pairing,
)

ALGEBRA_SAMPLES = 1000  # seeded random forms per algebra identity (fewer for the slow ones)
ALGEBRA_TOL = 1e-12
CALCULUS_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error < self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _random_graded(rng) -> np.ndarray:
    return rng.standard_normal(8) + 1j * rng.standard_normal(8)


def _random_one(rng) -> np.ndarray:
    return one_form(rng.standard_normal(3) + 1j * rng.standard_normal(3))


def _inner(u, v) -> complex:
    return complex(inner(u, v))  # the report's errors are formed in Python complex arithmetic


def algebra_checks(seed: int):
    """The full identity battery of the pointwise algebra, on every basis
    blade and on seeded random forms."""
    rng = seeded_rng(seed)
    results = []

    err = 0.0
    for u, a in zip(np.eye(8), BLADES):
        for v, b in zip(np.eye(8), BLADES):
            sign = (-1.0) ** (len(a) * len(b))
            err = max(err, float(np.max(np.abs(wedge(u, v) - sign * wedge(v, u)))))
    for _ in range(ALGEBRA_SAMPLES):
        gu, gv = rng.integers(0, 4, size=2)
        u = grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gu)
        v = grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gv)
        diff = wedge(u, v) - (-1.0) ** (gu * gv) * wedge(v, u)
        err = max(err, float(np.max(np.abs(diff))))
    results.append(CheckResult("wedge anti-commutation", err, ALGEBRA_TOL))

    err = 0.0
    for u in np.eye(8):
        err = max(err, float(np.max(np.abs(hodge(hodge(u)) - u))))
    results.append(CheckResult("double hodge identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES):
        u = _random_graded(rng)
        v = _random_graded(rng)
        total = 0.0 + 0.0j
        for l in range(4):
            total += complex(hodge(wedge(grade_select(u, l), hodge(grade_select(v, l))))[0])
        err = max(err, abs(_inner(u, v) - total))
        err = max(err, abs(_inner(u, v) - _inner(hodge(u), hodge(v))))
    results.append(CheckResult("inner product via star-wedge / star invariance", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES):
        w = _random_graded(rng)
        v = _random_graded(rng)
        u = _random_graded(rng)
        err = max(err, abs(_inner(wedge(w, v), u) - _inner(w, vee(v, u))))
    results.append(CheckResult("vee-wedge adjunction", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 4):
        u = _random_one(rng)
        v = _random_one(rng)
        for l in range(4):
            w = grade_select(_random_graded(rng), l)
            lhs = vee(u, wedge(v, w)) - wedge(v, vee(u, w))
            rhs = w * (((-1.0) ** l) * _inner(u, v))
            err = max(err, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("one-form commutator identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 4):
        u1 = _random_one(rng)
        v1 = _random_one(rng)
        for l in range(4):
            ul = grade_select(_random_graded(rng), l)
            vl = grade_select(_random_graded(rng), l)
            lhs = _inner(vee(u1, ul), vee(v1, vl)) + _inner(wedge(v1, ul), wedge(u1, vl))
            err = max(err, abs(lhs - _inner(u1, v1) * _inner(ul, vl)))
    results.append(CheckResult("contraction product identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 10):
        u = _random_one(rng)[1:4]
        v = _random_one(rng)[1:4]
        diff = sym_product_components(u, v) - sym_product_components(v, u)
        err = max(err, float(np.max(np.abs(diff))))
    results.append(CheckResult("symmetric product commutativity", err, ALGEBRA_TOL))

    # delta = (-1)^(n(l+1)+1) * d * on a small grid
    grid = Grid(8, 2.0 * np.pi)
    f = random_band_limited(grid, rng, band=2)
    lhs = coderiv(f)
    total = np.zeros_like(f.values)
    for l in range(4):
        sign = (-1.0) ** (3 * (l + 1) + 1)
        total += sign * hodge(ext_deriv(FormField(grid, hodge(grade_select(f.values, l)))).values)
    scale = max(float(np.max(np.abs(lhs.values))), 1.0)
    err = float(np.max(np.abs(lhs.values - total))) / scale
    results.append(CheckResult("codifferential via star-d-star", err, ALGEBRA_TOL))

    return results


def calculus_checks(grid: Grid, seed: int):
    """Spectral-calculus identities on band-limited random fields."""
    rng = seeded_rng(seed)
    band = max(2, grid.n // 8)
    results = []

    f = random_band_limited(grid, rng, band=band)
    g = random_band_limited(grid, rng, band=band)
    scale = float(np.max(form_abs(f.values)))

    dd = float(np.max(form_abs(ext_deriv(ext_deriv(f)).values)))
    results.append(CheckResult("d o d = 0", dd / scale, CALCULUS_TOL))
    deltadelta = float(np.max(form_abs(coderiv(coderiv(f)).values)))
    results.append(CheckResult("delta o delta = 0", deltadelta / scale, CALCULUS_TOL))

    lhs = quadrature_pairing(ext_deriv(f), g)
    rhs = quadrature_pairing(f, coderiv(g))
    results.append(CheckResult("d/delta adjointness", abs(lhs - rhs) / abs(lhs), CALCULUS_TOL))

    lhs = hermitian_pairing(f, g)
    rhs = spectral_pairing(f, g)
    results.append(CheckResult("discrete Parseval", abs(lhs - rhs) / abs(lhs), CALCULUS_TOL))

    err = 0.0
    for _ in range(5):
        phi = random_band_limited(grid, rng, band=grid.n // 2 - 1)
        l2, hm1 = sobolev_norms(phi)
        _, hm1_d = sobolev_norms(d_plus_delta(phi, None, offset=0))
        err = max(err, abs(l2**2 - hm1**2 - hm1_d**2) / l2**2)
    results.append(CheckResult("local regularity norm identity", err, CALCULUS_TOL))

    zeta = np.array([2.5, 1j * np.sqrt(2.5**2 + 1.0), 0.0], dtype=complex)
    comp = coderiv(ext_deriv(f, zeta), zeta).values + ext_deriv(coderiv(f, zeta), zeta).values
    direct = conj_laplacian(f, zeta)
    results.append(
        CheckResult(
            "conjugated laplacian symbol",
            float(np.max(np.abs(comp - direct.values)) / np.max(np.abs(direct.values))),
            CALCULUS_TOL,
        )
    )

    err = 0.0
    for _ in range(3):
        u = random_band_limited(grid, rng, band=min(band, grid.n // 8), grades=(1,))
        v = random_band_limited(grid, rng, band=min(band, grid.n // 8), grades=(1,))
        lhs = (
            vee(u.values, ext_deriv(v).values) + vee(v.values, ext_deriv(u).values)
            + vee(coderiv(u).values, v.values) + vee(coderiv(v).values, u.values)
        )
        rhs = ext_deriv(FormField.from_scalar(grid, inner(u.values, v.values)))
        rhs.values[1:4] += sym_coderiv(grid, sym_product_components(u.values[1:4], v.values[1:4]))
        err = max(err, float(np.max(np.abs(lhs - rhs.values)) / np.max(np.abs(rhs.values))))
    results.append(CheckResult("symmetric-tensor derivative identity", err, CALCULUS_TOL))

    return results


WEAK_STRONG_TOL = 1e-6
TRANSPOSE_TOL = 1e-8


def factorization_checks(dm: DerivedMedium, seed: int = 0, n_pairs: int = 20):
    """First-order factorization identities against the weak potentials.

    The identity residual floor is the spectral tail of the medium, so
    its tolerance is the 32^3 contract (1e-6) only from that resolution
    up; coarser grids get a correspondingly looser bound.  At its peak it holds
    w, phi, one first-order image and the map forming the next (5.9 fields).
    """
    grid = dm.grid
    identity_tol = 1e-6 if grid.n >= 32 else 1e-4
    rng = seeded_rng(seed)
    band = max(2, grid.n // 8)
    identities = [
        ("factorization identity (potential)", identity_tol),
        ("factorization identity (transposed)", identity_tol),
        ("weak/strong potential match", WEAK_STRONG_TOL),
        ("weak/strong transposed match", WEAK_STRONG_TOL),
        ("first-order transpose pairing", TRANSPOSE_TOL),
    ]
    worst = [0.0] * len(identities)
    for _ in range(n_pairs):
        w = random_band_limited(grid, rng, band=band)
        phi = random_band_limited(grid, rng, band=band)

        # each oracle once per pair, shared by the five identities; each
        # first-order image is paired as soon as it is formed, then dropped
        dirichlet = dirichlet_pairing(w, phi, dm.k)
        weak = weak_potential_pairing(w, phi, dm)
        weak_t = weak_potential_t_pairing(w, phi, dm)
        tphi = first_order_t(phi, dm)
        tw_tphi = quadrature_pairing(first_order_t(w, dm), tphi)
        w_tphi = quadrature_pairing(w, tphi)
        del tphi
        lw = first_order(w, dm)
        lw_lphi = quadrature_pairing(lw, first_order(phi, dm))
        lw_phi = quadrature_pairing(lw, phi)
        del lw

        # (reference, compared) per identity, in the order of ``identities``
        sides = [
            (tw_tphi, dirichlet + weak),
            (lw_lphi, dirichlet + weak_t),
            (weak, quadrature_pairing(potential(w, dm), phi)),
            (weak_t, quadrature_pairing(potential_t(w, dm), phi)),
            (lw_phi, w_tphi),
        ]
        del w, phi
        worst = [
            max(err, abs(ref - other) / max(abs(ref), 1e-300))
            for err, (ref, other) in zip(worst, sides)
        ]
    results = [CheckResult(name, err, tol) for (name, tol), err in zip(identities, worst)]

    w03 = random_band_limited(grid, rng, band=band, grades=(0, 3))
    qt = potential_t(w03, dm)
    stray = float(np.max(np.abs(grade_select(qt.values, (1, 2)))))
    whole = max(float(np.max(np.abs(qt.values))), 1e-300)
    results.append(CheckResult("grade-{0,3} decoupling", stray / whole, 1e-8))

    return results
