"""Self-check suites behind the check-* commands.

Each suite returns a list of named results with the measured error and
its tolerance, so the CLI can print a table or emit JSON and the test
suite can assert on the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import BLADES, GradedForm
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
    sym_product_field,
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
        return {
            "name": self.name,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _random_graded(rng) -> GradedForm:
    return GradedForm(rng.standard_normal(8) + 1j * rng.standard_normal(8))


def _random_one(rng) -> GradedForm:
    return GradedForm.covector(rng.standard_normal(3) + 1j * rng.standard_normal(3))


def algebra_checks(seed: int = 0):
    """The full identity battery of the pointwise algebra, on every basis
    blade and on seeded random forms."""
    rng = seeded_rng(seed)
    results = []

    err = 0.0
    for ia, a in enumerate(BLADES):
        for ib, b in enumerate(BLADES):
            u = np.zeros(8)
            v = np.zeros(8)
            u[ia] = 1.0
            v[ib] = 1.0
            sign = (-1.0) ** (len(a) * len(b))
            err = max(err, float(np.max(np.abs(algebra.wedge(u, v) - sign * algebra.wedge(v, u)))))
    for _ in range(ALGEBRA_SAMPLES):
        gu, gv = rng.integers(0, 4, size=2)
        u = algebra.grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gu)
        v = algebra.grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gv)
        diff = algebra.wedge(u, v) - (-1.0) ** (gu * gv) * algebra.wedge(v, u)
        err = max(err, float(np.max(np.abs(diff))))
    results.append(CheckResult("wedge anti-commutation", err, ALGEBRA_TOL))

    err = 0.0
    for ia in range(8):
        u = np.zeros(8)
        u[ia] = 1.0
        err = max(err, float(np.max(np.abs(algebra.hodge(algebra.hodge(u)) - u))))
    results.append(CheckResult("double hodge identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES):
        u = _random_graded(rng)
        v = _random_graded(rng)
        total = 0.0 + 0.0j
        for l in range(4):
            total += complex(
                algebra.hodge(algebra.wedge(u.grade(l).data, algebra.hodge(v.grade(l).data)))[0]
            )
        err = max(err, abs(u.inner(v) - total))
        err = max(err, abs(u.inner(v) - u.hodge().inner(v.hodge())))
    results.append(CheckResult("inner product via star-wedge / star invariance", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES):
        w = _random_graded(rng)
        v = _random_graded(rng)
        u = _random_graded(rng)
        err = max(err, abs(w.wedge(v).inner(u) - w.inner(v.vee(u))))
    results.append(CheckResult("vee-wedge adjunction", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 4):
        u = _random_one(rng)
        v = _random_one(rng)
        for l in range(4):
            w = _random_graded(rng).grade(l)
            lhs = u.vee(v.wedge(w)) - v.wedge(u.vee(w))
            rhs = ((-1.0) ** l) * u.inner(v) * w
            err = max(err, float(np.max(np.abs(lhs.data - rhs.data))))
    results.append(CheckResult("one-form commutator identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 4):
        u1 = _random_one(rng)
        v1 = _random_one(rng)
        for l in range(4):
            ul = _random_graded(rng).grade(l)
            vl = _random_graded(rng).grade(l)
            lhs = u1.vee(ul).inner(v1.vee(vl)) + v1.wedge(ul).inner(u1.wedge(vl))
            err = max(err, abs(lhs - u1.inner(v1) * ul.inner(vl)))
    results.append(CheckResult("contraction product identity", err, ALGEBRA_TOL))

    err = 0.0
    for _ in range(ALGEBRA_SAMPLES // 10):
        u = _random_one(rng)
        v = _random_one(rng)
        err = max(err, float(np.max(np.abs(u.sym_product(v).data - v.sym_product(u).data))))
    results.append(CheckResult("symmetric product commutativity", err, ALGEBRA_TOL))

    # delta = (-1)^(n(l+1)+1) * d * on a small grid
    grid = Grid(8, 2.0 * np.pi)
    f = random_band_limited(grid, rng, band=2)
    lhs = coderiv(f)
    total = np.zeros_like(f.values)
    for l in range(4):
        sign = (-1.0) ** (3 * (l + 1) + 1)
        total += sign * ext_deriv(f.select(l).hodge()).hodge().values
    scale = max(float(np.max(np.abs(lhs.values))), 1.0)
    err = float(np.max(np.abs(lhs.values - total))) / scale
    results.append(CheckResult("codifferential via star-d-star", err, ALGEBRA_TOL))

    return results


def calculus_checks(grid: Grid, seed: int = 0):
    """Spectral-calculus identities on band-limited random fields."""
    rng = seeded_rng(seed)
    band = max(2, grid.n // 8)
    results = []

    f = random_band_limited(grid, rng, band=band)
    g = random_band_limited(grid, rng, band=band)
    scale = f.max_abs()

    results.append(
        CheckResult("d o d = 0", ext_deriv(ext_deriv(f)).max_abs() / scale, CALCULUS_TOL)
    )
    results.append(
        CheckResult("delta o delta = 0", coderiv(coderiv(f)).max_abs() / scale, CALCULUS_TOL)
    )

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
        _, hm1_d = sobolev_norms(d_plus_delta(phi.alternate()))
        err = max(err, abs(l2**2 - hm1**2 - hm1_d**2) / l2**2)
    results.append(CheckResult("local regularity norm identity", err, CALCULUS_TOL))

    zeta = np.array([2.5, 1j * np.sqrt(2.5**2 + 1.0), 0.0], dtype=complex)
    comp = coderiv(ext_deriv(f, zeta), zeta) + ext_deriv(coderiv(f, zeta), zeta)
    direct = conj_laplacian(f, zeta)
    results.append(
        CheckResult(
            "conjugated laplacian symbol",
            float(np.max(np.abs(comp.values - direct.values)) / np.max(np.abs(direct.values))),
            CALCULUS_TOL,
        )
    )

    err = 0.0
    for _ in range(3):
        u = random_band_limited(grid, rng, band=min(band, grid.n // 8), grades=(1,))
        v = random_band_limited(grid, rng, band=min(band, grid.n // 8), grades=(1,))
        lhs = (
            u.vee(ext_deriv(v)) + v.vee(ext_deriv(u)) + coderiv(u).vee(v) + coderiv(v).vee(u)
        )
        rhs = ext_deriv(FormField.from_scalar(grid, u.inner(v))) + sym_coderiv(
            grid, sym_product_field(u, v)
        )
        err = max(err, float(np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(rhs.values))))
    results.append(CheckResult("symmetric-tensor derivative identity", err, CALCULUS_TOL))

    return results


WEAK_STRONG_TOL = 1e-6
TRANSPOSE_TOL = 1e-8


def factorization_checks(dm: DerivedMedium, seed: int = 0, n_pairs: int = 20):
    """First-order factorization identities against the weak potentials.

    The identity residual floor is the spectral tail of the medium, so
    its tolerance is the 32^3 contract (1e-6) only from that resolution
    up; coarser grids get a correspondingly looser bound.
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

        # each oracle once per pair, shared by the five identities; the weak
        # pairings run first, while no first-order image is held
        dirichlet = dirichlet_pairing(w, phi, dm.k)
        weak = weak_potential_pairing(w, phi, dm)
        weak_t = weak_potential_t_pairing(w, phi, dm)
        lw, lphi = first_order(w, dm), first_order(phi, dm)
        tw, tphi = first_order_t(w, dm), first_order_t(phi, dm)

        # (reference, compared) per identity, in the order of ``identities``
        sides = [
            (quadrature_pairing(tw, tphi), dirichlet + weak),
            (quadrature_pairing(lw, lphi), dirichlet + weak_t),
            (weak, quadrature_pairing(potential(w, dm), phi)),
            (weak_t, quadrature_pairing(potential_t(w, dm), phi)),
            (quadrature_pairing(lw, phi), quadrature_pairing(w, tphi)),
        ]
        worst = [
            max(err, abs(ref - other) / max(abs(ref), 1e-300))
            for err, (ref, other) in zip(worst, sides)
        ]
    results = [CheckResult(name, err, tol) for (name, tol), err in zip(identities, worst)]

    w03 = random_band_limited(grid, rng, band=band, grades=(0, 3))
    qt = potential_t(w03, dm)
    stray = float(np.max(np.abs(algebra.grade_select(qt.values, (1, 2)))))
    whole = max(float(np.max(np.abs(qt.values))), 1e-300)
    results.append(CheckResult("grade-{0,3} decoupling", stray / whole, 1e-8))

    return results
