import itertools

import numpy as np
import pytest

from cgolab import algebra
from cgolab.algebra import BLADES, SYM_PAIRS
from conftest import bits, blade

RNG = np.random.default_rng(2024)


def random_form(rng=RNG):
    return rng.standard_normal(8) + 1j * rng.standard_normal(8)


def random_one_form(rng=RNG):
    return algebra.one_form(rng.standard_normal(3) + 1j * rng.standard_normal(3))


# ---------------------------------------------------------------------------
# independent oracles, deliberately sharing no code with the package tables
# ---------------------------------------------------------------------------

def oracle_wedge_sign(a, b):
    """Sign of dx^a ^ dx^b by explicit inversion count."""
    idx = list(a) + list(b)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i, j in itertools.combinations(range(len(idx)), 2):
        if idx[i] > idx[j]:
            sign = -sign
    return sign, tuple(sorted(idx))


def oracle_hodge_blade(a):
    """Complement blade and sign via exhaustive orientation search.

    For every ordering of the complement, solves a ^ (sign * ordering) = +vol
    and re-expresses the answer in the sorted basis; all orderings must agree.
    """
    comp = tuple(i for i in (1, 2, 3) if i not in a)
    answers = set()
    for perm in itertools.permutations(comp):
        orient, merged = oracle_wedge_sign(a, perm)
        assert merged == (1, 2, 3) and orient in (-1, 1)
        to_sorted, psorted = oracle_wedge_sign(perm, ())
        answers.add((psorted, orient * to_sorted))
    assert len(answers) == 1
    return answers.pop()


def oracle_wedge(u, v):
    out = np.zeros(8, dtype=complex)
    for ia, a in enumerate(BLADES):
        for ib, b in enumerate(BLADES):
            sign, merged = oracle_wedge_sign(a, b)
            if sign:
                out[algebra.BLADE_INDEX[merged]] += sign * u[ia] * v[ib]
    return out


def oracle_hodge(u):
    out = np.zeros(8, dtype=complex)
    for ia, a in enumerate(BLADES):
        blade, sign = oracle_hodge_blade(a)
        out[algebra.BLADE_INDEX[blade]] += sign * u[ia]
    return out


def oracle_vee(v, u):
    """Dense evaluation of the defining sign-and-star formula per blade pair."""
    n = 3
    out = np.zeros(8, dtype=complex)
    for ia, a in enumerate(BLADES):
        m = len(a)
        for ib, b in enumerate(BLADES):
            l = len(b)
            ea = np.zeros(8, dtype=complex)
            ea[ia] = v[ia]
            eb = np.zeros(8, dtype=complex)
            eb[ib] = u[ib]
            term = oracle_hodge(oracle_wedge(ea, oracle_hodge(eb)))
            out += ((-1) ** ((n + m - l) * (l - m))) * term
    return out


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_table_matches_permutation_oracle():
    for ia in range(8):
        for ib in range(8):
            u = np.zeros(8, dtype=complex)
            v = np.zeros(8, dtype=complex)
            u[ia] = 1.0
            v[ib] = 1.0
            assert np.array_equal(algebra.wedge(u, v), oracle_wedge(u, v))


def test_one_form_fills_the_grade_1_blades():
    form = algebra.one_form([1.0, 2.0, 0.5j])
    assert form.dtype == complex
    assert np.array_equal(form, blade((1,)) + blade((2,), 2.0) + blade((3,), 0.5j))


def test_wedge_basic_examples():
    dx1 = blade((1,))
    dx2 = blade((2,))
    dx12 = blade((1, 2))
    assert np.allclose(algebra.wedge(dx1, dx2), dx12)
    assert np.allclose(algebra.wedge(dx2, dx1), -dx12)
    assert np.allclose(algebra.wedge(dx1, dx1), 0.0)
    # scalar multiplication case
    s = blade((), 2 + 1j)
    dx23 = blade((2, 3))
    assert np.allclose(algebra.wedge(s, dx23), dx23 * (2 + 1j))


def test_wedge_anticommutation_exhaustive_and_random():
    for ia, a in enumerate(BLADES):
        for ib, b in enumerate(BLADES):
            u = np.zeros(8)
            v = np.zeros(8)
            u[ia] = 1.0
            v[ib] = 1.0
            sign = (-1) ** (len(a) * len(b))
            assert np.array_equal(algebra.wedge(u, v), sign * algebra.wedge(v, u))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        gu = rng.integers(0, 4)
        gv = rng.integers(0, 4)
        u = algebra.grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gu)
        v = algebra.grade_select(rng.standard_normal(8) + 1j * rng.standard_normal(8), gv)
        lhs = algebra.wedge(u, v)
        rhs = (-1) ** (gu * gv) * algebra.wedge(v, u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------

def test_hodge_examples():
    assert np.allclose(algebra.hodge(blade(())), blade((1, 2, 3)))
    # *dx2 = dx3^dx1 = -(dx1^dx3)
    assert np.allclose(algebra.hodge(blade((2,))), blade((1, 3), -1.0))


def test_hodge_matches_orientation_oracle():
    for ia in range(8):
        u = np.zeros(8, dtype=complex)
        u[ia] = 1.0
        assert np.array_equal(algebra.hodge(u), oracle_hodge(u))


def test_double_hodge_is_identity_on_blades():
    for ia in range(8):
        u = np.zeros(8, dtype=complex)
        u[ia] = 1.0
        assert np.array_equal(algebra.hodge(algebra.hodge(u)), u)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def test_inner_examples():
    dx12 = blade((1, 2))
    assert algebra.inner(dx12, dx12) == 1.0
    idx1 = blade((1,), 1j)
    assert algebra.inner(idx1, idx1) == pytest.approx(-1.0)


def test_inner_star_invariance_and_star_wedge_form():
    for _ in range(50):
        u = random_form()
        v = random_form()
        uv = algebra.inner(u, v)
        assert uv == pytest.approx(algebra.inner(algebra.hodge(u), algebra.hodge(v)), abs=1e-12)
        # <u, v> = *(u ^ *v) summed over grades, scalar part
        total = 0.0 + 0.0j
        for l in range(4):
            ul = algebra.grade_select(u, l)
            vl = algebra.grade_select(v, l)
            total += complex(algebra.hodge(algebra.wedge(ul, algebra.hodge(vl)))[0])
        assert uv == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# vee
# ---------------------------------------------------------------------------

def test_vee_table_matches_dense_oracle():
    for ia in range(8):
        for ib in range(8):
            v = np.zeros(8, dtype=complex)
            u = np.zeros(8, dtype=complex)
            v[ia] = 1.0
            u[ib] = 1.0
            assert np.allclose(algebra.vee(v, u), oracle_vee(v, u), atol=1e-15)


def test_vee_examples():
    dx1 = blade((1,))
    assert np.allclose(algebra.vee(dx1, dx1), blade(()))
    assert np.allclose(algebra.vee(blade((1, 2)), blade((3,))), 0.0)


def test_vee_wedge_adjunction():
    for _ in range(200):
        w = random_form()
        v = random_form()
        u = random_form()
        lhs = algebra.inner(algebra.wedge(w, v), u)
        rhs = algebra.inner(w, algebra.vee(v, u))
        assert abs(lhs - rhs) < 1e-12


def test_adjunction_fails_under_sign_fault():
    w = blade((1,))
    v = blade((2,))
    u = blade((1, 2))

    def defect():
        return abs(algebra.inner(algebra.wedge(w, v), u) - algebra.inner(w, algebra.vee(v, u)))

    with algebra.sign_fault_injected():
        assert defect() > 0.5
    assert defect() < 1e-15


# ---------------------------------------------------------------------------
# covector kernels
# ---------------------------------------------------------------------------

def random_field(rng, comps, n=16):
    shape = (comps, n, n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def embed_covector(c3):
    c = np.zeros((8,) + c3.shape[1:], dtype=c3.dtype)
    c[1:4] = c3
    return c


@pytest.mark.parametrize(
    "kernel, table, dense",
    [
        (algebra.wedge_cov, algebra.WEDGE_COV, algebra.wedge),
        (algebra.vee_cov, algebra.VEE_COV, algebra.vee),
    ],
)
def test_covector_kernels_match_einsum_and_dense_product(kernel, table, dense):
    rng = np.random.default_rng(31)
    c3 = random_field(rng, 3)
    u = random_field(rng, 8)
    got = kernel(c3, u)
    scale = np.max(np.abs(got))
    oracle = np.einsum("jbc,j...,b...->c...", table, c3, u)
    assert np.max(np.abs(got - oracle)) < 1e-14 * scale
    assert np.max(np.abs(got - dense(embed_covector(c3), u))) < 1e-14 * scale
    for grades in (0, 1, 2, 3, (0, 2), (1, 3)):
        restricted = kernel(c3, u, grades=grades)
        selected = kernel(c3, algebra.grade_select(u, grades))
        assert np.max(np.abs(restricted - selected)) < 1e-14 * scale
    # single values and broadcasting of a constant covector over a field
    c0 = c3[:, 0, 0, 0]
    assert np.max(np.abs(kernel(c0, u[:, 0, 0, 0]) - got[:, 0, 0, 0])) < 1e-14 * scale
    assert kernel(c0, u).shape == u.shape


@pytest.mark.parametrize("kernel", [algebra.wedge_cov, algebra.vee_cov])
def test_covector_kernels_into_given_buffers_are_bit_equal(kernel):
    rng = np.random.default_rng(33)
    c3 = random_field(rng, 3, n=8)
    u = random_field(rng, 8, n=8)
    for grades in (None, 1, (0, 2), (1, 3)):
        expected = kernel(c3, u, grades=grades)
        reached = [k for k in range(8) if np.any(expected[k] != 0)]
        out = np.full(u.shape, np.nan, dtype=complex)
        assert kernel(c3, u, grades=grades, out=out) is out
        assert out[reached].tobytes() == expected[reached].tobytes()
        # the blades the product does not reach are left as they were
        assert np.all(np.isnan(np.delete(out, reached, axis=0)))
        # a list of blade arrays serves as out, None where nothing lands
        blades = [b if k in reached else None for k, b in enumerate(np.empty_like(u))]
        kernel(c3, u, grades=grades, out=blades)
        assert np.array([blades[k] for k in reached]).tobytes() == expected[reached].tobytes()


@pytest.mark.parametrize("kernel", [algebra.wedge_cov, algebra.vee_cov])
def test_covector_kernels_read_a_dict_of_blades_bit_for_bit(kernel):
    # u as a dict of the blades that enter, as the potential passes a solve's
    # grade block; signed zeros in u and c must keep their signs in the product
    rng = np.random.default_rng(37)
    c3 = random_field(rng, 3, n=8)
    u = random_field(rng, 8, n=8)
    c3[1, ::2] = complex(-0.0, 0.0)
    u[2] = complex(-0.0, -0.0)
    u[5, 1::2] = complex(0.0, -0.0)
    for grades in (None, 0, 1, 2, 3, (0, 1), (2, 3)):
        keys = range(8) if grades is None else np.flatnonzero(np.isin(algebra.GRADES, grades))
        expected = kernel(c3, u, grades=grades)
        got = kernel(c3, {int(b): u[b] for b in keys}, grades=grades)
        assert np.array_equal(bits(got), bits(expected))
        into = [np.full(u.shape[1:], np.nan, dtype=complex) for _ in range(8)]
        kernel(c3, {int(b): u[b] for b in keys}, grades=grades, out=into)
        for k in (k for k in range(8) if np.any(expected[k] != 0)):  # the blades the product reaches
            assert np.array_equal(bits(into[k]), bits(expected[k]))


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_alternate_into_out_is_bit_equal(offset):
    rng = np.random.default_rng(35)
    u = random_field(rng, 8, n=8)
    u[2] = complex(-0.0, -0.0)
    u[5, ::2] = complex(-0.0, 0.0)
    sign = (algebra.ALT_SIGN if offset % 2 == 0 else -algebra.ALT_SIGN).reshape(8, 1, 1, 1)
    want = u * sign  # the expression before alternate took out
    assert np.array_equal(bits(algebra.alternate(u, offset)), bits(want))
    out = np.full_like(u, np.nan)
    assert algebra.alternate(u, offset, out=out) is out
    assert np.array_equal(bits(out), bits(want))
    assert algebra.alternate(u, offset, out=u) is u
    assert np.array_equal(bits(u), bits(want))
    # one form value
    v = random_form(rng)
    assert np.array_equal(bits(algebra.alternate(v, offset, out=v.copy())),
                          bits(algebra.alternate(v, offset)))


def test_grade_select_takes_one_grade_as_a_1_tuple():
    u = random_field(np.random.default_rng(36), 8, n=8)
    for grade in range(4):
        assert np.array_equal(bits(algebra.grade_select(u, grade)),
                              bits(algebra.grade_select(u, (grade,))))


def test_wedge_cov_changes_under_sign_fault():
    rng = np.random.default_rng(32)
    c3 = random_field(rng, 3)
    u = random_field(rng, 8)
    clean = algebra.wedge_cov(c3, u)
    with algebra.sign_fault_injected():
        faulty = algebra.wedge_cov(c3, u)
    assert np.max(np.abs(faulty - clean)) > 0.1
    assert np.array_equal(algebra.wedge_cov(c3, u), clean)


def test_commutator_identity():
    # u v (v ^ w) - v ^ (u v w) = (-1)^l <u, v> w for 1-forms u, v
    for _ in range(100):
        u = random_one_form()
        v = random_one_form()
        for l in range(4):
            w = algebra.grade_select(random_form(), l)
            lhs = algebra.vee(u, algebra.wedge(v, w)) - algebra.wedge(v, algebra.vee(u, w))
            rhs = ((-1) ** l) * algebra.inner(u, v) * w
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_corollary_product_identity():
    for _ in range(100):
        u1 = random_one_form()
        v1 = random_one_form()
        for l in range(4):
            ul = algebra.grade_select(random_form(), l)
            vl = algebra.grade_select(random_form(), l)
            lhs = (algebra.inner(algebra.vee(u1, ul), algebra.vee(v1, vl))
                   + algebra.inner(algebra.wedge(v1, ul), algebra.wedge(u1, vl)))
            rhs = algebra.inner(u1, v1) * algebra.inner(ul, vl)
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# symmetric tensors
# ---------------------------------------------------------------------------

def test_sym_product_examples():
    dx1, dx2 = np.eye(3)[:2]  # the components of the covectors dx1 and dx2
    t11 = algebra.sym_product_components(dx1, dx1)
    assert t11[SYM_PAIRS.index((0, 0))] == 1.0
    assert t11[SYM_PAIRS.index((0, 1))] == 0.0
    t12 = algebra.sym_product_components(dx1, dx2)
    assert t12[SYM_PAIRS.index((0, 1))] == 0.5  # t_12 = t_21, packed once
    assert t12[SYM_PAIRS.index((0, 0))] == 0.0


def test_sym_product_commutes():
    for _ in range(50):
        u = random_one_form()[1:4]
        v = random_one_form()[1:4]
        assert np.allclose(algebra.sym_product_components(u, v), algebra.sym_product_components(v, u))

