"""Pointwise exterior algebra of complex graded forms on R^3.

A graded form at a point stores all 8 blade coefficients in one complex
vector, ordered

    1, dx1, dx2, dx3, dx1^dx2, dx1^dx3, dx2^dx3, dx1^dx2^dx3.

Every product here is bilinear; nothing conjugates its arguments.  The
blade sign tables are precomputed at import time and the test suite
cross-checks them against an independent permutation-parity oracle.

All operations accept plain ndarrays whose leading axis is the blade
axis, so the same kernels serve single form values (shape ``(8,)``) and
whole grids of forms (shape ``(8, n, n, n)``).
"""

from __future__ import annotations

import contextlib

import numpy as np

#: blade index sets, coordinates numbered 1..3
BLADES = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
BLADE_INDEX = {b: i for i, b in enumerate(BLADES)}
GRADES = np.array([len(b) for b in BLADES])
#: (-1)^grade per blade; used by the codifferential and operator sign flips
ALT_SIGN = np.where(GRADES % 2 == 0, 1.0, -1.0)

#: symmetric 2-tensor component order, 0-based coordinate pairs j <= k
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
#: position of the entry (j, k), or (k, j), in the SYM_PAIRS order
SYM_INDEX = [[SYM_PAIRS.index((min(j, k), max(j, k))) for k in range(3)] for j in range(3)]


def _merge_sign(indices):
    """Sign of the permutation sorting ``indices``, or 0 on a repeat."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


def _build_wedge():
    table = np.zeros((8, 8, 8))
    for ia, a in enumerate(BLADES):
        for ib, b in enumerate(BLADES):
            sign, merged = _merge_sign(a + b)
            if sign:
                table[ia, ib, BLADE_INDEX[merged]] = sign
    return table


def _build_hodge(wedge_table):
    perm = np.zeros(8, dtype=int)
    sign = np.zeros(8)
    vol = BLADE_INDEX[(1, 2, 3)]
    for ia, a in enumerate(BLADES):
        comp = tuple(i for i in (1, 2, 3) if i not in a)
        ic = BLADE_INDEX[comp]
        perm[ia] = ic
        # orientation: a ^ comp = sign * dx1^dx2^dx3
        sign[ia] = wedge_table[ia, ic, vol]
    return perm, sign


def _build_vee(wedge_table, hodge_perm, hodge_sign):
    n = 3
    table = np.zeros((8, 8, 8))
    for ia, a in enumerate(BLADES):  # first operand, grade m
        m = len(a)
        for ib, b in enumerate(BLADES):  # second operand, grade l
            l = len(b)
            # (-1)^{(n+m-l)(l-m)} * hodge(a ^ hodge(b))
            star_b = hodge_perm[ib]
            for ie in range(8):
                w = wedge_table[ia, star_b, ie]
                if w:
                    ic = hodge_perm[ie]
                    s = ((-1) ** ((n + m - l) * (l - m))) * hodge_sign[ib] * w * hodge_sign[ie]
                    table[ia, ib, ic] = s
    return table


WEDGE = _build_wedge()
HODGE_PERM, HODGE_SIGN = _build_hodge(WEDGE)
VEE = _build_vee(WEDGE, HODGE_PERM, HODGE_SIGN)

# grade-1 slices: fast paths for products with a covector (3 components)
WEDGE_COV = WEDGE[1:4]
VEE_COV = VEE[1:4]


@contextlib.contextmanager
def sign_fault_injected():
    """Corrupt one wedge-table sign for the duration of the block.

    Test hook for the self-check command: the derived vee table is left
    intact, so the wedge/vee adjunction identity must fail while the
    fault is active.
    """
    ia, ib = BLADE_INDEX[(1,)], BLADE_INDEX[(2,)]
    ic = BLADE_INDEX[(1, 2)]
    WEDGE[ia, ib, ic] = -WEDGE[ia, ib, ic]
    try:
        yield
    finally:
        WEDGE[ia, ib, ic] = -WEDGE[ia, ib, ic]


def one_form(components):
    """The graded form (8,) whose grade-1 blades hold the 3 given components."""
    out = np.zeros(8, dtype=complex)
    out[1:4] = components
    return out


def wedge(u, v):
    """Exterior product of graded coefficient arrays (leading axis 8)."""
    return np.einsum("abc,a...,b...->c...", WEDGE, u, v)


def vee(u, v):
    """Contraction product: grade m first operand against grade l >= m."""
    return np.einsum("abc,a...,b...->c...", VEE, u, v)


def _cov_product(table, c, u, grades=None, out=None):
    """Sum of sign * c[j] * u[b] into out[k] over the nonzero (j, b, k) of a
    grade-1 sign table, whose entries are +-1.

    The entries are read from the live table on every call (a dozen of
    its 192), so a corrupted sign reaches the product.  With ``grades``
    only the blades of u of those grades enter, as if u had been passed
    through :func:`grade_select` first.  u may be a dict of the blades that enter.

    With ``out`` (8 blades: an array with leading axis 8, a list of 8 blade
    arrays, or a dict of them) the product is formed there in place of a new array.
    Then only the blades of out that the product reaches are written, each
    summed from +0.0 as in a new array, and the others may be None.
    """
    c = np.asarray(c)
    u = u if isinstance(u, dict) else dict(enumerate(np.asarray(u)))  # blade index -> blade
    if grades is not None and np.isscalar(grades):
        grades = (grades,)
    entries = [(j, b, k) for j, b, k in zip(*np.nonzero(table))
               if grades is None or GRADES[b] in grades]
    shape = np.broadcast_shapes(c.shape[1:], *map(np.shape, u.values()))
    term = np.empty(shape, dtype=np.result_type(table, c, *u.values()))  # each c[j] * u[b]
    if out is None:
        out = np.zeros((8,) + shape, dtype=term.dtype)
    else:
        for k in {k for _, _, k in entries}:
            out[k][...] = 0.0
    for j, b, k in entries:
        np.multiply(c[j], u[b], out=term)
        if table[j, b, k] > 0:
            out[k] += term
        else:
            out[k] -= term
    return out


def wedge_cov(c, u, grades=None, out=None):
    """Wedge with a covector given by its 3 components (leading axis 3),
    optionally restricted to the blades of u of the given grades; ``out``
    as in :func:`_cov_product`."""
    return _cov_product(WEDGE_COV, c, u, grades, out)


def vee_cov(c, u, grades=None, out=None):
    """Contraction by a covector given by its 3 components, optionally
    restricted to the blades of u of the given grades; ``out`` as in
    :func:`_cov_product`."""
    return _cov_product(VEE_COV, c, u, grades, out)


def hodge(u):
    """Star operator fixed by the orientation dx1^dx2^dx3."""
    out = np.empty_like(np.asarray(u))
    shape = (8,) + (1,) * (out.ndim - 1)
    out[HODGE_PERM] = u * HODGE_SIGN.reshape(shape)
    return out


def inner(u, v):
    """Bilinear inner product; orthonormal blades pair to 1, no conjugation."""
    return np.sum(np.asarray(u) * np.asarray(v), axis=0)


def grade_select(u, grades):
    """Keep the blades of the given grades (one grade or several), zero the rest."""
    mask = np.isin(GRADES, grades).astype(float)
    shape = (8,) + (1,) * (np.asarray(u).ndim - 1)
    return u * mask.reshape(shape)


def alternate(u, offset=0, out=None):
    """Scale each grade-l block by (-1)^(l+offset), into ``out`` (may be u) when given."""
    sign = ALT_SIGN if offset % 2 == 0 else -ALT_SIGN
    shape = (8,) + (1,) * (np.asarray(u).ndim - 1)
    return np.multiply(u, sign.reshape(shape), out=out)


def form_abs(u):
    """Pointwise magnitude sqrt(sum_blades |coeff|^2)."""
    return np.sqrt(np.sum(np.abs(u) ** 2, axis=0))


def sym_product_components(u3, v3):
    """Symmetric product of two covectors: entries (u_j v_k + u_k v_j)/2."""
    u3 = np.asarray(u3)
    v3 = np.asarray(v3)
    return np.stack([0.5 * (u3[j] * v3[k] + u3[k] * v3[j]) for j, k in SYM_PAIRS])
