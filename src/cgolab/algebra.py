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
from dataclasses import dataclass

import numpy as np

#: blade index sets, coordinates numbered 1..3
BLADES = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
BLADE_INDEX = {b: i for i, b in enumerate(BLADES)}
GRADES = np.array([len(b) for b in BLADES])
#: (-1)^grade per blade; used by the codifferential and operator sign flips
ALT_SIGN = np.where(GRADES % 2 == 0, 1.0, -1.0)

#: symmetric 2-tensor component order, 0-based coordinate pairs j <= k
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


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


def wedge(u, v):
    """Exterior product of graded coefficient arrays (leading axis 8)."""
    return np.einsum("abc,a...,b...->c...", WEDGE, u, v)


def vee(u, v):
    """Contraction product: grade m first operand against grade l >= m."""
    return np.einsum("abc,a...,b...->c...", VEE, u, v)


def _cov_product(table, c, u, grades=None, out=None, term=None):
    """Sum of sign * c[j] * u[b] into out[k] over the nonzero (j, b, k) of a
    grade-1 sign table, whose entries are +-1.

    The entries are read from the live table on every call (a dozen of
    its 192), so a corrupted sign reaches the product.  With ``grades``
    only the blades of u of those grades enter, as if u had been passed
    through :func:`grade_select` first.

    ``out`` (8 blades: an array with leading axis 8, or a list of 8 blade
    arrays) and ``term`` (the shape of one blade), given together, form the
    product in place of new arrays.  Then only the blades of out that the
    product reaches are written, each summed from +0.0 as in a new array,
    and the others may be None; ``term`` holds each c[j] * u[b].
    """
    c = np.asarray(c)
    u = np.asarray(u)
    if grades is not None and np.isscalar(grades):
        grades = (grades,)
    entries = [(j, b, k) for j, b, k in zip(*np.nonzero(table))
               if grades is None or GRADES[b] in grades]
    if out is None:
        shape = np.broadcast_shapes(c.shape[1:], u.shape[1:])
        out = np.zeros((8,) + shape, dtype=np.result_type(table, c, u))
        term = np.empty(shape, dtype=out.dtype)
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


def wedge_cov(c, u, grades=None, out=None, term=None):
    """Wedge with a covector given by its 3 components (leading axis 3),
    optionally restricted to the blades of u of the given grades; ``out``
    and ``term`` as in :func:`_cov_product`."""
    return _cov_product(WEDGE_COV, c, u, grades, out, term)


def vee_cov(c, u, grades=None, out=None, term=None):
    """Contraction by a covector given by its 3 components, optionally
    restricted to the blades of u of the given grades; ``out`` and ``term``
    as in :func:`_cov_product`."""
    return _cov_product(VEE_COV, c, u, grades, out, term)


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
    """Keep the blades of the given grades, zero the rest."""
    if np.isscalar(grades):
        grades = (grades,)
    mask = np.isin(GRADES, grades).astype(float)
    shape = (8,) + (1,) * (np.asarray(u).ndim - 1)
    return u * mask.reshape(shape)


def alternate(u, offset=0):
    """Scale each grade-l block by (-1)^(l+offset)."""
    sign = ALT_SIGN if offset % 2 == 0 else -ALT_SIGN
    shape = (8,) + (1,) * (np.asarray(u).ndim - 1)
    return u * sign.reshape(shape)


def form_abs(u):
    """Pointwise magnitude sqrt(sum_blades |coeff|^2)."""
    return np.sqrt(np.sum(np.abs(u) ** 2, axis=0))


def is_pure_grade(u, grade):
    return not np.any(np.asarray(u)[GRADES != grade])


def sym_product_components(u3, v3):
    """Symmetric product of two covectors: entries (u_j v_k + u_k v_j)/2."""
    u3 = np.asarray(u3)
    v3 = np.asarray(v3)
    return np.stack([0.5 * (u3[j] * v3[k] + u3[k] * v3[j]) for j, k in SYM_PAIRS])


@dataclass(frozen=True)
class GradedForm:
    """One graded form value: 8 complex blade coefficients."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (8,):
            raise ValueError(f"graded form needs 8 coefficients, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("graded form coefficients must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def zero(cls) -> "GradedForm":
        return cls(np.zeros(8, dtype=complex))

    @classmethod
    def scalar(cls, c) -> "GradedForm":
        data = np.zeros(8, dtype=complex)
        data[0] = c
        return cls(data)

    @classmethod
    def volume(cls, c=1.0) -> "GradedForm":
        data = np.zeros(8, dtype=complex)
        data[7] = c
        return cls(data)

    @classmethod
    def covector(cls, components) -> "GradedForm":
        data = np.zeros(8, dtype=complex)
        data[1:4] = np.asarray(components, dtype=complex)
        return cls(data)

    @classmethod
    def blade(cls, indices, c=1.0) -> "GradedForm":
        data = np.zeros(8, dtype=complex)
        data[BLADE_INDEX[tuple(indices)]] = c
        return cls(data)

    def wedge(self, other: "GradedForm") -> "GradedForm":
        return GradedForm(wedge(self.data, other.data))

    def vee(self, other: "GradedForm") -> "GradedForm":
        return GradedForm(vee(self.data, other.data))

    def hodge(self) -> "GradedForm":
        return GradedForm(hodge(self.data))

    def inner(self, other: "GradedForm") -> complex:
        return complex(inner(self.data, other.data))

    def grade(self, l: int) -> "GradedForm":
        return GradedForm(grade_select(self.data, l))

    def sym_product(self, other: "GradedForm") -> "SymTensor2":
        for form in (self, other):
            if not is_pure_grade(form.data, 1):
                raise ValueError("symmetric product requires pure grade-1 forms")
        return SymTensor2(sym_product_components(self.data[1:4], other.data[1:4]))

    def norm(self) -> float:
        return float(form_abs(self.data))

    def __add__(self, other):
        return GradedForm(self.data + other.data)

    def __sub__(self, other):
        return GradedForm(self.data - other.data)

    def __mul__(self, c):
        return GradedForm(self.data * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric complex 2-tensor, entries stored once for j <= k."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (6,):
            raise ValueError(f"symmetric 2-tensor needs 6 entries, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "data", arr)

    def entry(self, j: int, k: int) -> complex:
        """Entry for 1-based coordinates (j, k) in either order."""
        pair = (min(j, k) - 1, max(j, k) - 1)
        return complex(self.data[SYM_PAIRS.index(pair)])
