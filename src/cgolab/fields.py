"""Periodic grids of graded forms with FFT-diagonal exterior calculus.

Conventions used throughout:

* The box is [0, L)^3 sampled on an n^3 lattice, n a power of two.
* Spectral coefficients are Fourier-series coefficients: ``coeffs =
  fftn(values) / n^3``, so a constant field has its value at xi = 0.
  The one transform pair, :func:`_forward` and :func:`_inverse`, runs
  ``numpy.fft`` axis by axis and folds the 1/n^3 into the forward axes;
  :func:`fft_forward` and :func:`fft_inverse` apply it to all 8 blades.
* Discrete integrals carry the quadrature weight (L/n)^3; with the
  convention above the discrete Parseval identity
  ``(L/n)^3 sum_x <f, conj g> = L^3 sum_xi <f_hat, conj g_hat>``
  holds exactly, and all norms approximate their continuum versions.
* Weighted norms built from the conjugated Helmholtz symbol
  ``p(xi) = |xi|^2 - 2i <zeta, xi>`` clamp |p| from below by a floor and
  exclude the xi = 0 mode: the homogeneous weight is singular there and
  a periodic surrogate has no sensible analogue (the resolvent likewise
  annihilates that mode and reports it as clamped).
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from . import algebra
from .algebra import GradedForm
from .errors import ResonantGridError

_BIN_MAGIC = b"CGOF"
_BIN_VERSION = 1


def set_fft_workers(n: int) -> int:
    """Kept only for ``perfbench/run.py``, which still calls it: the FFT is serial."""
    return 1


def seeded_rng(*key) -> np.random.Generator:
    """Counter-based generator keyed by integers; safe to derive
    independent deterministic streams for parallel work."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points per axis on a box of side length L."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid.n must be a power of two >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"grid.length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return (self.length / self.n) ** 3

    @property
    def volume(self) -> float:
        return self.length**3

    # x and freq_index, read only in set-up, are formed where they are read
    @property
    def freq_index(self) -> np.ndarray:
        """Integer frequency indices in FFT order, shape (3, n, n, n)."""
        k = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
        return np.stack([kx, ky, kz])

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 of the frequency covectors (2 pi / L) * integer lattice."""
        xi = (2.0 * np.pi / self.length) * self.freq_index.astype(float)
        return np.sum(xi**2, axis=0)

    @cached_property
    def xi_op(self) -> np.ndarray:
        """Derivative-symbol covectors: xi with the Nyquist rows zeroed.

        The index -n/2 has no +n/2 partner on the lattice, so keeping it
        in an odd-order symbol breaks the exact skew-adjointness of the
        discrete derivative; zeroing it restores xi(-k) = -xi(k) for
        every mode.  All differential operators, symbols and weighted
        norms use this covector so the operator identities hold exactly
        on arbitrary grid functions.
        """
        index = self.freq_index
        out = (2.0 * np.pi / self.length) * index.astype(float)  # xi, not kept
        out[index == -(self.n // 2)] = 0.0
        return out

    @cached_property
    def xi_op_sq(self) -> np.ndarray:
        return np.sum(self.xi_op**2, axis=0)

    @property
    def x(self) -> np.ndarray:
        """Physical coordinates, shape (3, n, n, n)."""
        t = np.arange(self.n) * self.spacing
        X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
        return np.stack([X, Y, Z])

    @property
    def subbox_distance(self) -> np.ndarray:
        """Max-norm distance of each point from the center, shape (n, n, n)."""
        return np.max(np.abs(self.x - self.length / 2), axis=0)

    @cached_property
    def outside_subbox(self) -> np.ndarray:
        """Points outside the central sub-box [L/4, 3L/4]^3, shape (n, n, n)."""
        return self.subbox_distance > self.length / 4

    def on_lattice(self, covector) -> bool:
        """Whether a constant real covector sits on the frequency lattice."""
        idx = np.asarray(covector) * self.length / (2.0 * np.pi)
        return bool(np.all(np.abs(idx - np.rint(idx)) <= 1e-9))


class FormField:
    """Grid of graded forms: complex values of shape (8, n, n, n)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        expected = (8, grid.n, grid.n, grid.n)
        if values.shape != expected:
            raise ValueError(f"field values must have shape {expected}, got {values.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zero(cls, grid: Grid) -> "FormField":
        return cls(grid, np.zeros((8, grid.n, grid.n, grid.n), dtype=complex))

    @classmethod
    def constant(cls, grid: Grid, form: GradedForm) -> "FormField":
        values = np.broadcast_to(
            form.data.reshape(8, 1, 1, 1), (8, grid.n, grid.n, grid.n)
        ).copy()
        return cls(grid, values)

    @classmethod
    def from_scalar(cls, grid: Grid, samples: np.ndarray) -> "FormField":
        values = np.zeros((8, grid.n, grid.n, grid.n), dtype=complex)
        values[0] = samples
        return cls(grid, values)

    def select(self, grades) -> "FormField":
        return FormField(self.grid, algebra.grade_select(self.values, grades))

    def alternate(self, offset: int = 0) -> "FormField":
        return FormField(self.grid, algebra.alternate(self.values, offset))

    def vee(self, other: "FormField") -> "FormField":
        return FormField(self.grid, algebra.vee(self.values, other.values))

    def hodge(self) -> "FormField":
        return FormField(self.grid, algebra.hodge(self.values))

    def inner(self, other: "FormField") -> np.ndarray:
        return algebra.inner(self.values, other.values)

    def max_abs(self) -> float:
        return float(np.max(algebra.form_abs(self.values)))

    def __add__(self, other):
        return FormField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return FormField(self.grid, self.values - other.values)


class SpectralField:
    """Frequency-side twin of FormField; coeffs are Fourier-series coefficients."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        expected = (8, grid.n, grid.n, grid.n)
        if coeffs.shape != expected:
            raise ValueError(f"coeffs must have shape {expected}, got {coeffs.shape}")
        self.grid = grid
        self.coeffs = coeffs


def _parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a pool of ``workers`` threads when
    there is more than one; results keep the order of ``items``."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _lines(a: np.ndarray, axis: int, inverse: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Transform a along one of its last three axes into out (new when None,
    or a itself): forward scaled by 1/n, inverse unscaled."""
    return (np.fft.ifft if inverse else np.fft.fft)(a, axis=axis, norm="forward", out=out)


def _transform(a: np.ndarray, out=None, inverse=False, box=(slice(None),) * 3) -> np.ndarray:
    """The pair over the last three axes, in the order -3, -2, -1: forward,
    ``fftn(a) / n^3`` (each axis's 1/n is exact, n being a power of two),
    or the unscaled inverse; out may be a.  With ``box`` each axis is cut to
    the box, so later axes transform only the lines that reach it."""
    for axis, keep in zip((-3, -2, -1), box):
        a = out = _lines(a, axis, inverse, out)[(..., keep) + (slice(None),) * (-1 - axis)]
    return out


_forward = partial(_transform, inverse=False)
_inverse = partial(_transform, inverse=True)


def _forward_box(z: np.ndarray, box: tuple[slice, slice, slice], n: int) -> np.ndarray:
    """``_forward`` of the (..., n, n, n) field equal to z on the box and 0
    elsewhere: axis -3 on the box's lines, axis -2 on the planes they fill,
    axis -1 on every line, each stored last in memory so that its lines run in
    few loops.  Lines of zeros transform to zeros: the result is the full one."""
    for axis, keep in zip((-3, -2, -1), box):
        t = np.zeros(z.shape[:axis] + z.shape[axis:][1:][::-1] + (n,), complex).swapaxes(-1, axis)
        t[(..., keep) + (slice(None),) * (-1 - axis)] = z
        z = _lines(t, axis, False, t)
    return z


def fft_forward(f: FormField) -> SpectralField:
    return SpectralField(f.grid, _forward(f.values))


def fft_inverse(F: SpectralField) -> FormField:
    return FormField(F.grid, _inverse(F.coeffs))


def _spectral_map(f: FormField, fn) -> FormField:
    """Apply ``fn`` to the Fourier coefficients of f."""
    F = fft_forward(f)
    return fft_inverse(SpectralField(f.grid, fn(F.coeffs)))


# ---------------------------------------------------------------------------
# exterior calculus as Fourier multipliers
# ---------------------------------------------------------------------------

def _spectral_covector(grid: Grid, zeta) -> np.ndarray:
    """Combined symbol covector i*xi + zeta, shape (3, n, n, n)."""
    c = 1j * grid.xi_op
    if zeta is not None:
        c = c + np.asarray(zeta, dtype=complex).reshape(3, 1, 1, 1)
    return c


def ext_deriv(f: FormField, zeta=None) -> FormField:
    """Exterior derivative; with zeta, d + zeta^."""
    c = _spectral_covector(f.grid, zeta)
    return _spectral_map(f, lambda F: algebra.wedge_cov(c, F))


def coderiv(f: FormField, zeta=None) -> FormField:
    """Codifferential; with zeta the conjugated version with (-1)^l zeta v."""
    c = _spectral_covector(f.grid, zeta)
    return _spectral_map(f, lambda F: algebra.vee_cov(c, algebra.alternate(F)))


def d_plus_delta(f: FormField, zeta=None) -> FormField:
    """(d + delta) in one transform pair; conjugated when zeta is given."""
    c = _spectral_covector(f.grid, zeta)
    return _spectral_map(
        f, lambda F: algebra.wedge_cov(c, F) + algebra.vee_cov(c, algebra.alternate(F))
    )


def laplacian_symbol(grid: Grid, zeta=None) -> np.ndarray:
    """Symbol of the conjugated Hodge Laplacian: |xi|^2 - 2i<z,xi> - <z,z>."""
    if zeta is None:
        return grid.xi_op_sq.astype(complex)
    z = np.asarray(zeta, dtype=complex)
    return helmholtz_symbol(grid, z) - np.dot(z, z)


def conj_laplacian(f: FormField, zeta=None) -> FormField:
    """Apply the (conjugated) Hodge Laplacian spectrally to every blade."""
    m = laplacian_symbol(f.grid, zeta)
    return _spectral_map(f, lambda F: F * m)


def helmholtz_symbol(grid: Grid, zeta) -> np.ndarray:
    """p(xi) = |xi|^2 - 2i <zeta, xi> on the frequency lattice."""
    z = np.asarray(zeta, dtype=complex)
    zdot = np.einsum("j,j...->...", z, grid.xi_op)
    return grid.xi_op_sq - 2j * zdot


def default_floor(grid: Grid) -> float:
    """The clamp floor for |p|: well below one lattice frequency square."""
    return 1e-8 * (2.0 * np.pi / grid.length) ** 2


def default_clamp_threshold(grid: Grid) -> float:
    """Acceptable clamp fraction: the structural kernel of the symbol
    (origin, paired-construction zero, Nyquist-row combinations) stays
    O(10) modes, so the default scales with the lattice size."""
    return max(1e-3, 32.0 / grid.n**3)


@dataclass(frozen=True)
class ClampReport:
    """Bookkeeping for frequencies where |p| fell below the clamp floor."""

    total: int
    clamped: int
    floor: float
    threshold: float

    @property
    def fraction(self) -> float:
        return self.clamped / self.total

    def raise_if_exceeded(self) -> ClampReport:
        """Raise ResonantGridError when the clamp fraction exceeds the
        threshold; otherwise return the report."""
        if self.fraction > self.threshold:
            raise ResonantGridError(
                f"{self.clamped} of {self.total} lattice frequencies are inside the "
                f"clamp floor; jitter s or refine the grid",
                diagnostics={**asdict(self), "fraction": self.fraction},
            )
        return self


class ClampedSymbol:
    """The symbol p for one conjugation covector, with its clamp policy.

    Modes with |p| below :func:`default_floor` are clamped: the inverse
    annihilates them and both weights vanish on them, so norms, resolvent
    and solver all live on the same sublattice.  The clamp set always
    contains xi = 0, and for the paired conjugation geometries also
    xi = -rho, where the symbol vanishes identically.
    """

    def __init__(self, grid: Grid, zeta):
        p = helmholtz_symbol(grid, zeta)
        self.grid = grid
        self.floor = default_floor(grid)
        self.mask = np.abs(p) < self.floor
        self.divisor = np.where(self.mask, 1.0, p)
        self._weights: dict[float, np.ndarray] = {}

    def weight(self, b: float) -> np.ndarray:
        """Norm weight |p|^(2b) for b = +-1/2, zero on the clamped modes."""
        if b not in (0.5, -0.5):
            raise ValueError(f"b must be +1/2 or -1/2, got {b}")
        if b not in self._weights:
            # |divisor| is |p| >= floor off the mask, which is zeroed
            w = np.abs(self.divisor) ** (2.0 * b)
            w[self.mask] = 0.0
            self._weights[b] = w
        return self._weights[b]

    def norm(self, coeffs: np.ndarray, b: float, scratch=None) -> float:
        """Weighted-l2 norm of spectral coefficients, all components;
        ``scratch`` as in :func:`_weighted_sq_sum`."""
        return float(np.sqrt(self.grid.volume * _weighted_sq_sum(self.weight(b), coeffs, scratch)))

    def inverse(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """coeffs / p over the trailing frequency axes, 0 on the clamped modes,
        into ``out`` when given (which may be coeffs)."""
        out = np.divide(coeffs, self.divisor, out=out)
        out[..., self.mask] = 0.0
        return out

    def report(self) -> ClampReport:
        """Clamp count against :func:`default_clamp_threshold`."""
        return ClampReport(self.grid.n**3, int(np.sum(self.mask)), self.floor,
                           default_clamp_threshold(self.grid))


def bourgain_weight(grid: Grid, zeta, b: float) -> np.ndarray:
    """Norm weight |p|^(2b) on the unclamped sublattice (see :class:`ClampedSymbol`)."""
    return ClampedSymbol(grid, zeta).weight(b)


def _weighted_sq_sum(w: np.ndarray, coeffs: np.ndarray, scratch=None) -> float:
    """sum over modes of w |c|^2, with |c|^2 summed over the leading
    (component) axis of coeffs: the square of every weighted norm.

    The components are added one by one in order, as ``np.sum(..., axis=0)``
    adds them.  ``scratch``, two real arrays of one component's shape, holds
    |c|^2 of a component and the mode sums; new ones when None.
    """
    sq, modes = (np.empty(w.shape), np.empty(w.shape)) if scratch is None else scratch
    np.square(np.abs(coeffs[0], out=modes), out=modes)
    for c in coeffs[1:]:
        modes += np.square(np.abs(c, out=sq), out=sq)
    return np.sum(np.multiply(w, modes, out=modes))


def bourgain_norm(f: FormField, zeta, b: float) -> float:
    """Weighted-l2 norm over the nonzero frequency lattice, all grades."""
    return ClampedSymbol(f.grid, zeta).norm(fft_forward(f).coeffs, b)


def resolvent(f: FormField, zeta, k: float):
    """Invert the shifted conjugated Laplacian by dividing by the symbol p.

    Requires <zeta, zeta> = -k^2, which makes p the symbol of the
    operator being inverted.  Frequencies with |p| below the clamp floor are
    annihilated and counted in the report: the symbol vanishes exactly
    at xi = 0 (and at xi = -rho for the paired conjugation covectors),
    so the inverse is defined on the complementary sublattice, where it
    is an exact two-sided inverse.
    """
    assert_admissible(zeta, k)
    sym = ClampedSymbol(f.grid, zeta)
    out = SpectralField(f.grid, sym.inverse(fft_forward(f).coeffs))
    return fft_inverse(out), sym.report()


def resolvent_operator_norm(grid: Grid, zeta) -> float:
    """Diagonal operator norm of the resolvent between the +-1/2 spaces:
    weight^(1/2) |p|^(-1) weight^(1/2) maximized over the active modes."""
    sym = ClampedSymbol(grid, zeta)
    return float(np.max(sym.weight(0.5) / np.abs(sym.divisor)))


def assert_admissible(zeta, k: float) -> None:
    z = np.asarray(zeta, dtype=complex)
    defect = abs(np.dot(z, z) + k**2)
    scale = max(k**2, float(np.sum(np.abs(z) ** 2)), 1.0)
    if defect > 1e-10 * scale:
        raise ValueError(f"<zeta,zeta> = {np.dot(z, z)} is not -k^2 = {-k**2}")


# ---------------------------------------------------------------------------
# plain Sobolev norms and pairings
# ---------------------------------------------------------------------------

def quadrature_pairing(f: FormField, g: FormField) -> complex:
    """Bilinear integral (L/n)^3 sum_x <f, g>; no conjugation."""
    return complex(f.grid.cell_volume * np.sum(f.inner(g)))


def hermitian_pairing(f: FormField, g: FormField) -> complex:
    """Sesquilinear L^2 pairing (conjugates the second argument)."""
    return complex(f.grid.cell_volume * np.sum(f.values * np.conj(g.values)))


def spectral_pairing(f: FormField, g: FormField) -> complex:
    """Frequency-side sesquilinear pairing L^3 sum_xi <f_hat, conj g_hat>."""
    F, G = fft_forward(f), fft_forward(g)
    return complex(f.grid.volume * np.sum(F.coeffs * np.conj(G.coeffs)))


def l2_norm(f: FormField) -> float:
    F = fft_forward(f)
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(F.coeffs) ** 2)))


def sobolev_norms(f: FormField) -> tuple[float, float]:
    """(L^2 norm, H^-1 norm); the H^-1 weight is (1 + |xi|^2)^(-1)."""
    F = fft_forward(f)
    density = np.sum(np.abs(F.coeffs) ** 2, axis=0)
    l2 = F.grid.volume * np.sum(density)
    hm1 = F.grid.volume * np.sum(density / (1.0 + F.grid.xi_op_sq))
    return float(np.sqrt(l2)), float(np.sqrt(hm1))


def mollify(f: FormField, h: float) -> FormField:
    """Low-pass by the Gaussian multiplier exp(-(h |xi|)^2 / 2)."""
    if not h > 0:
        raise ValueError(f"mollification scale must be positive, got {h}")
    m = np.exp(-0.5 * (h**2) * f.grid.xi_sq)
    return _spectral_map(f, lambda F: F * m)


# ---------------------------------------------------------------------------
# symmetric tensor fields
# ---------------------------------------------------------------------------

def sym_product_field(u: FormField, v: FormField) -> np.ndarray:
    """Pointwise symmetric product of the grade-1 parts, shape (6, n, n, n)."""
    return algebra.sym_product_components(u.values[1:4], v.values[1:4])


def sym_coderiv(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """Formal adjoint symmetric derivative of a symmetric 2-tensor field.

    Coordinate form: component k of the (3, n, n, n) output is -sum_j d_j (t_jk + t_kj).
    """
    if tensor.shape != (6, grid.n, grid.n, grid.n):
        raise ValueError("tensor field must have shape (6, n, n, n)")
    that = _forward(tensor)
    full = np.empty((3, 3) + tensor.shape[1:], dtype=complex)
    for idx, (j, k) in enumerate(algebra.SYM_PAIRS):
        full[j, k] = full[k, j] = that[idx]
    out_hat = -2.0 * np.einsum("j...,jk...->k...", 1j * grid.xi_op, full)
    return _inverse(out_hat, out_hat)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def plane_wave_scalar(grid: Grid, kvec) -> np.ndarray:
    """exp(i k.x) sampled on the grid, shape (n, n, n)."""
    phase = np.einsum("j,j...->...", np.asarray(kvec, dtype=float), grid.x)
    return np.exp(1j * phase)


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    band: int,
    grades=(0, 1, 2, 3),
    zero_mean: bool = False,
) -> FormField:
    """Random field with spectrum confined to max_i |k_i| <= band."""
    n = grid.n
    coeffs = np.zeros((8, n, n, n), dtype=complex)
    mask = np.all(np.abs(grid.freq_index) <= band, axis=0)
    nsel = int(np.sum(mask))
    for blade in np.nonzero(np.isin(algebra.GRADES, grades))[0]:
        coeffs[blade][mask] = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
    if zero_mean:
        coeffs[:, 0, 0, 0] = 0.0
    return fft_inverse(SpectralField(grid, coeffs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_field_bin(f: FormField, path) -> None:
    """Flat binary snapshot: magic, version, n, L, then 8 row-major
    complex-double components, little-endian."""
    header = _BIN_MAGIC + struct.pack("<IIdI", _BIN_VERSION, f.grid.n, f.grid.length, 8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def load_field_bin(path) -> FormField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BIN_MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) < 20:
            raise ValueError(f"snapshot is {4 + len(header)} bytes, shorter than its 24-byte header")
        version, n, length, ncomp = struct.unpack("<IIdI", header)
        if version != _BIN_VERSION or ncomp != 8:
            raise ValueError(f"unsupported snapshot layout (version {version}, {ncomp} comps)")
        payload = fh.read()
    if len(payload) != 8 * n**3 * 16:
        raise ValueError(f"snapshot payload is {len(payload)} bytes, expected {8 * n**3 * 16}")
    data = np.frombuffer(payload, dtype="<c16").reshape(8, n, n, n)
    if not np.all(np.isfinite(data)):
        raise ValueError("snapshot values must be finite")
    return FormField(Grid(n, length), data.astype(complex))
