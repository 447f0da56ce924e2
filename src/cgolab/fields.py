"""Periodic grids of graded forms with FFT-diagonal exterior calculus.

Conventions used throughout:

* The box is [0, L)^3 sampled on an n^3 lattice, n a power of two.
* Spectral coefficients are Fourier-series coefficients: ``coeffs =
  fftn(values) / n^3``, so a constant field has its value at xi = 0.
  The one transform pair, :func:`_forward` and :func:`_inverse`, runs
  ``numpy.fft`` axis by axis and folds the 1/n^3 into the forward axes;
  :func:`fft_forward` and :func:`fft_inverse` apply it to all 8 blades,
  and a field and its coefficients are each a :class:`FormField`.
* Discrete integrals carry the quadrature weight (L/n)^3; with the
  convention above the discrete Parseval identity
  ``(L/n)^3 sum_x <f, conj g> = L^3 sum_xi <f_hat, conj g_hat>``
  holds exactly, and all norms approximate their continuum versions.
* Weighted norms built from the conjugated Helmholtz symbol
  ``p(xi) = |xi|^2 - 2i <zeta, xi>`` exclude every mode where |p| is
  under a floor: the weights are zero there, and the resolvent annihilates
  those modes and reports them clamped.  The clamped modes always include
  xi = 0, where the homogeneous weight is singular and a periodic
  surrogate has none.
"""

from __future__ import annotations

import contextvars
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from functools import cache, cached_property, partial, reduce

import numpy as np

from . import algebra
from .errors import ResonantGridError

_BIN_MAGIC = b"CGOF"
_BIN_VERSION = 1
SLAB_POINTS = 2**15  # the fewest grid points in a slab of the first axis when a solve or norm splits


def set_fft_workers(n: int) -> int:
    """Kept only for ``perfbench/run.py``: one FFT call is serial, though a solve may split its blades."""
    return 1


def seeded_rng(*key) -> np.random.Generator:
    """Counter-based generator keyed by integers; safe to derive
    independent deterministic streams for parallel work."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _frequency_index(n: int) -> np.ndarray:
    """The integer frequency indices of one axis, in FFT order."""
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def _broadcast_axes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vector v along each grid axis, read-only views shaped (n, 1, 1), (1, n, 1) and (1, 1, n)."""
    v.flags.writeable = False
    return v.reshape(-1, 1, 1), v.reshape(1, -1, 1), v.reshape(1, 1, -1)


def _dot(u, v) -> np.ndarray:
    """u0 v0 + u1 v1 + u2 v2 of 3-vectors of scalars or broadcast axes, in the order np.sum(axis=0) adds rows."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points per axis on a box of side length L."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid.n must be a power of two >= 8, got {self.n}")
        if not 0 < self.length < np.inf:  # NaN fails both
            raise ValueError(f"grid.length must be positive and finite, got {self.length}")
        with np.errstate(over="ignore"):  # a float64 cube past the float range is inf, where Python's ** raises
            if not all(0 < np.float64(x) ** 3 < np.inf for x in (self.length, self.length / self.n)):
                raise ValueError(f"grid.length {self.length} puts the volume or cell volume outside the float range")

    @property
    def cell_volume(self) -> float:
        return (self.length / self.n) ** 3

    @property
    def volume(self) -> float:
        return self.length**3

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical coordinates along each axis, shaped (n, 1, 1), (1, n, 1) and (1, 1, n) to broadcast."""
        return _broadcast_axes(np.arange(self.n) * (self.length / self.n))

    @property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 of the frequency covectors (2 pi / L) * integer lattice."""
        xi = _broadcast_axes((2.0 * np.pi / self.length) * _frequency_index(self.n).astype(float))
        return _dot(xi, xi)

    @cached_property
    def xi_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative-symbol covector along each axis, shaped as :attr:`axes`: xi with the Nyquist entry zeroed.

        The index -n/2 has no +n/2 partner on the lattice, so keeping it
        in an odd-order symbol breaks the exact skew-adjointness of the
        discrete derivative; zeroing it restores xi(-k) = -xi(k) for
        every mode.  All differential operators, symbols and weighted
        norms use this covector so the operator identities hold exactly
        on arbitrary grid functions.
        """
        index = _frequency_index(self.n)
        xi = (2.0 * np.pi / self.length) * index.astype(float)
        xi[index == -(self.n // 2)] = 0.0
        return _broadcast_axes(xi)

    @cached_property
    def xi_op(self) -> np.ndarray:
        """:attr:`xi_axes` on every mode, shape (3, n, n, n); only the oracle routes' covectors read it."""
        return np.stack(np.broadcast_arrays(*self.xi_axes))

    @property
    def xi_op_sq(self) -> np.ndarray:
        return _dot(self.xi_axes, self.xi_axes)

    @property
    def subbox_distance(self) -> np.ndarray:
        """Max-norm distance of each point from the center, shape (n, n, n)."""
        return reduce(np.maximum, (np.abs(t - self.length / 2) for t in self.axes))

    @cached_property
    def outside_subbox(self) -> np.ndarray:
        """Points outside the central sub-box [L/4, 3L/4]^3, shape (n, n, n)."""
        return self.subbox_distance > self.length / 4

    def on_lattice(self, covector) -> bool:
        """Whether a constant real covector sits on the frequency lattice."""
        idx = np.asarray(covector) * self.length / (2.0 * np.pi)
        return bool(np.all(np.abs(idx - np.rint(idx)) <= 1e-9))


class FormField:
    """Graded forms on a grid, or their Fourier coefficients: complex, shape (8, n, n, n).

    A checked record of a grid and its values; blade operations are the
    :mod:`algebra` kernels applied to ``values``."""

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
    def from_scalar(cls, grid: Grid, samples: np.ndarray) -> "FormField":
        values = np.zeros((8, grid.n, grid.n, grid.n), dtype=complex)
        values[0] = samples
        return cls(grid, values)


_in_pool = threading.local()  # .marked is set on every thread of the persistent pools, one of each size
_pool = cache(lambda workers: ThreadPoolExecutor(workers, initializer=setattr, initargs=(_in_pool, "marked", True)))
_forming = threading.RLock()  # held while a _formed_once value is formed


def _parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on the pool of ``workers`` threads unless it is 1 or the caller is a pool
    thread, each task in a copy of the caller's context; all finish before the first failure in item order raises."""
    if workers < 2 or getattr(_in_pool, "marked", False):
        return [fn(item) for item in items]
    tasks = [_pool(workers).submit(contextvars.copy_context().run, fn, item) for item in items]
    wait(tasks)
    return [task.result() for task in tasks]


class _formed_once(cached_property):
    """A cached_property formed and stored under _forming on every Python (3.12 dropped cached_property's lock), so
    threads form it once and then read it with no lock.  Forming one may not call _parallel_map: its tasks may wait."""
    def __get__(self, instance, owner=None):
        with _forming:
            return super().__get__(instance, owner)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split(n: int) -> tuple[int, list[slice]]:
    """(threads, slabs of the first axis) a solve or norm on an n^3 grid splits over: the usable CPUs and slabs
    of SLAB_POINTS points when two fit and the caller is no pool thread, else (1, [the whole axis])."""
    rows = -(-SLAB_POINTS // n**2)
    workers = 1 if n < 2 * rows or getattr(_in_pool, "marked", False) else _usable_cpus()
    return workers, [slice(i, i + rows) for i in range(0, n, rows)] if workers > 1 else [slice(None)]


def _lines(a: np.ndarray, axis: int, inverse: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Transform a along one of its last three axes into out (new when None,
    or a itself): forward scaled by 1/n, inverse unscaled."""
    return (np.fft.ifft if inverse else np.fft.fft)(a, axis=axis, norm="forward", out=out)


def _transform(a: np.ndarray, out=None, inverse=False, box=None) -> np.ndarray:
    """The pair over the last three axes, in the order -3, -2, -1: forward,
    ``fftn(a) / n^3`` (each axis's 1/n is exact, n being a power of two),
    or the unscaled inverse; out may be a.  With ``box`` each axis is cut to the box, so later axes transform
    only the lines that reach it, and a new array of the box's shape is returned: no view pins the n^3 pass."""
    for axis, keep in zip((-3, -2, -1), box or (slice(None),) * 3):
        a = out = _lines(a, axis, inverse, out)[(..., keep) + (slice(None),) * (-1 - axis)]
    return out if box is None else out.copy()


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


def fft_forward(f: FormField) -> FormField:
    return FormField(f.grid, _forward(f.values))


def fft_inverse(F: FormField) -> FormField:
    return FormField(F.grid, _inverse(F.values))


def _spectral_map(f: FormField, fn) -> FormField:
    """Apply ``fn`` to the Fourier coefficients of f.  ``fn`` may overwrite
    them; no reference to them outlives ``fn`` but the array it returns,
    which is transformed back in place."""
    F = fn(_forward(f.values))
    return FormField(f.grid, _inverse(F, F))


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
    return _spectral_map(f, lambda F: algebra.vee_cov(c, algebra.alternate(F, out=F)))


def d_plus_delta(f: FormField, zeta, offset: int) -> FormField:
    """(d + delta) in one transform pair, conjugated when zeta is not None, of f with each
    grade-l block scaled by (-1)^(l+offset), as by :func:`algebra.alternate`."""
    c = _spectral_covector(f.grid, zeta)

    def symbol(F):
        algebra.alternate(F, offset, out=F)  # the scaled f's spectrum, but for signs of zeros, which sums drop
        d = algebra.wedge_cov(c, F)  # formed before F is alternated in place
        algebra.alternate(F, out=F)
        low = np.empty((3,) + F.shape[1:], F.dtype)  # the vee image of one grade, on the blades a grade lower
        for g in (1, 2, 3):
            image = algebra.vee_cov(c, F, g, dict(zip(np.flatnonzero(algebra.GRADES == g - 1), low)))
            for k, blade in image.items():
                d[k] += blade
        return d
    return _spectral_map(f, symbol)


def conj_laplacian(f: FormField, zeta=None) -> FormField:
    """Apply the (conjugated) Hodge Laplacian, symbol |xi|^2 - 2i<z,xi> - <z,z>, to every blade."""
    if zeta is None:
        m = f.grid.xi_op_sq.astype(complex)
    else:
        z = np.asarray(zeta, dtype=complex)
        m = helmholtz_symbol(f.grid, z) - np.dot(z, z)
    return _spectral_map(f, lambda F: np.multiply(F, m, out=F))


def helmholtz_symbol(grid: Grid, zeta) -> np.ndarray:
    """p(xi) = |xi|^2 - 2i <zeta, xi> on the frequency lattice."""
    return grid.xi_op_sq - 2j * _dot(np.asarray(zeta, dtype=complex), grid.xi_axes)


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
        self.divisor = np.where(self.mask, np.inf, p)  # a finite c / (inf + 0j) is 0, with no floating-point flag
        # |divisor| is |p| >= floor off the mask and inf on it, so the -1/2 weight is 0 there already
        absp = np.abs(self.divisor)
        inv = np.reciprocal(absp)
        absp[self.mask] = 0.0
        self._weights = {0.5: absp, -0.5: inv}

    def weight(self, b: float) -> np.ndarray:
        """Norm weight |p|^(2b) for b = +-1/2, zero on the clamped modes."""
        if b not in self._weights:
            raise ValueError(f"b must be +1/2 or -1/2, got {b}")
        return self._weights[b]

    def norm(self, coeffs, b: float) -> float:
        """Weighted-l2 norm of spectral coefficients, all components: of an array, or of the components
        that coeffs(rows) yields for each slab of the first frequency axis that :func:`_split` makes."""
        w, modes = self.weight(b), np.empty(self.mask.shape)  # w |c|^2 of all slabs, summed in one np.sum
        slab = coeffs if callable(coeffs) else lambda rows: coeffs[:, rows]
        workers, slabs = _split(self.grid.n)
        _parallel_map(lambda rows: _weighted_sq(w[rows], slab(rows), modes[rows]), slabs, workers)
        return float(np.sqrt(self.grid.volume * np.sum(modes)))

    def inverse(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """coeffs / p over the trailing frequency axes, 0 on the clamped modes,
        into ``out`` when given (which may be coeffs)."""
        return np.divide(coeffs, self.divisor, out=out)

    def report(self) -> ClampReport:
        """Clamp count against :func:`default_clamp_threshold`."""
        return ClampReport(self.grid.n**3, int(np.sum(self.mask)), self.floor,
                           default_clamp_threshold(self.grid))


def bourgain_weight(grid: Grid, zeta, b: float) -> np.ndarray:
    """Norm weight |p|^(2b) on the unclamped sublattice (see :class:`ClampedSymbol`)."""
    return ClampedSymbol(grid, zeta).weight(b)


def _weighted_sq(w: np.ndarray, coeffs: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """w |c|^2 per mode into modes, with |c|^2 summed over the leading axis of coeffs
    in order, as ``np.sum(..., axis=0)`` adds it: its sum is every weighted norm squared."""
    sq, modes[...] = np.empty(w.shape), 0.0
    for c in coeffs:
        modes += np.square(np.abs(c, out=sq), out=sq)
    return np.multiply(w, modes, out=modes)


def resolvent_operator_norm(grid: Grid, zeta) -> float:
    """Diagonal operator norm of the resolvent the solver applies, from the
    -1/2 to the +1/2 space: sqrt(weight(1/2) / weight(-1/2)) |inverse(1)|
    maximized over the unclamped modes; 1 up to round-off."""
    sym = ClampedSymbol(grid, zeta)
    live = ~sym.mask
    gain = np.abs(sym.inverse(np.ones(live.shape, dtype=complex))[live])
    return float(np.max(np.sqrt(sym.weight(0.5)[live] / sym.weight(-0.5)[live]) * gain))


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
    return complex(f.grid.cell_volume * np.sum(algebra.inner(f.values, g.values)))


def hermitian_pairing(f: FormField, g: FormField) -> complex:
    """Sesquilinear L^2 pairing (conjugates the second argument)."""
    return complex(f.grid.cell_volume * np.sum(np.conj(g.values) * f.values))


def spectral_pairing(f: FormField, g: FormField) -> complex:
    """Frequency-side sesquilinear pairing L^3 sum_xi <f_hat, conj g_hat>."""
    F, G = fft_forward(f).values, fft_forward(g).values
    return complex(f.grid.volume * np.sum(np.conj(G) * F))


def l2_norm(f: FormField) -> float:
    F = fft_forward(f).values
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(F) ** 2)))


def sobolev_norms(f: FormField) -> tuple[float, float]:
    """(L^2 norm, H^-1 norm); the H^-1 weight is (1 + |xi|^2)^(-1)."""
    F = fft_forward(f).values
    density = np.sum(np.abs(F) ** 2, axis=0)
    l2 = f.grid.volume * np.sum(density)
    hm1 = f.grid.volume * np.sum(density / (1.0 + f.grid.xi_op_sq))
    return float(np.sqrt(l2)), float(np.sqrt(hm1))


def mollify(f: FormField, h: float) -> FormField:
    """Low-pass by the Gaussian multiplier exp(-(h |xi|)^2 / 2)."""
    if not h > 0:
        raise ValueError(f"mollification scale must be positive, got {h}")
    m = np.exp(-0.5 * (h**2) * f.grid.xi_sq)
    return _spectral_map(f, lambda F: np.multiply(F, m, out=F))


# ---------------------------------------------------------------------------
# symmetric tensor fields
# ---------------------------------------------------------------------------

def sym_coderiv(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """Formal adjoint symmetric derivative of a symmetric 2-tensor field.

    Coordinate form: component k of the (3, n, n, n) output is -sum_j d_j (t_jk + t_kj).
    """
    if tensor.shape != (6, grid.n, grid.n, grid.n):
        raise ValueError("tensor field must have shape (6, n, n, n)")
    that, ixi = _forward(tensor), _spectral_covector(grid, None)
    out_hat = np.zeros((3,) + tensor.shape[1:], dtype=complex)
    for k in range(3):  # sum_j i xi_j t_jk, in the order j = 0, 1, 2
        for j in range(3):
            out_hat[k] += ixi[j] * that[algebra.SYM_INDEX[j][k]]
    out_hat *= -2.0
    return _inverse(out_hat, out_hat)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def plane_wave_scalar(grid: Grid, kvec) -> np.ndarray:
    """exp(i k.x) sampled on the grid, shape (n, n, n)."""
    return np.exp(1j * _dot(np.asarray(kvec, dtype=float), grid.axes))


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
    mask = reduce(np.logical_and, _broadcast_axes(np.abs(_frequency_index(n)) <= band))
    nsel = int(np.sum(mask))
    for blade in np.nonzero(np.isin(algebra.GRADES, grades))[0]:
        coeffs[blade][mask] = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
    if zero_mean:
        coeffs[:, 0, 0, 0] = 0.0
    return fft_inverse(FormField(grid, coeffs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_field_bin(f: FormField, path) -> None:
    """Flat binary snapshot: magic, version, n, L, then 8 row-major
    complex-double components, little-endian."""
    header = _BIN_MAGIC + struct.pack("<IIdI", _BIN_VERSION, f.grid.n, f.grid.length, 8)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").data)  # the array's own buffer, not a copy


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
