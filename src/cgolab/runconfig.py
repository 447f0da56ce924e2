"""Run-configuration parsing and validation.

One JSON document drives every command; validation failures raise
ConfigError messages that name the offending field path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .cgo import Polarization, strictly_decreasing, zeta_sq
from .errors import CoefficientError, ConfigError
from .fields import Grid, seeded_rng
from .media import Bump, Medium


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key} is required")
    return doc[key]


def _number(value, path: str, positive=False, power=1) -> float:
    """A finite float, positive if asked, whose power ``power`` (length**3, radius**2) is
    finite, and nonzero when the float is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path} must be a finite number")
    if positive and not out > 0:
        raise ConfigError(f"{path} must be positive")
    try:
        underflows = out != 0 and out**power == 0
    except OverflowError:
        raise ConfigError(f"{path} is too large: {path}**{power} overflows the float range") from None
    if underflows:
        raise ConfigError(f"{path} is too small: {path}**{power} underflows to 0")
    return out


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def _object(value, path: str, keys) -> dict:
    """value, an object whose every key is one of ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{path}.{key} is not a known field")
    return value


def _bound_s(s: float, path: str, k: float, rho) -> None:
    """Reject a largest s whose |zeta|^2 overflows; an overflowing k^2 fails the medium's build."""
    if math.isfinite(k * k) and not math.isfinite(zeta_sq(s, k, rho)):
        raise ConfigError(f"{path} is too large: s = {s:g} puts |zeta|^2 beyond the float range")


def _increasing_list(values, path: str) -> list:
    if not isinstance(values, list) or len(values) < 2:
        raise ConfigError(f"{path} must be a list with at least 2 values")
    out = [_number(v, f"{path}[{i}]", positive=True) for i, v in enumerate(values)]
    if not strictly_decreasing(reversed(out)):
        raise ConfigError(f"{path} must be strictly increasing")
    if out[0] < 1.0:  # s, and the lambda that bounds s from below
        raise ConfigError(f"{path} values must be >= 1")
    return out


def _vector3(value, path: str, entry=_number, kind: str = "numbers"):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path} must be a list of 3 {kind}")
    return [entry(v, f"{path}[{i}]") for i, v in enumerate(value)]


@dataclass
class MediumConfig:
    omega: float
    eps0: float
    mu0: float
    eps_bumps: list  # of media.Bump, centred on the grid of the parse
    mu_bumps: list
    sigma_bumps: list
    path: str  # "medium" or "media[i]", for error messages

    def build(self, grid: Grid) -> Medium:
        try:
            return Medium.from_bumps(grid, self.omega, self.eps0, self.mu0,
                                     self.eps_bumps, self.mu_bumps, self.sigma_bumps)
        except CoefficientError as exc:
            field = "omega" if exc.name == "omega" else f"{exc.name}_bumps"
            raise ConfigError(f"{self.path}.{field}: {exc}") from None


@dataclass
class GeometryConfig:
    rho_index: tuple
    frame_seed: int
    polarization: Polarization
    s: float | None = None
    s_list: list | None = None
    lambda_list: list | None = None

    def rho(self, grid: Grid) -> np.ndarray:
        return (2.0 * np.pi / grid.length) * np.asarray(self.rho_index, dtype=float)

    def frame_angle(self) -> float:
        rng = seeded_rng(self.frame_seed)
        return float(rng.uniform(0.0, 2.0 * np.pi))


# The defaults of the next three sections live in parse_config alone.

@dataclass
class SolverConfig:
    """The solver settings, named as cgo.solve_cgo's keywords and a config's solver keys."""

    tol: float
    max_iter: int


@dataclass
class SamplingConfig:
    n_samples: int
    seed: int


@dataclass
class OutputConfig:
    directory: str
    save_fields: bool


@dataclass
class RunConfig:
    grid: Grid
    media: list
    geometry: GeometryConfig | None
    solver: SolverConfig
    sampling: SamplingConfig
    output: OutputConfig
    raw: dict = field(repr=False, default_factory=dict)

    def medium(self, index: int = 0) -> MediumConfig:
        if index >= len(self.media):
            raise ConfigError("config needs a 'media' list with two entries for pair experiments")
        return self.media[index]

    def need_geometry(self) -> GeometryConfig:
        if self.geometry is None:
            raise ConfigError("geometry section is required for this command")
        return self.geometry


def _parse_bumps(specs, path: str, length: float) -> list:
    if not isinstance(specs, list):
        raise ConfigError(f"{path} must be a list")
    center = length / 2.0  # of the periodic box
    out = []
    for i, spec in enumerate(specs):
        at = f"{path}[{i}]"
        _object(spec, at, ("amplitude", "radius", "center_offset", "sharpness"))
        amplitude = _number(_require(spec, "amplitude", at), f"{at}.amplitude")
        radius = _number(_require(spec, "radius", at), f"{at}.radius", positive=True, power=2)
        offset = [0.0, 0.0, 0.0]
        if "center_offset" in spec:
            offset = _vector3(spec["center_offset"], f"{at}.center_offset")
            if max(abs(c) for c in offset) >= length / 4.0:
                raise ConfigError(f"{at}.center_offset must lie inside the central sub-box")
        sharpness = _number(spec.get("sharpness", 1.0), f"{at}.sharpness", positive=True)
        out.append(Bump(amplitude, radius, tuple(center + c for c in offset), sharpness))
    return out


def parse_medium(doc, path: str, length: float) -> MediumConfig:
    """One medium object of a config, for a box of side ``length``; ``path``
    ("medium" or "media[i]") prefixes every error message."""
    _object(doc, path, ("omega", "eps0", "mu0", "eps_bumps", "mu_bumps", "sigma_bumps"))
    return MediumConfig(
        omega=_number(_require(doc, "omega", path), f"{path}.omega", positive=True),
        eps0=_number(doc.get("eps0", 1.0), f"{path}.eps0", positive=True),
        mu0=_number(doc.get("mu0", 1.0), f"{path}.mu0", positive=True),
        eps_bumps=_parse_bumps(doc.get("eps_bumps", []), f"{path}.eps_bumps", length),
        mu_bumps=_parse_bumps(doc.get("mu_bumps", []), f"{path}.mu_bumps", length),
        sigma_bumps=_parse_bumps(doc.get("sigma_bumps", []), f"{path}.sigma_bumps", length),
        path=path,
    )


def _parse_geometry(doc, grid: Grid, medium: MediumConfig) -> GeometryConfig:
    path = "geometry"
    _object(doc, path, ("rho_index", "frame_seed", "polarization", "s", "s_list", "lambda_list"))
    rho_index = _require(doc, "rho_index", path)
    rho_index = tuple(_vector3(rho_index, f"{path}.rho_index", _integer, "integers"))
    for i, index in enumerate(rho_index):  # an integer beyond the float range is not finite
        _number(index, f"{path}.rho_index[{i}]")
        if abs(index) >= grid.n // 2:  # at or past the Nyquist index, rho aliases on the grid
            raise ConfigError(f"{path}.rho_index[{i}] must lie within (-{grid.n // 2}, {grid.n // 2})")
    pol_name = doc.get("polarization", "E")
    try:
        pol = Polarization(pol_name)
    except ValueError:
        raise ConfigError(f"{path}.polarization must be 'E' or 'H', got {pol_name!r}") from None
    if pol == Polarization.H and not any(rho_index):
        raise ConfigError(f"{path}.rho_index must be nonzero for H polarization")

    cfg = GeometryConfig(
        rho_index=rho_index,
        frame_seed=_integer(doc.get("frame_seed", 0), f"{path}.frame_seed", minimum=0),
        polarization=pol,
    )
    k, rho = medium.omega * math.sqrt(medium.eps0 * medium.mu0), cfg.rho(grid)
    if "s" in doc:
        cfg.s = _number(doc["s"], f"{path}.s", positive=True)
        if cfg.s < 1.0:
            raise ConfigError(f"{path}.s must be >= 1")
        _bound_s(cfg.s, f"{path}.s", k, rho)
    if "s_list" in doc:
        cfg.s_list = _increasing_list(doc["s_list"], f"{path}.s_list")
        _bound_s(cfg.s_list[-1], f"{path}.s_list", k, rho)
    if "lambda_list" in doc:
        cfg.lambda_list = _increasing_list(doc["lambda_list"], f"{path}.lambda_list")
        _bound_s(2.0 * cfg.lambda_list[-1], f"{path}.lambda_list", k, rho)  # s < 2 lambda
    return cfg


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _object(doc, "config", ("grid", "medium", "media", "geometry", "solver", "sampling", "output"))

    grid_doc = _object(_require(doc, "grid", "config"), "grid", ("n", "length"))
    n = _integer(_require(grid_doc, "n", "grid"), "grid.n", minimum=8)
    if n & (n - 1):
        raise ConfigError("grid.n must be a power of two")
    if 128 * n**3 > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):  # 8 complex blades
        raise ConfigError(f"grid.n is too large: an 8-blade field of n = {n} exceeds physical memory")
    grid = Grid(n, _number(_require(grid_doc, "length", "grid"), "grid.length", positive=True, power=3))

    media = []
    if "media" in doc:
        if not isinstance(doc["media"], list) or len(doc["media"]) != 2:
            raise ConfigError("media must be a list of exactly 2 medium objects")
        media = [parse_medium(m, f"media[{i}]", grid.length) for i, m in enumerate(doc["media"])]
        for name in ("omega", "eps0", "mu0"):
            if getattr(media[1], name) != getattr(media[0], name):
                raise ConfigError(f"media[1].{name} must equal media[0].{name}")
    elif "medium" in doc:
        media = [parse_medium(doc["medium"], "medium", grid.length)]
    else:
        raise ConfigError("config.medium (or config.media) is required")

    geometry = _parse_geometry(doc["geometry"], grid, media[0]) if "geometry" in doc else None

    solver_keys = [f.name for f in fields(SolverConfig)]
    solver_doc = _object(doc.get("solver", {}), "solver", solver_keys)
    solver = SolverConfig(
        tol=_number(solver_doc.get("tol", 1e-9), "solver.tol", positive=True),
        max_iter=_integer(solver_doc.get("max_iter", 80), "solver.max_iter", minimum=1),
    )

    sampling_doc = _object(doc.get("sampling", {}), "sampling", ("n_samples", "seed"))
    sampling = SamplingConfig(
        n_samples=_integer(sampling_doc.get("n_samples", 16), "sampling.n_samples", minimum=1),
        seed=_integer(sampling_doc.get("seed", 2024), "sampling.seed", minimum=0),
    )

    output_doc = _object(doc.get("output", {}), "output", ("directory", "save_fields"))
    directory = output_doc.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory must be a nonempty string")
    save_fields = output_doc.get("save_fields", False)
    if not isinstance(save_fields, bool):
        raise ConfigError("output.save_fields must be a boolean")
    output = OutputConfig(directory=directory, save_fields=save_fields)

    return RunConfig(
        grid=grid,
        media=media,
        geometry=geometry,
        solver=solver,
        sampling=sampling,
        output=output,
        raw=doc,
    )
