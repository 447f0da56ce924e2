"""Run-configuration parsing and validation.

One JSON document drives every command; validation failures raise
ConfigError messages that name the offending field path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cgo import Polarization
from .errors import CoefficientError, ConfigError
from .fields import Grid, seeded_rng
from .media import Bump, Medium


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key} is required")
    return doc[key]


def _number(value, path: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    out = float(value)
    if positive and not out > 0:
        raise ConfigError(f"{path} must be positive")
    if nonnegative and out < 0:
        raise ConfigError(f"{path} must be nonnegative")
    return out


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def _vector3(value, path: str):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path} must be a list of 3 numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


@dataclass
class GridConfig:
    n: int
    length: float

    def build(self) -> Grid:
        return Grid(self.n, self.length)


@dataclass
class MediumConfig:
    omega: float
    eps0: float
    mu0: float
    eps_bumps: list
    mu_bumps: list
    sigma_bumps: list
    path: str  # "medium" or "media[i]", for error messages

    def build(self, grid: Grid) -> Medium:
        def bumps(specs):
            out = []
            center0 = np.full(3, grid.length / 2.0)
            for spec in specs:
                center = center0 + np.asarray(spec.get("center_offset", [0.0, 0.0, 0.0]))
                out.append(
                    Bump(
                        amplitude=spec["amplitude"],
                        radius=spec["radius"],
                        center=tuple(center),
                        sharpness=spec.get("sharpness", 1.0),
                    )
                )
            return out

        try:
            return Medium.from_bumps(
                grid,
                omega=self.omega,
                eps0=self.eps0,
                mu0=self.mu0,
                eps_bumps=bumps(self.eps_bumps),
                mu_bumps=bumps(self.mu_bumps),
                sigma_bumps=bumps(self.sigma_bumps),
            )
        except CoefficientError as exc:
            raise ConfigError(f"{self.path}.{exc.name}_bumps: {exc}") from None


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


@dataclass
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 80
    clamp_floor: float | None = None
    clamp_threshold: float | None = None


@dataclass
class SamplingConfig:
    n_samples: int = 16
    seed: int = 2024


@dataclass
class OutputConfig:
    directory: str = "out"
    save_fields: bool = False


@dataclass
class RunConfig:
    grid: GridConfig
    media: list
    geometry: GeometryConfig | None
    solver: SolverConfig
    sampling: SamplingConfig
    output: OutputConfig
    raw: dict = field(repr=False, default_factory=dict)

    def medium(self, index: int = 0) -> MediumConfig:
        if index >= len(self.media):
            raise ConfigError(
                "config needs a 'media' list with two entries for pair experiments"
            )
        return self.media[index]

    def need_geometry(self) -> GeometryConfig:
        if self.geometry is None:
            raise ConfigError("geometry section is required for this command")
        return self.geometry


def _parse_bumps(specs, path: str) -> list:
    if not isinstance(specs, list):
        raise ConfigError(f"{path} must be a list")
    out = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}[{i}] must be an object")
        entry = {
            "amplitude": _number(_require(spec, "amplitude", f"{path}[{i}]"), f"{path}[{i}].amplitude"),
            "radius": _number(
                _require(spec, "radius", f"{path}[{i}]"), f"{path}[{i}].radius", positive=True
            ),
        }
        if "center_offset" in spec:
            entry["center_offset"] = _vector3(spec["center_offset"], f"{path}[{i}].center_offset")
        if "sharpness" in spec:
            entry["sharpness"] = _number(
                spec["sharpness"], f"{path}[{i}].sharpness", positive=True
            )
        out.append(entry)
    return out


def _parse_medium(doc, path: str) -> MediumConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    return MediumConfig(
        omega=_number(_require(doc, "omega", path), f"{path}.omega", positive=True),
        eps0=_number(doc.get("eps0", 1.0), f"{path}.eps0", positive=True),
        mu0=_number(doc.get("mu0", 1.0), f"{path}.mu0", positive=True),
        eps_bumps=_parse_bumps(doc.get("eps_bumps", []), f"{path}.eps_bumps"),
        mu_bumps=_parse_bumps(doc.get("mu_bumps", []), f"{path}.mu_bumps"),
        sigma_bumps=_parse_bumps(doc.get("sigma_bumps", []), f"{path}.sigma_bumps"),
        path=path,
    )


def _parse_geometry(doc) -> GeometryConfig:
    path = "geometry"
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    rho_index = _require(doc, "rho_index", path)
    if not isinstance(rho_index, (list, tuple)) or len(rho_index) != 3:
        raise ConfigError(f"{path}.rho_index must be a list of 3 integers")
    rho_index = tuple(_integer(v, f"{path}.rho_index[{i}]") for i, v in enumerate(rho_index))
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
    if "s" in doc:
        cfg.s = _number(doc["s"], f"{path}.s", positive=True)
        if cfg.s < 1.0:
            raise ConfigError(f"{path}.s must be >= 1")
    if "s_list" in doc:
        values = doc["s_list"]
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError(f"{path}.s_list must be a list with at least 2 values")
        cfg.s_list = [_number(v, f"{path}.s_list[{i}]", positive=True) for i, v in enumerate(values)]
        if any(b <= a for a, b in zip(cfg.s_list, cfg.s_list[1:])):
            raise ConfigError(f"{path}.s_list must be strictly increasing")
    if "lambda_list" in doc:
        values = doc["lambda_list"]
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError(f"{path}.lambda_list must be a list with at least 2 values")
        cfg.lambda_list = [
            _number(v, f"{path}.lambda_list[{i}]", positive=True) for i, v in enumerate(values)
        ]
        if any(b <= a for a, b in zip(cfg.lambda_list, cfg.lambda_list[1:])):
            raise ConfigError(f"{path}.lambda_list must be strictly increasing")
        if cfg.lambda_list[0] < 1.0:
            raise ConfigError(f"{path}.lambda_list values must be >= 1 (they bound s from below)")
    return cfg


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    grid_doc = _require(doc, "grid", "config")
    n = _integer(_require(grid_doc, "n", "grid"), "grid.n", minimum=8)
    if n & (n - 1):
        raise ConfigError("grid.n must be a power of two")
    grid = GridConfig(n=n, length=_number(_require(grid_doc, "length", "grid"), "grid.length", positive=True))

    media = []
    if "media" in doc:
        if not isinstance(doc["media"], list) or len(doc["media"]) != 2:
            raise ConfigError("media must be a list of exactly 2 medium objects")
        media = [_parse_medium(m, f"media[{i}]") for i, m in enumerate(doc["media"])]
    elif "medium" in doc:
        media = [_parse_medium(doc["medium"], "medium")]
    else:
        raise ConfigError("config.medium (or config.media) is required")

    geometry = _parse_geometry(doc["geometry"]) if "geometry" in doc else None

    solver_doc = doc.get("solver", {})
    if not isinstance(solver_doc, dict):
        raise ConfigError("solver must be an object")
    solver = SolverConfig(
        tol=_number(solver_doc.get("tol", 1e-9), "solver.tol", positive=True),
        max_iter=_integer(solver_doc.get("max_iter", 80), "solver.max_iter", minimum=1),
        clamp_floor=(
            _number(solver_doc["clamp_floor"], "solver.clamp_floor", positive=True)
            if "clamp_floor" in solver_doc and solver_doc["clamp_floor"] is not None
            else None
        ),
        clamp_threshold=(
            _number(solver_doc["clamp_threshold"], "solver.clamp_threshold", positive=True)
            if "clamp_threshold" in solver_doc and solver_doc["clamp_threshold"] is not None
            else None
        ),
    )

    sampling_doc = doc.get("sampling", {})
    if not isinstance(sampling_doc, dict):
        raise ConfigError("sampling must be an object")
    sampling = SamplingConfig(
        n_samples=_integer(sampling_doc.get("n_samples", 16), "sampling.n_samples", minimum=1),
        seed=_integer(sampling_doc.get("seed", 2024), "sampling.seed", minimum=0),
    )

    output_doc = doc.get("output", {})
    if not isinstance(output_doc, dict):
        raise ConfigError("output must be an object")
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
