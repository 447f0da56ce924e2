"""Command-line front end.

Every experiment command reads one JSON config, writes results.csv plus
manifest.json into the output directory, and reports through a total
exit-code map:

    0  success (all checks / acceptance trends passed)
    1  a verification identity failed
    2  invalid configuration (the message names the field)
    3  solver divergence or excessive sample failures
    4  resonant grid (clamp fraction above threshold)
    5  an acceptance trend did not hold
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, algebra, checks, fields
from .cgo import (
    MIN_SAMPLES,
    amplitude_a,
    decay_study,
    make_geometry,
    orthonormal_frame,
    q_norm_estimate,
    solve_cgo,
    strictly_decreasing,
)
from .errors import ConfigError, DivergenceError, ResonantGridError, StudyError
from .media import derive
from .runconfig import RunConfig, parse_config
from .uniqueness import convergence_experiment, make_pair

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_RESONANT = 4
EXIT_TREND = 5


def _fmt(value) -> str:
    if value is None:  # not measured: an empty cell
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path: Path, command: str, cfg: RunConfig, seed, started, diagnostics, acceptance):
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg.raw,
        "wall_clock_s": time.time() - started,
        "diagnostics": diagnostics,
        "acceptance": acceptance,
    }
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _outdir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_checks(results, as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  error {r.error:.3e}  tol {r.tolerance:.0e}  {status}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check_algebra(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.inject_sign_fault:
        with algebra.sign_fault_injected():
            results = checks.algebra_checks(seed=seed)
    else:
        results = checks.algebra_checks(seed=seed)
    return _print_checks(results, args.json)


def cmd_check_calculus(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    return _print_checks(checks.calculus_checks(grid, seed=seed), args.json)


def cmd_check_factorization(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    dm = derive(cfg.medium(0).build(grid))
    return _print_checks(checks.factorization_checks(dm, seed=seed), args.json)


def _geometry_pieces(cfg: RunConfig, grid):
    geo = cfg.need_geometry()
    rho = geo.rho(grid)
    eta1, eta2 = orthonormal_frame(rho, geo.frame_angle())
    return geo, rho, eta1, eta2


def cmd_run_cgo(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    geo, rho, eta1, eta2 = _geometry_pieces(cfg, grid)
    if geo.s is None:
        raise ConfigError("geometry.s is required for run-cgo")
    dm = derive(cfg.medium(0).build(grid))
    geom = make_geometry(rho, eta1, eta2, geo.s, dm.k, grid=grid)
    amp = amplitude_a(geom, geo.polarization)
    out = _outdir(args, cfg)
    try:
        sol = solve_cgo(
            dm,
            geom.zeta1,
            amp,
            tol=cfg.solver.tol,
            max_iter=cfg.solver.max_iter,
            floor=cfg.solver.clamp_floor,
            clamp_threshold=cfg.solver.clamp_threshold,
        )
    except DivergenceError as exc:
        diagnostics = dict(exc.diagnostics or {})
        diagnostics["error"] = str(exc)
        _write_manifest(
            out / "manifest.json", "run-cgo", cfg, seed, started,
            diagnostics, {"converged": False},
        )
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    header = [
        "s", "eta_angle", "iterations", "residual", "remainder_norm",
        "forcing_norm", "contraction", "clamped_fraction",
    ]
    rows = [[
        geo.s, geo.frame_angle(), sol.iterations, sol.residual, sol.remainder_norm,
        sol.forcing_norm, sol.contraction, sol.clamp.fraction,
    ]]
    _write_csv(out / "results.csv", header, rows)
    if cfg.output.save_fields:
        fields.save_field_bin(sol.remainder, out / "fields.bin")
    diagnostics = {
        "iterations": sol.iterations,
        "residual": sol.residual,
        "contraction": sol.contraction,
        "clamped_modes": sol.clamp.clamped,
        "clamped_defect": sol.clamped_defect,
        "deltas": sol.deltas,
        "residuals": sol.residuals,
        "k": dm.k,
        "omega": dm.omega,
    }
    acceptance = {
        "converged": sol.converged,
        "remainder_bounded": sol.remainder_norm <= 2.0 * sol.forcing_norm,
    }
    _write_manifest(out / "manifest.json", "run-cgo", cfg, seed, started, diagnostics, acceptance)
    return EXIT_OK if acceptance["converged"] else EXIT_DIVERGENCE


def cmd_run_decay(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    geo, rho, _, _ = _geometry_pieces(cfg, grid)
    if not geo.lambda_list:
        raise ConfigError("geometry.lambda_list is required for run-decay")
    if cfg.sampling.n_samples < MIN_SAMPLES:
        raise ConfigError(f"sampling.n_samples must be >= {MIN_SAMPLES} for run-decay")
    dm = derive(cfg.medium(0).build(grid))
    study = decay_study(
        dm,
        rho,
        geo.polarization,
        geo.lambda_list,
        n_samples=cfg.sampling.n_samples,
        seed=seed,
        tol=cfg.solver.tol,
        max_iter=cfg.solver.max_iter,
        floor=cfg.solver.clamp_floor,
        workers=args.threads,
        clamp_threshold=cfg.solver.clamp_threshold,
    )
    out = _outdir(args, cfg)
    header = [
        "lambda", "s", "eta_angle", "iterations", "residual",
        "remainder_norm", "forcing_norm", "clamped_fraction",
    ]
    rows = [
        [r.lam, r.s, r.angle, r.iterations, r.residual, r.remainder_norm,
         r.forcing_norm, r.clamp_fraction]
        for r in study.samples
    ]
    _write_csv(out / "results.csv", header, rows)
    diagnostics = {
        "summaries": [
            {
                "lambda": s.lam,
                "n_samples": s.n_samples,
                "mean_remainder_sq": s.mean_remainder_sq,
                "stderr_remainder_sq": s.stderr_remainder_sq,
                "mean_forcing_sq": s.mean_forcing_sq,
            }
            for s in study.summaries
        ]
    }
    acceptance = {"remainder_decreasing": study.remainder_decreasing}
    _write_manifest(out / "manifest.json", "run-decay", cfg, seed, started, diagnostics, acceptance)
    return EXIT_OK if study.remainder_decreasing else EXIT_TREND


def cmd_run_uniqueness(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    geo, rho, eta1, eta2 = _geometry_pieces(cfg, grid)
    if not geo.s_list:
        raise ConfigError("geometry.s_list is required for run-uniqueness")
    m1 = cfg.medium(0).build(grid)
    m2 = cfg.medium(1).build(grid)
    mp = make_pair(m1, m2)
    result = convergence_experiment(
        mp,
        rho,
        geo.polarization,
        geo.s_list,
        eta1,
        eta2,
        tol=cfg.solver.tol,
        max_iter=cfg.solver.max_iter,
        floor=cfg.solver.clamp_floor,
        workers=args.threads,
        clamp_threshold=cfg.solver.clamp_threshold,
    )
    out = _outdir(args, cfg)
    header = ["s", "pairing_re", "pairing_im", "target_re", "target_im", "abs_error"]
    rows = [
        [r.s, r.pairing.real, r.pairing.imag, r.target.real, r.target.imag, r.abs_error]
        for r in result.rows
    ]
    _write_csv(out / "results.csv", header, rows)
    floor_level = 1e-9
    if mp.identical:
        ok = all(abs(r.pairing) <= floor_level for r in result.rows)
        acceptance = {"pairing_at_floor": ok}
    else:
        ok = result.error_shrinks
        acceptance = {"error_shrinks": ok}
    diagnostics = {
        "target_re": result.target.real,
        "target_im": result.target.imag,
        "identical_media": mp.identical,
        "k": mp.k,
    }
    _write_manifest(
        out / "manifest.json", "run-uniqueness", cfg, seed, started, diagnostics, acceptance
    )
    return EXIT_OK if ok else EXIT_TREND


def cmd_estimate_qnorm(args) -> int:
    started = time.time()
    cfg = _load_config(args)
    grid = cfg.grid.build()
    seed = args.seed if args.seed is not None else cfg.sampling.seed
    geo, rho, eta1, eta2 = _geometry_pieces(cfg, grid)
    if not geo.s_list:
        raise ConfigError("geometry.s_list is required for estimate-qnorm")
    dm = derive(cfg.medium(0).build(grid))
    rows = []
    estimates = []
    for s in geo.s_list:
        geom = make_geometry(rho, eta1, eta2, s, dm.k, grid=grid)
        est = q_norm_estimate(
            dm, geom.zeta1, trials=max(16, cfg.sampling.n_samples), seed=seed,
            floor=cfg.solver.clamp_floor,
        )
        estimates.append(est.estimate)
        rows.append([s, geom.zeta1_mag, est.estimate, est.h, est.smooth_term, est.rough_term])
    out = _outdir(args, cfg)
    _write_csv(
        out / "results.csv",
        ["s", "zeta_mag", "estimate", "h", "smooth_term", "rough_term"],
        rows,
    )
    decreasing = strictly_decreasing(estimates)
    _write_manifest(
        out / "manifest.json", "estimate-qnorm", cfg, seed, started,
        {"estimates": estimates}, {"estimate_decreasing": decreasing},
    )
    return EXIT_OK if decreasing else EXIT_TREND


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgolab",
        description="Spectral experiments for the time-harmonic Maxwell CGO machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=False, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=1, help="worker threads")

    p = sub.add_parser("check-algebra", help="pointwise algebra identity suite")
    common(p, needs_config=False)
    p.add_argument(
        "--inject-sign-fault", action="store_true",
        help="corrupt one sign-table entry (self-test of the checks)",
    )
    p.set_defaults(func=cmd_check_algebra)

    p = sub.add_parser("check-calculus", help="spectral calculus identity suite")
    common(p)
    p.set_defaults(func=cmd_check_calculus)

    p = sub.add_parser("check-factorization", help="first-order factorization suite")
    common(p)
    p.set_defaults(func=cmd_check_factorization)

    p = sub.add_parser("run-cgo", help="single remainder solve")
    common(p)
    p.set_defaults(func=cmd_run_cgo)

    p = sub.add_parser("run-decay", help="averaged remainder-decay study")
    common(p)
    p.set_defaults(func=cmd_run_decay)

    p = sub.add_parser("run-uniqueness", help="pairing vs scattering targets")
    common(p)
    p.set_defaults(func=cmd_run_uniqueness)

    p = sub.add_parser("estimate-qnorm", help="potential operator-norm trend")
    common(p)
    p.set_defaults(func=cmd_estimate_qnorm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A command with a worker pool gives --threads to the pool and keeps the
    # FFT serial, so that N threads never become N^2.
    pooled = args.func in (cmd_run_decay, cmd_run_uniqueness)
    fields.set_fft_workers(1 if pooled else args.threads)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ResonantGridError as exc:
        print(f"resonant grid: {exc}", file=sys.stderr)
        return EXIT_RESONANT
    except StudyError as exc:
        print(f"study aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
