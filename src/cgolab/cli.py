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
import contextlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
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
    sample_failures,
    solve_cgo,
    strictly_decreasing,
)
from .errors import ConfigError, DivergenceError, ResonantGridError, StudyError
from .fields import _parallel_map, _split, _usable_cpus
from .media import DerivedMedium, derive
from .runconfig import parse_config
from .uniqueness import convergence_experiment, make_pair

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_RESONANT = 4
EXIT_TREND = 5

#: toolkit error -> (exit code, stderr label); any other exception is a bug
FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DivergenceError: (EXIT_DIVERGENCE, "solver divergence"),
    ResonantGridError: (EXIT_RESONANT, "resonant grid"),
    StudyError: (EXIT_DIVERGENCE, "study aborted"),
}


def _fmt(value) -> str:
    return "" if value is None else str(value)  # None: not measured, an empty cell


def _write(path: Path, write) -> None:
    """write(path) for one output path; an OSError there is a ConfigError naming the path."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from None


class Run:
    """One command invocation: its parsed config, grid, seed and solver
    settings, the stage timings, and the one writer of results.csv and
    manifest.json.

    A command calls :meth:`load` first.  Commands that write results name
    the geometry field they need; :meth:`load` then also fixes the frame
    and creates the output directory, and from there on a manifest is
    written whether the command succeeds or stops on a toolkit error.
    """

    def __init__(self, args):
        self.args = args
        self.started = time.time()
        self.out: Path | None = None
        self.timings: dict[str, float] = {}
        self.diagnostics: dict = {}
        self.acceptance: dict = {}  # a command sets its flags False before computing them
        self.threads = 1  # the sample pool's size; run-cgo has no pool

    def load(self, needs: str | None = None):
        with self.stage("parse"):
            self.cfg = cfg = _load_config(self.args)
        self.grid = cfg.grid
        self.seed = self.args.seed if self.args.seed is not None else cfg.sampling.seed
        self.solver = asdict(cfg.solver)  # keyword arguments of every solve
        if needs is None:
            return None
        geo = cfg.geometry
        if geo is None or getattr(geo, needs) is None:
            raise ConfigError(f"geometry.{needs} is required for {self.args.command}")
        self.eta1, self.eta2 = orthonormal_frame(geo.rho, geo.frame_angle)
        out = Path(self.args.out or cfg.output.directory)
        _write(out, lambda path: path.mkdir(parents=True, exist_ok=True))
        self.out = out
        return geo

    def pool(self) -> int:
        """Size the command's sample pool: every usable CPU, or 1 where a solve on the grid splits over them."""
        self.threads = 1 if _split(self.grid.n)[0] > 1 else _usable_cpus()
        return self.threads

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the wall time of the block to ``timings[name]``, in seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start

    def derived(self) -> DerivedMedium:
        with self.stage("derive"):
            return derive(self.cfg.medium(0).build(self.grid))

    def write_csv(self, header, rows) -> None:
        with self.stage("write"):
            lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
            _write(self.out / "results.csv", lambda path: path.write_text("\n".join(lines) + "\n"))

    def write_manifest(self) -> None:
        if self.out is None:  # the check commands write no directory
            return
        usage = resource.getrusage(resource.RUSAGE_SELF)  # the process so far; maxrss in KiB
        doc = {
            "command": self.args.command,
            "version": __version__,
            "seed": self.seed,
            "config": self.cfg.raw,
            "wall_clock_s": time.time() - self.started,
            "timings": self.timings,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "fft": "numpy.fft",
                "cpu_count": _usable_cpus(),  # the CPUs this process may run on
                "fft_workers": 1 if self.threads > 1 else _split(self.grid.n)[0],
                "threads": self.threads,
            },
            "resources": {
                "peak_rss_mb": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt,
                "user_cpu_s": usage.ru_utime, "system_cpu_s": usage.ru_stime,
            },
            "diagnostics": self.diagnostics,
            "acceptance": self.acceptance,
        }
        text = json.dumps(doc, indent=2, default=str) + "\n"
        _write(self.out / "manifest.json", lambda path: path.write_text(text))


def _load_config(args):
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


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

def cmd_check_algebra(run: Run) -> int:
    args = run.args
    fault = algebra.sign_fault_injected() if args.inject_sign_fault else contextlib.nullcontext()
    with fault:
        results = checks.algebra_checks(seed=args.seed if args.seed is not None else 0)
    return _print_checks(results, args.json)


def cmd_check_calculus(run: Run) -> int:
    run.load()
    return _print_checks(checks.calculus_checks(run.grid, seed=run.seed), run.args.json)


def cmd_check_factorization(run: Run) -> int:
    run.load()
    return _print_checks(checks.factorization_checks(run.derived(), seed=run.seed), run.args.json)


def cmd_run_cgo(run: Run) -> int:
    geo = run.load("s")
    run.acceptance["converged"] = False
    dm = run.derived()
    geom = make_geometry(geo.rho, run.eta1, run.eta2, geo.s, dm.k, grid=run.grid)
    amp = amplitude_a(geom, geo.polarization)
    with run.stage("solve"):
        sol = solve_cgo(dm, geom.zeta1, amp, **run.solver)
    header = ["s", "eta_angle", "iterations", "residual", "remainder_norm",
              "forcing_norm", "contraction", "clamped_fraction"]
    run.write_csv(header, [[
        geo.s, geo.frame_angle, sol.iterations, sol.residual, sol.remainder_norm,
        sol.forcing_norm, sol.contraction, sol.clamp.fraction,
    ]])
    if run.cfg.output.save_fields:
        with run.stage("write"):
            remainder = sol.total  # a fresh array: R = (A + R) - A in place
            remainder.values -= amp.reshape(8, 1, 1, 1)
            _write(run.out / "fields.bin", lambda path: fields.save_field_bin(remainder, path))
    run.diagnostics = {
        "iterations": sol.iterations, "residual": sol.residual, "contraction": sol.contraction,
        "clamped_modes": sol.clamp.clamped, "clamped_defect": sol.clamped_defect,
        "forcing_norm": sol.forcing_norm, "residuals": sol.residuals, "k": dm.k, "omega": dm.omega,
    }
    run.acceptance = {
        "converged": True,  # solve_cgo raises DivergenceError on every other outcome
        "remainder_bounded": sol.remainder_norm <= 2.0 * sol.forcing_norm,
    }
    return EXIT_OK


def cmd_run_decay(run: Run) -> int:
    geo = run.load("lambda_list")
    run.acceptance["remainder_decreasing"] = False
    n_samples = run.cfg.sampling.n_samples
    if n_samples < MIN_SAMPLES:
        raise ConfigError(f"sampling.n_samples must be >= {MIN_SAMPLES} for run-decay")
    rows = len(geo.lambda_list) * n_samples  # a plan row and its DecaySample take about 0.3 KiB
    if 320 * rows > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"sampling.n_samples is too large: {rows} samples exceed physical memory")
    dm = run.derived()
    with run.stage("solve"):
        study = decay_study(
            dm, geo.rho, geo.polarization, geo.lambda_list, n_samples=n_samples,
            seed=run.seed, workers=run.pool(), **run.solver,
        )
    header = ["lambda", "s", "eta_angle", "iterations", "residual",
              "remainder_norm", "forcing_norm", "clamped_fraction"]
    run.write_csv(header, [
        [r.lam, r.s, r.angle, r.iterations, r.residual, r.remainder_norm,
         r.forcing_norm, r.clamp_fraction]
        for r in study.samples
    ])
    run.diagnostics = {
        "summaries": [
            {"lambda": s.lam, "n_samples": s.n_samples, "mean_remainder_sq": s.mean_remainder_sq,
             "stderr_remainder_sq": s.stderr_remainder_sq, "mean_forcing_sq": s.mean_forcing_sq}
            for s in study.summaries
        ],
        "failures": sample_failures(study.samples),
    }
    run.acceptance["remainder_decreasing"] = study.remainder_decreasing
    return EXIT_OK if study.remainder_decreasing else EXIT_TREND


def cmd_run_uniqueness(run: Run) -> int:
    geo = run.load("s_list")
    with run.stage("derive"):
        mp = make_pair(*(run.cfg.medium(i).build(run.grid) for i in (0, 1)))
    verdict = "pairing_at_floor" if mp.identical else "error_shrinks"
    run.acceptance[verdict] = False
    with run.stage("solve"):
        result = convergence_experiment(
            mp, geo.rho, geo.polarization, geo.s_list, run.eta1, run.eta2,
            workers=run.pool(), **run.solver,
        )
    run.write_csv(
        ["s", "pairing_re", "pairing_im", "target_re", "target_im", "abs_error"],
        [[r.s, r.pairing.real, r.pairing.imag, r.target.real, r.target.imag, r.abs_error]
         for r in result.rows],
    )
    floor_level = 1e-9
    ok = all(abs(r.pairing) <= floor_level for r in result.rows) if mp.identical else result.error_shrinks
    run.diagnostics = {
        "target_re": result.target.real,
        "target_im": result.target.imag,
        "identical_media": mp.identical,
        "k": mp.k,
        "pairing_clamps": [{"s": r.s, "clamped": [c.clamped for c in r.clamps], "defect_ratio": list(r.defects),
                            "fraction": [c.fraction for c in r.clamps]} for r in result.rows],
    }
    run.acceptance[verdict] = ok
    return EXIT_OK if ok else EXIT_TREND


def cmd_estimate_qnorm(run: Run) -> int:
    geo = run.load("s_list")
    run.acceptance["estimate_decreasing"] = False
    dm = run.derived()

    def row(s):
        geom = make_geometry(geo.rho, run.eta1, run.eta2, s, dm.k, grid=run.grid)
        est = q_norm_estimate(dm, geom.zeta1, seed=run.seed)
        return [s, geom.zeta1_mag, est.estimate, est.h, est.smooth_term, est.rough_term]

    with run.stage("solve"):
        rows = _parallel_map(row, geo.s_list, run.pool())
    estimates = [r[2] for r in rows]
    run.write_csv(["s", "zeta_mag", "estimate", "h", "smooth_term", "rough_term"], rows)
    decreasing = strictly_decreasing(estimates)
    run.diagnostics = {"estimates": estimates}
    run.acceptance["estimate_decreasing"] = decreasing
    return EXIT_OK if decreasing else EXIT_TREND


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

COMMANDS = {
    "check-algebra": (cmd_check_algebra, "pointwise algebra identity suite"),
    "check-calculus": (cmd_check_calculus, "spectral calculus identity suite"),
    "check-factorization": (cmd_check_factorization, "first-order factorization suite"),
    "run-cgo": (cmd_run_cgo, "single remainder solve"),
    "run-decay": (cmd_run_decay, "averaged remainder-decay study"),
    "run-uniqueness": (cmd_run_uniqueness, "pairing vs scattering targets"),
    "estimate-qnorm": (cmd_estimate_qnorm, "potential operator-norm trend"),
}


def seed(text: str) -> int:
    """argparse type of --seed, an integer of at least 0; a bad value exits 2 naming the flag."""
    value = int(text)  # argparse reports a ValueError as "invalid seed value"
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgolab",
        description="Spectral experiments for the time-harmonic Maxwell CGO machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "check-algebra":
            p.add_argument(
                "--inject-sign-fault", action="store_true",
                help="corrupt one sign-table entry (self-test of the checks)",
            )
        else:
            p.add_argument("--config", required=False, help="path to the JSON run config")
        if name.startswith("check-"):  # the check commands print a report and write no directory
            p.add_argument("--json", action="store_true", help="machine-readable report")
        else:
            p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=seed, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, _ = COMMANDS[args.command]
    run = Run(args)
    code = EXIT_OK
    for step in (command, Run.write_manifest):  # the manifest records a failed command too
        try:
            code = step(run) or code  # write_manifest returns None
        except tuple(FAILURES) as exc:
            code, label = FAILURES[type(exc)]
            print(f"{label}: {exc}", file=sys.stderr)
            run.diagnostics = {**(exc.diagnostics or {}), "error": str(exc)}
    return code


if __name__ == "__main__":
    sys.exit(main())
