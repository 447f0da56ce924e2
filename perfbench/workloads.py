"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed (``build``), runs one
closed batch through the library's public entry points (``body``, the
same calls ``cli.py`` makes) and returns its outputs as plain JSON data.
``gate`` turns outputs into named pass/fail operations; every
operation counts once in ``attempted`` and, if it misses, in ``failed``.

Calls go through module attributes (``cgo.solve_cgo``), never through
names bound here, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cgolab import cgo, checks, errors, fields, media, presets
from cgolab import uniqueness as uq

SOLVER_TOL = 1e-9  # the reference configs' solver.tol
MAX_ITER = 80  # the reference configs' solver.max_iter
FRAME_SEED = 7  # the reference configs' geometry.frame_seed
POOL_WORKERS = 2  # nproc on the reference machine; FFT workers stay at 1
RESIDUAL_LIMIT = 1e-8
CONTRACTION_LIMIT = 0.5
IDENTITY_LIMIT = 1e-6


def frame_angle() -> float:
    """Frame angle of the reference configs (runconfig's frame_angle)."""
    return float(fields.seeded_rng(FRAME_SEED).uniform(0.0, 2.0 * np.pi))


def _rho(grid, index) -> np.ndarray:
    return (2.0 * np.pi / grid.length) * np.asarray(index, dtype=float)


# The gate's helpers stay independent of the library under test.
def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def build_reference(seed: int, n: int):
    """The reference medium, derived: the input of decay, factorization and solve64."""
    grid = presets.reference_grid(n)
    return {"seed": seed, "dm": media.derive(presets.reference_medium(grid))}


# ---------------------------------------------------------------------------
# decay: decay_study on the reference medium (criterion 7, run-decay)
# ---------------------------------------------------------------------------

DECAY_LAMBDAS = (4.0, 8.0, 16.0)
DECAY_SAMPLES = 8  # the study's minimum per lambda


def body_decay(inputs) -> dict:
    dm = inputs["dm"]
    study = cgo.decay_study(
        dm, _rho(dm.grid, (1, 0, 0)), cgo.Polarization.E, DECAY_LAMBDAS,
        n_samples=DECAY_SAMPLES, seed=inputs["seed"], tol=SOLVER_TOL,
        max_iter=MAX_ITER, workers=POOL_WORKERS,
    )
    return {
        "samples": [
            {
                "lam": s.lam, "s": s.s, "angle": s.angle, "iterations": s.iterations,
                "residual": s.residual, "remainder_norm": s.remainder_norm,
                "forcing_norm": s.forcing_norm, "error": s.error,
            }
            for s in study.samples
        ],
        "means": [m.mean_remainder_sq for m in study.summaries],
    }


def gate_decay(out: dict) -> list[tuple[str, bool]]:
    ops = [
        (
            f"decay sample lam={s['lam']} s={s['s']:.4f}",
            not s["error"]
            and _finite(s["residual"], s["remainder_norm"], s["forcing_norm"])
            and s["residual"] < RESIDUAL_LIMIT,
        )
        for s in out["samples"]
    ]
    ops.append(("decay means strictly decreasing", _finite(*out["means"]) and _decreasing(out["means"])))
    return ops


# ---------------------------------------------------------------------------
# factorization: factorization_checks (criterion 4, check-factorization)
# ---------------------------------------------------------------------------

FACTORIZATION_PAIRS = 1


def body_factorization(inputs) -> dict:
    results = checks.factorization_checks(
        inputs["dm"], seed=inputs["seed"], n_pairs=FACTORIZATION_PAIRS
    )
    return {"checks": [r.as_dict() for r in results], "n": inputs["dm"].grid.n}


def gate_factorization(out: dict) -> list[tuple[str, bool]]:
    # The library's own tolerances are the 1e-6 contract from 32^3 up;
    # coarser grids get its looser identity bound.
    limit = IDENTITY_LIMIT if out["n"] >= 32 else math.inf
    return [
        (
            f"identity {r['name']}",
            _finite(r["error"]) and r["error"] < r["tolerance"] and r["error"] < limit,
        )
        for r in out["checks"]
    ]


# ---------------------------------------------------------------------------
# uniqueness: pairing convergence and UCP certificate (criteria 9, 10)
# ---------------------------------------------------------------------------

PAIR_S = (8.0, 32.0)
UCP_MAGNITUDES = (8.0, 16.0, 32.0)
UCP_TRIALS = 3


def build_uniqueness(seed: int, n: int):
    grid = presets.reference_grid(n)
    mp = uq.make_pair(presets.reference_medium(grid), presets.perturbed_medium(grid))
    return {"seed": seed, "mp": mp}


def body_uniqueness(inputs) -> dict:
    mp = inputs["mp"]
    rho = _rho(mp.grid, (2, 0, 0))
    eta1, eta2 = cgo.orthonormal_frame(rho, frame_angle())
    out: dict[str, Any] = {"pairing": {}, "ucp": []}
    for pol in (cgo.Polarization.E, cgo.Polarization.H):
        try:
            res = uq.convergence_experiment(
                mp, rho, pol, PAIR_S, eta1, eta2, tol=SOLVER_TOL, max_iter=MAX_ITER,
                workers=POOL_WORKERS,
            )
        except errors.CgolabError as exc:
            out["pairing"][pol.value] = {"error": type(exc).__name__}
            continue
        out["pairing"][pol.value] = {
            "rows": [
                {"s": r.s, "pairing": [r.pairing.real, r.pairing.imag], "abs_error": r.abs_error}
                for r in res.rows
            ],
            "target": [res.target.real, res.target.imag],
        }
    coeffs = uq.ucp_coefficients(mp)
    for mag in UCP_MAGNITUDES:
        rep = uq.ucp_contraction_check(
            mp.grid, coeffs, uq.null_covector(mag), trials=UCP_TRIALS, seed=inputs["seed"]
        )
        out["ucp"].append({
            "magnitude": mag,
            "norm_estimate": float(rep.norm_estimate),
            "certified": bool(rep.contraction_certified),
            "fixed_point_converged": bool(rep.fixed_point_converged),
            "fixed_point_iterations": int(rep.fixed_point_iterations),
        })
    return out


def gate_uniqueness(out: dict) -> list[tuple[str, bool]]:
    ops = []
    for pol, res in sorted(out["pairing"].items()):
        rows = res.get("rows", [])
        ok = (
            "error" not in res
            and all(_finite(*r["pairing"], r["abs_error"]) for r in rows)
            and rows[-1]["abs_error"] < rows[0]["abs_error"]
        )
        ops.append((f"{pol} pairing error shrinks", ok))
    estimates = [u["norm_estimate"] for u in out["ucp"]]
    ops.append(("UCP norm estimates decreasing", _finite(*estimates) and _decreasing(estimates)))
    last = out["ucp"][-1]
    ops.append(("UCP certified", last["certified"] and last["fixed_point_converged"]))
    return ops


# ---------------------------------------------------------------------------
# solve64: serial solve_cgo calls at 64^3 (run-cgo, scaling sweep)
# ---------------------------------------------------------------------------

SOLVE_S = (4.0, 8.0, 32.0)


def body_solve64(inputs) -> dict:
    dm = inputs["dm"]
    rho = _rho(dm.grid, (1, 0, 0))
    eta1, eta2 = cgo.orthonormal_frame(rho, frame_angle())
    solves = []
    for s in SOLVE_S:
        geom = cgo.make_geometry(rho, eta1, eta2, s, dm.k, grid=dm.grid)
        amp = cgo.amplitude_a(geom, cgo.Polarization.E)
        try:
            sol = cgo.solve_cgo(dm, geom.zeta1, amp, tol=SOLVER_TOL, max_iter=MAX_ITER)
        except errors.CgolabError as exc:
            solves.append({"s": s, "error": type(exc).__name__})
            continue
        solves.append({
            "s": s, "iterations": sol.iterations, "residual": sol.residual,
            "contraction": sol.contraction, "remainder_norm": sol.remainder_norm,
            "forcing_norm": sol.forcing_norm, "clamped": sol.clamp.clamped,
        })
    return {"solves": solves}


def gate_solve64(out: dict) -> list[tuple[str, bool]]:
    return [
        (
            f"solve s={r['s']}",
            "error" not in r
            and _finite(r["residual"], r["contraction"], r["remainder_norm"], r["forcing_norm"])
            and r["residual"] < RESIDUAL_LIMIT
            and r["contraction"] < CONTRACTION_LIMIT
            and r["remainder_norm"] <= 2.0 * r["forcing_norm"],
        )
        for r in out["solves"]
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # grid size of a full run; smoke runs use 16
    setup_reps: int  # fresh-process set-ups per run; setup_s reports their median
    # Warm body time on the reference machine (2 vCPUs).  It fixes the number
    # of timed bodies for a given --seconds, so that number never depends on
    # the speed of the code under test.
    body_s: float
    seeded: bool  # whether the seed changes the inputs
    build: Callable[[int, int], Any]
    body: Callable[[Any], dict]
    gate: Callable[[dict], list[tuple[str, bool]]]
    # Output fields that are ratios of round-off-sized numbers; they are
    # gated by invariants but not compared against recorded outputs.
    volatile: tuple[str, ...] = ()

    def bodies(self, seconds: float) -> int:
        """Timed bodies of one run with a budget of ``seconds``."""
        return max(1, round(seconds / self.body_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decay", 32, 5, 8.5, True, build_reference, body_decay, gate_decay),
        Workload("factorization", 32, 5, 3.0, True, build_reference, body_factorization,
                 gate_factorization),
        Workload("uniqueness", 32, 5, 6.0, True, build_uniqueness, body_uniqueness,
                 gate_uniqueness),
        Workload("solve64", 64, 3, 19.0, False, build_reference, body_solve64, gate_solve64,
                 volatile=("contraction",)),
    )
}
