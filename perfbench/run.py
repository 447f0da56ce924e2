"""cgolab benchmark: one workload per fresh interpreter.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --workload decay --smoke     # 16^3 self-test

A run imports cgolab from ``src/`` of this checkout and builds the
workload's inputs; further interpreters started from this one do the same
and exit (``setup_s`` is the median, over these fresh processes, of the
time from process start to inputs ready).  It then runs the workload body
a fixed number of times, one closed batch at a time: ``--seconds`` divided
by the workload's nominal body time, rounded, at least once (``wall_s`` is
the median body).
Every repetition passes the correctness gate and must reproduce the first
one exactly; recorded outputs for the seed, when present, are compared at
round-off tolerance.  With ``--trace 1`` a
further set-up and body run under the layer tracer and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of stdout is the JSON result; a failed operation makes the
exit code 1.
"""

import os
import sys
import time

T0 = time.perf_counter()
# One thread per BLAS call and per FFT: the only parallelism is the
# decay and pairing pools, so at most POOL_WORKERS threads compute.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
WORKLOAD_NAMES = ("decay", "factorization", "uniqueness", "solve64")
SMOKE_N = 16
RTOL = 1e-9
ATOL = 1e-12


def import_library():
    """Import cgolab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cgolab  # noqa: F401
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cgolab from {SRC}: {exc}")
    if not Path(cgolab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: cgolab was imported from {cgolab.__file__}, not {SRC}")
    return workloads


def process_age() -> float:
    """Seconds since this process started, or since run.py started without /proc."""
    try:
        stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(stat[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0, help="body time budget of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=f"{SMOKE_N}^3 grid, one set-up, one body")
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs as the reference for later runs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.record and args.smoke:
        p.error("--record stores full-size outputs; drop --smoke")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict:
    """Unified cache sizes by level, from the CPU 0 cache description in /sys."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and size.endswith("K"):
            sizes[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return sizes


def _git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cgolab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, n: int, workloads) -> dict:
    import numpy
    import scipy

    caches = _cache_sizes()
    field_bytes = 8 * n**3 * 16  # one 8-component complex128 field
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        **caches,
        "fft_workers": 1,
        "pool_workers": workloads.POOL_WORKERS,
        "pinned": {var: os.environ[var] for var in PINNED},
        "workload": args.workload,
        "seed": args.seed,
        "n": n,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "field_bytes": field_bytes,
        "fft_bytes_note": "fields.fft.bytes_computed is input plus output bytes per "
                          "FFT call, computed from array shapes, not measured",
        "bandwidth_note": "no memory bandwidth is measured: the largest array stays far "
                          "below 4x the L3 size",
    }
    for level in ("l2", "l3"):
        if f"{level}_bytes" in caches:
            env[f"field_over_{level}"] = field_bytes / caches[f"{level}_bytes"]
    return env


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def mismatches(got, want, volatile=(), path="") -> list[str]:
    """Paths where ``got`` differs from ``want`` beyond round-off."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [
            m for key in want if key not in volatile
            for m in mismatches(got[key], want[key], volatile, f"{path}/{key}")
        ]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, volatile, f"{path}/{i}")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        ok = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
        return [] if ok else [path]
    return [] if got == want else [path]


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Ledger:
    """Named pass/fail operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ops):
        for name, ok in ops:
            self.attempted += 1
            if not ok:
                self.failures.append(name)


def fresh_setup(args) -> float:
    """Set-up time of the workload in a fresh interpreter, which then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    workloads = import_library()
    from cgolab import fields

    import_s = process_age()
    fields.set_fft_workers(1)
    w = workloads.WORKLOADS[args.workload]
    n = SMOKE_N if args.smoke else w.n
    if args.setup_only:
        w.build(args.seed, n)
        print(json.dumps({"setup_s": process_age()}))
        return 0

    # The other set-ups run first, so that two sets of inputs never share memory.
    setup_times = [fresh_setup(args) for _ in range(0 if args.smoke else w.setup_reps - 1)]
    start = time.perf_counter()
    inputs = w.build(args.seed, n)
    setup_times.insert(0, import_s + time.perf_counter() - start)

    ledger = Ledger()
    body_times: list[float] = []
    first = None
    for _ in range(1 if args.smoke else w.bodies(args.seconds)):
        start = time.perf_counter()
        out = w.body(inputs)
        body_times.append(time.perf_counter() - start)
        ledger.record(w.gate(out))
        if first is None:
            first = out
        else:
            ledger.record([("repetition reproduces the first", out == first)])
    wall_s = statistics.median(body_times)

    reference = {} if args.smoke else load_reference(w.name)
    key = str(args.seed) if w.seeded else "*"  # unseeded inputs: one record for all seeds
    if key in reference:
        diff = mismatches(first, reference[key], w.volatile)
        ledger.record([(f"recorded outputs match, differing at {diff[:3]}", not diff)])

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
    }
    spans = []
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        inputs = None
        tr.install()
        try:
            inputs = w.build(args.seed, n)
            tr.phase = "body"
            start = time.perf_counter()
            traced = w.body(inputs)
            traced_wall = time.perf_counter() - start
        finally:
            tr.uninstall()
        ledger.record([("traced outputs identical to untraced", traced == first)])
        metrics.update(tracer.layer_metrics(tr, workloads.POOL_WORKERS))
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        spans = tr.spans
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    if args.record:
        if ledger.failures:
            raise SystemExit(f"perfbench: not recording failing outputs: {ledger.failures}")
        reference = load_reference(w.name)
        reference[key] = first
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{w.name}.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    emitted = {}
    absent = []
    for m in wanted:
        if args.trace and m["name"] not in metrics:
            # A layer function that no longer exists has no calls and no time.
            absent.append(m["name"])
            metrics[m["name"]] = (0.0, m["unit"])
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        emitted[m["name"]] = {"value": value, "unit": unit}

    env = environment(args, n, workloads)
    failed = len(ledger.failures)
    summary = {
        "env": env,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "body_times_s": body_times,
        "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    print(f"workload {w.name}  seed {args.seed}  n={n}  trace {args.trace}")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(setup_times)} fresh-process "
          f"set-ups {[round(t, 3) for t in setup_times]}, import {import_s:.3f} s")
    print(f"  wall_s       {wall_s:.4f} s   median of {len(body_times)} bodies "
          f"{[round(t, 3) for t in body_times]}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  fail_frac    {failed / ledger.attempted:.4f}   {failed} of {ledger.attempted} operations failed")
    if args.trace:
        for name in sorted(k for k in metrics if "." in k):
            value, unit = metrics[name]
            print(f"  {name:<40} {value:.6g} {unit}")
    for name in absent:
        print(f"  not traced (no such function): {name}")
    for name in ledger.failures:
        print(f"  FAILED: {name}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": emitted,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so each set-up pays the import."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] * args.smoke + ["--record"] * args.record
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
