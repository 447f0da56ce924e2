"""Outside-in tracing of the cgolab layers.

The tracer wraps every public function of the layer modules and installs
the wrapper under every name that refers to the original in any loaded
``cgolab.*`` module.  ``cgo``, ``uniqueness`` and ``checks`` import
``potential``, ``solve_cgo``, ``fft_forward``, ... by name, so patching
only the defining module would miss their calls.

Each thread keeps its own span stack, so self time stays correct under
the decay study's thread pool.  Spans are kept in memory; the caller
writes them out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("algebra", "fields", "media", "cgo", "uniqueness", "checks")


def _fft_bytes(args, result):
    """Input plus output array bytes of one FFT call, from array shapes."""
    src = args[0]
    src_bytes = src.values.nbytes if hasattr(src, "values") else src.coeffs.nbytes
    dst_bytes = result.values.nbytes if hasattr(result, "values") else result.coeffs.nbytes
    return src_bytes + dst_bytes


# Extra per-call quantities read off arguments and results.
_EXTRAS = {
    "cgo.solve_cgo": lambda args, result: result.iterations,
    "fields.fft_forward": _fft_bytes,
    "fields.fft_inverse": _fft_bytes,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    phase: str
    start: float
    end: float
    self_s: float
    ok: bool
    extra: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []

    def _wrap(self, fn, name):
        extra_fn = _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            ok = False
            extra = 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if ok and extra_fn is not None:
                    extra = float(extra_fn(args, result))
                span = Span(
                    span_id, parent, name, threading.get_ident(), self.phase,
                    start, end, end - start - frame[1], ok, extra,
                )
                with self._lock:
                    self.spans.append(span)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each public layer function and rebind it by identity."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if (name == "cgolab" or name.startswith("cgolab.")) and mod is not None
        }
        originals = {}
        for layer in LAYERS:
            mod = modules[f"cgolab.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    self.names.append(name)
                    originals[id(obj)] = (obj, self._wrap(obj, name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def layer_metrics(tracer: Tracer, pool_workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit).

    For every wrapped function ``<layer>.<fn>``: ``.calls`` and ``.self_s``
    over the traced body and ``.total_s`` (inclusive) over the traced
    set-up, plus the derived counters below.
    """
    stats = {
        stat: dict.fromkeys(tracer.names, 0.0)
        for stat in ("calls", "self_s", "total_s", "inclusive", "extra", "failed")
    }
    for s in tracer.spans:
        if s.phase == "setup":
            stats["total_s"][s.name] += s.duration
            continue
        stats["calls"][s.name] += 1.0
        stats["self_s"][s.name] += s.self_s
        stats["inclusive"][s.name] += s.duration
        stats["extra"][s.name] += s.extra
        stats["failed"][s.name] += not s.ok

    out = {
        f"{name}.{stat}": (stats[stat][name], unit)
        for name in tracer.names
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
    }
    extra = stats["extra"]
    out["fields.fft.bytes_computed"] = (
        extra["fields.fft_forward"] + extra["fields.fft_inverse"], "bytes"
    )
    iterations = extra["cgo.solve_cgo"]
    out["cgo.solve_cgo.iterations"] = (iterations, "count")
    out["cgo.solve_cgo.failed"] = (stats["failed"]["cgo.solve_cgo"], "count")
    solve_s = stats["inclusive"]["cgo.solve_cgo"]
    out["cgo.iter_ms"] = (1e3 * solve_s / iterations if iterations else 0.0, "ms")
    body = [s for s in tracer.spans if s.phase == "body"]
    out["cgo.decay_study.pool_idle_s"] = (_pool_idle(body, pool_workers), "s")
    return out


def _pool_idle(spans: list[Span], workers: int) -> float:
    """workers x decay_study wall - busy time of the pool threads.

    A pool thread is busy while it is inside a traced call: its
    outermost spans within the study's interval, on threads other than
    the one that called ``decay_study``.
    """
    idle = 0.0
    for study in (s for s in spans if s.name == "cgo.decay_study"):
        busy = sum(
            s.duration for s in spans
            if s.parent is None
            and s.thread != study.thread
            and study.start <= s.start <= study.end
        )
        idle += workers * study.duration - busy
    return idle
