"""Re-record the golden outputs of this directory.

    PYTHONPATH=src python tests/reference_outputs/record.py

Runs the commands that ``tests/test_cli.py::test_reference_outputs_keep_their_bytes``
compares (both call :func:`reference_outputs`, so the two cannot drift), writes
every file of this directory and ``numpy_version``, and prints one row per
value that moved: the file, the CSV cell or check field, the old value, the new
value and the relative change.  Tier-1 never runs it: a re-record lands only
with the change that moves the outputs, and that change names each moved value.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script: this checkout's cgolab and the tests' helpers
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402
from conftest import CONFIGS, reference_config  # noqa: E402

from cgolab.cli import main  # noqa: E402

#: (config kind, command, file) of each run command whose results.csv is pinned;
#: run-cgo also writes fields.bin, whose SHA-256 is pinned by config kind
RUNS = (
    ("cgo", "run-cgo", "run-cgo.csv"), ("decay", "run-decay", "run-decay.csv"),
    ("uniqueness", "run-uniqueness", "run-uniqueness.csv"), ("qnorm", "estimate-qnorm", "estimate-qnorm.csv"),
    ("check", "run-cgo", "run-cgo-check.csv"),
)
HASHES = "fields.bin.sha256.json"
#: each check command whose --json report is pinned, as <command>.json, with its arguments
CHECKS = (
    ("check-algebra", []),
    ("check-calculus", ["--config", str(CONFIGS / "reference_check.json")]),
    ("check-factorization", ["--config", str(CONFIGS / "reference_check.json")]),
)
FILES = (*(name for _, _, name in RUNS), HASHES, *(f"{command}.json" for command, _ in CHECKS), "numpy_version")


def _run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"cgolab {' '.join(argv)} did not exit 0")


def reference_outputs(tmp: Path) -> dict[str, str]:
    """The text of each file of this directory but numpy_version, by name, as this checkout
    writes it; the runs write their output directories under ``tmp``."""
    texts, hashes = {}, {}
    for kind, command, name in RUNS:
        cfg, out = reference_config(kind), tmp / name
        cfg["output"]["save_fields"] = command == "run-cgo"
        path = tmp / f"{kind}.json"
        path.write_text(json.dumps(cfg))
        _run([command, "--config", str(path), "--out", str(out)])
        texts[name] = (out / "results.csv").read_bytes().decode()
        if command == "run-cgo":
            hashes[kind] = hashlib.sha256((out / "fields.bin").read_bytes()).hexdigest()
    texts[HASHES] = json.dumps(hashes, indent=2) + "\n"
    for command, args in CHECKS:
        with contextlib.redirect_stdout(io.StringIO()) as report:
            _run([command, "--json", *args])
        texts[f"{command}.json"] = report.getvalue()
    return texts


def moves(name: str, old_text: str, new_text: str) -> list[tuple[str, object, object]]:
    """(where, old, new) of each value of the file ``name`` that moved: each CSV cell by line and
    column, each check-report field by check and field, each fields.bin hash by config kind, and
    numpy_version whole; ("bytes", None, None) alone when the bytes moved but no value did."""
    if old_text == new_text:
        return []
    if name.endswith(".csv"):
        old, new = (list(csv.reader(io.StringIO(text))) for text in (old_text, new_text))
        header = old[0] if old else []
        rows = [(f"line {line}, column {header[col] if col < len(header) else col}", a, b)
                for line, (row_a, row_b) in enumerate(itertools.zip_longest(old, new, fillvalue=[]), start=1)
                for col, (a, b) in enumerate(itertools.zip_longest(row_a, row_b)) if a != b]
    elif name == HASHES:
        old, new = json.loads(old_text or "{}"), json.loads(new_text)
        rows = [(f"fields.bin of reference_{kind}", old.get(kind), new.get(kind))
                for kind in dict.fromkeys([*old, *new]) if old.get(kind) != new.get(kind)]
    elif name.endswith(".json"):
        old, new = ({c["name"]: c for c in json.loads(text or "[]")} for text in (old_text, new_text))
        rows = [(f"check {check!r}, field {key}", a, b)
                for check in dict.fromkeys([*old, *new])
                for key in dict.fromkeys([*old.get(check, {}), *new.get(check, {})])
                if repr(a := old.get(check, {}).get(key)) != repr(b := new.get(check, {}).get(key))]
    else:
        rows = [("version", old_text.strip(), new_text.strip())]
    return rows or [("bytes", None, None)]


def moved(name: str, old_text: str, new_text: str) -> list[str]:
    """The golden test's failure lines for the file ``name``: each moved value by where, old and
    new value, or the file alone when its bytes moved but no value did."""
    return [name if where == "bytes" else f"{name} {where}: {a!r} -> {b!r}"
            for where, a, b in moves(name, old_text, new_text)]


def relative_change(old, new) -> str:
    """(new - old) / |old| of two numbers, or of two cells that spell numbers; empty otherwise."""
    if isinstance(old, bool) or isinstance(new, bool):
        return ""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    return f"{(b - a) / abs(a):+.3e}" if a else ""


def record() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        texts = reference_outputs(Path(tmp))
    texts["numpy_version"] = np.__version__ + "\n"
    rows = []
    for name, text in texts.items():
        path = HERE / name
        old_text = path.read_bytes().decode() if path.exists() else ""
        rows += [(name, where, a, b) for where, a, b in moves(name, old_text, text)]
        path.write_bytes(text.encode())
    print("file\tvalue\told\tnew\trelative change")
    for name, where, a, b in rows:
        print(f"{name}\t{where}\t{a!r}\t{b!r}\t{relative_change(a, b)}")
    print(f"{len(rows)} values moved in {len({row[0] for row in rows})} of {len(texts)} files")
    return 0


if __name__ == "__main__":
    sys.exit(record())
