import copy
import functools
import importlib
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgolab import cgo, cli, fields, presets
from cgolab import uniqueness as uq
from cgolab.cli import EXIT_DIVERGENCE, EXIT_RESONANT, build_parser, main
from cgolab.errors import ConfigError, DivergenceError
from cgolab.media import derive
from cgolab.runconfig import parse_config
from conftest import CONFIGS, bits, reference_config, traced_peak
from reference_outputs import record

REFERENCE_OUTPUTS = Path(__file__).resolve().parent / "reference_outputs"


def small_config(kind="cgo", **overrides):
    cfg = reference_config(kind)
    cfg["grid"] = {"n": 16, "length": 2.0 * np.pi}
    cfg.update(overrides)
    return cfg


def write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def invalid_physics_configs():
    """Configs that parse as a schema but describe no admissible experiment,
    with the field each one must be reported under."""
    negative = small_config("cgo")
    negative["medium"]["eps_bumps"][0]["amplitude"] = -0.4
    wide = small_config("cgo")
    wide["medium"]["eps_bumps"][0]["radius"] = 3.0
    wide_second = small_config("uniqueness")
    wide_second["media"][1]["eps_bumps"][0]["radius"] = 3.0
    h_without_rho = small_config("cgo")
    h_without_rho["geometry"].update(polarization="H", rho_index=[0, 0, 0])
    few_samples = small_config("decay")
    few_samples["sampling"]["n_samples"] = 4
    other_omega = small_config("uniqueness")
    other_omega["media"][1]["omega"] = 2.0
    other_mu0 = small_config("uniqueness")
    other_mu0["media"][1]["mu0"] = 1.5
    off_box = small_config("cgo")
    off_box["medium"]["eps_bumps"][0]["center_offset"] = [5.0, 0.0, 0.0]
    empty_ball = small_config("cgo")  # centred 0.1 off the grid point nearest it
    empty_ball["medium"]["eps_bumps"][0]["radius"] = 1e-155
    grid_not_object = [
        (command, small_config(kind, grid=value), "grid must be an object")
        for command, kind, value in (
            ("run-cgo", "cgo", 16), ("run-decay", "decay", "16"),
            ("run-uniqueness", "uniqueness", [16]), ("estimate-qnorm", "qnorm", None),
        )
    ]
    return grid_not_object + [
        ("run-cgo", negative, "medium.eps_bumps"),
        ("run-cgo", wide, "medium.eps_bumps"),
        ("run-uniqueness", wide_second, r"media\[1\].eps_bumps"),
        ("run-cgo", h_without_rho, "geometry.rho_index"),
        ("run-decay", few_samples, "sampling.n_samples"),
        ("run-uniqueness", other_omega, r"media\[1\].omega"),
        ("run-uniqueness", other_mu0, r"media\[1\].mu0"),
        ("run-cgo", off_box, r"medium.eps_bumps\[0\].center_offset"),
        ("run-cgo", empty_ball, r"medium.eps_bumps: bump 0 holds no grid point"),
    ]


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config({"grid": {"n": "x", "length": 1.0}, "medium": {"omega": 1.0}})
    with pytest.raises(ConfigError, match="grid.n must be a power of two"):
        parse_config({"grid": {"n": 12, "length": 1.0}, "medium": {"omega": 1.0}})
    with pytest.raises(ConfigError, match="medium.omega"):
        parse_config({"grid": {"n": 16, "length": 1.0}, "medium": {"omega": -1.0}})
    with pytest.raises(ConfigError, match=r"geometry.rho_index"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0},
                "geometry": {"rho_index": [1, 0]},
            }
        )
    with pytest.raises(ConfigError, match="polarization"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0},
                "geometry": {"rho_index": [1, 0, 0], "polarization": "X"},
            }
        )
    with pytest.raises(ConfigError, match=r"s_list must be strictly increasing"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0},
                "geometry": {"rho_index": [1, 0, 0], "s_list": [8.0, 4.0]},
            }
        )
    with pytest.raises(ConfigError, match=r"medium.eps_bumps\[0\].amplitude must be a finite"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0, "eps_bumps": [{"amplitude": float("nan"), "radius": 0.1}]},
            }
        )
    # length**3 is finite, but the cell volume (length / n)**3 underflows
    for n in (8, 64):
        with pytest.raises(ConfigError, match="grid.length 1e-107 puts the volume or cell volume outside"):
            parse_config({"grid": {"n": n, "length": 1e-107}, "medium": {"omega": 1.0}})
    # the solver settings are solve_cgo's: a config that still holds the section names it
    with pytest.raises(ConfigError, match=r"config\.solver is not a known field"):
        parse_config(reference_config("cgo") | {"solver": {"tol": 1e-9, "max_iter": 80}})
    with pytest.raises(ConfigError, match=r"lambda_list values must be >= 1"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0},
                "geometry": {"rho_index": [1, 0, 0], "lambda_list": [0.5, 2.0]},
            }
        )
    for _, doc, field in invalid_physics_configs():
        if field == "sampling.n_samples":
            continue  # a run-decay requirement: the command checks it, not the parser
        with pytest.raises(ConfigError, match=field):
            cfg = parse_config(doc)
            for i in range(len(cfg.media)):
                cfg.medium(i).build(cfg.grid)
    # one key the parser does not read, in each kind of object
    for kind, path, field in (
        ("cgo", (), "config.medum"), ("cgo", ("grid",), "grid.N"),
        ("cgo", ("medium",), "medium.sigma0"),
        ("cgo", ("medium", "eps_bumps", 0), "medium.eps_bumps[0].amplitud"),
        ("cgo", ("geometry",), "geometry.S"), ("cgo", ("sampling",), "sampling.samples"),
        ("cgo", ("output",), "output.dir"),
        ("uniqueness", ("media", 1), "media[1].omega0"),
        ("uniqueness", ("media", 0, "sigma_bumps", 0), "media[0].sigma_bumps[0].center"),
    ):
        node = doc = reference_config(kind)
        for step in path:
            node = node[step]
        node[field.rsplit(".", 1)[1]] = 1.0
        with pytest.raises(ConfigError, match=re.escape(field) + " is not a known field"):
            parse_config(doc)


def test_reference_configs_parse_and_match_presets():
    for kind in ("cgo", "decay", "uniqueness", "qnorm", "check"):
        doc = reference_config(kind)
        assert parse_config(doc).grid.n == presets.REFERENCE_N
        if kind == "uniqueness":
            assert doc["media"] == [presets.medium_spec("reference"), presets.medium_spec("perturbed")]
        else:
            assert doc["medium"] == presets.medium_spec("reference")


def test_the_benchmark_restates_the_geometry_of_the_reference_configs(monkeypatch):
    # perfbench/workloads.py draws its frame and scales its rho itself: the uniqueness
    # workload pairs at rho_index (2, 0, 0), the others solve at (1, 0, 0)
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for kind, index in (("uniqueness", (2, 0, 0)), ("cgo", (1, 0, 0))):
        cfg = parse_config(reference_config(kind))
        assert np.array_equal(bits(workloads._rho(cfg.grid, index)), bits(cfg.geometry.rho))
        assert workloads.frame_angle().hex() == cfg.geometry.frame_angle.hex()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_sketch_parses():
    readme = README.read_text(encoding="utf-8")
    sketch = readme.split("### Config sketch", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(sketch))
    assert cfg.geometry.s == 32.0 and len(cfg.media) == 1


def test_readme_command_lines_parse():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("cgolab ")]
    assert sorted(words[0] for words in lines) == sorted(cli.COMMANDS)
    for words in lines:  # an optional flag is shown in brackets
        build_parser().parse_args([word.strip("[]") for word in words])  # a SystemExit fails the test


def test_bad_config_exit_code(tmp_path, capsys):
    assert main(["run-cgo", "--config", str(tmp_path / "missing.json")]) == 2
    nan_amplitude = small_config()
    nan_amplitude["medium"]["eps_bumps"][0]["amplitude"] = float("nan")
    one_medium = small_config("uniqueness")
    one_medium["media"] = one_medium["media"][:1]
    single = small_config("uniqueness")
    single["medium"] = single.pop("media")[0]
    small_s = small_config("cgo")
    small_s["geometry"]["s"] = 0.5
    eps_overflow = small_config("cgo")  # two overlapping bumps whose sum overflows
    huge = dict(eps_overflow["medium"]["eps_bumps"][0], amplitude=1e308)
    eps_overflow["medium"]["eps_bumps"] = [huge, huge]
    sigma_overflow = small_config("cgo")  # sigma / omega beyond the float range
    sigma_overflow["medium"]["omega"] = 1e-300
    sigma_overflow["medium"]["sigma_bumps"][0]["amplitude"] = 1e10
    product_overflow = small_config("cgo")  # finite samples whose product gamma mu overflows
    product_overflow["medium"]["eps_bumps"][0]["amplitude"] = 1e200
    product_overflow["medium"]["mu_bumps"][0]["amplitude"] = 1e200
    omega_overflow = small_config("cgo")  # omega^2 beyond the float range
    omega_overflow["medium"]["omega"] = 1e160
    huge_s = small_config("cgo")  # |zeta|^2, about 2 s^2, beyond the float range
    huge_s["geometry"]["s"] = 1e160
    huge_pair_s = small_config("uniqueness")
    huge_pair_s["geometry"]["s_list"] = [8.0, 16.0, 1e160]
    huge_qnorm_s = small_config("qnorm")
    huge_qnorm_s["geometry"]["s_list"] = [8.0, 16.0, 1e160]
    huge_lambda = small_config("decay")  # samples reach s < 2 lambda
    huge_lambda["geometry"]["lambda_list"] = [4.0, 8.0, 1e160]
    # |zeta|^2 = 2 s^2 + k^2 + |rho|^2/2 passes the float range through k^2 at an s
    # whose (2 s)^2 is finite; with the same background medium, s = 8 runs
    fast = {"omega": 1e154}  # omega^2 eps0 mu0 = 1e308 is finite
    huge_k_s = small_config("cgo", medium=fast)
    huge_k_s["geometry"]["s"] = 6.7e153
    huge_k_pair_s = small_config("uniqueness", media=[fast, fast])
    huge_k_pair_s["geometry"]["s_list"] = [8.0, 6.7e153]
    huge_k_lambda = small_config("decay", medium=fast)  # samples reach s < 2 lambda = 6.6e153
    huge_k_lambda["geometry"]["lambda_list"] = [4.0, 3.3e153]
    huge_rho = small_config("cgo")  # an index beyond the float range
    huge_rho["geometry"]["rho_index"] = [10**400, 0, 0]
    # finite indices at or past the grid's Nyquist index 8: rho aliases, and
    # |rho|^2 of the first would overflow |zeta|^2 at geometry.s 32
    far_rho = small_config("cgo")
    far_rho["geometry"].update(rho_index=[10**300, 0, 0], s=32.0)
    aliased_rho = small_config("cgo")
    aliased_rho["geometry"]["rho_index"] = [9, 0, 0]
    old_solver = small_config("cgo", solver={"tol": 1e-9, "max_iter": 80})  # a retired section
    # length**3 = 1e-321 is finite, but the cell volume (length / 64)**3 underflows to 0
    tiny_cell = {"grid": {"n": 64, "length": 1e-107}, "medium": {"omega": 1.0},
                 "geometry": {"rho_index": [0, 0, 0], "s": 8.0}}
    small_pair_s = small_config("uniqueness")
    small_pair_s["geometry"]["s_list"] = [0.5, 8.0]
    small_qnorm_s = small_config("qnorm")
    small_qnorm_s["geometry"]["s_list"] = [0.5, 8.0]
    long_box = small_config("cgo", grid={"n": 16, "length": 1e300})  # Grid.volume overflows
    wide_bump = small_config("cgo")  # radius**2 in sample_bumps overflows
    wide_bump["medium"]["eps_bumps"][0]["radius"] = 1e300
    # length**3 underflows to 0; (2 pi / length)**2 in fields.default_floor would overflow
    tiny_box = small_config("cgo", grid={"n": 16, "length": 1e-200})
    tiny_box["geometry"]["rho_index"] = [0, 0, 0]
    tiny_box["medium"].update(eps_bumps=[], mu_bumps=[], sigma_bumps=[])
    tiny_bumps = []  # radius**2 underflows to 0, where sample_bumps would divide by zero
    for radius in (1e-170, 1e-200):
        tiny_bumps.append(small_config("cgo"))
        tiny_bumps[-1]["medium"]["eps_bumps"][0]["radius"] = radius
    huge_plan = small_config("decay")  # 3 * 10**13 plan rows take petabytes
    huge_plan["sampling"]["n_samples"] = 10**13
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")  # not UTF-8
    (tmp_path / "deep.json").write_text("[" * 200000)  # deeper than the recursion limit
    cases = [
        ("run-cgo", write(tmp_path, nan_amplitude, "nan.json"), "o", r"medium.eps_bumps\[0\].amplitude"),
        # an output directory that names an existing file
        ("run-cgo", write(tmp_path, small_config(), "ok.json"), "nan.json",
         re.escape(str(tmp_path / "nan.json"))),
        ("run-cgo", str(tmp_path / "list.json"), "o", "config must be a JSON object"),
        ("run-cgo", str(tmp_path / "broken.json"), "o", "config is not valid JSON"),
        ("run-cgo", str(tmp_path / "utf16.json"), "o", "config is not valid JSON"),
        ("run-cgo", str(tmp_path / "deep.json"), "o", "config is not valid JSON"),
        ("run-uniqueness", write(tmp_path, one_medium, "one.json"), "o", "media must be a list of exactly 2"),
        ("run-uniqueness", write(tmp_path, single, "single.json"), "o", "config needs a 'media' list"),
        ("run-cgo", write(tmp_path, small_s, "s.json"), "o", "geometry.s must be >= 1"),
        ("run-cgo", write(tmp_path, eps_overflow, "eps.json"), "o", "medium.eps_bumps"),
        ("run-cgo", write(tmp_path, sigma_overflow, "sigma.json"), "o", "medium.sigma_bumps"),
        ("run-cgo", write(tmp_path, product_overflow, "product.json"), "o", "medium.mu_bumps"),
        ("run-cgo", write(tmp_path, omega_overflow, "omega.json"), "o", r"medium\.omega:"),
        ("run-cgo", write(tmp_path, small_config(output={"save_fields": 1}), "save.json"), "o",
         "output.save_fields"),
        ("run-cgo", write(tmp_path, huge_s, "huge_s.json"), "o", "geometry.s is too large"),
        ("run-uniqueness", write(tmp_path, huge_pair_s, "huge_pair_s.json"), "o",
         "geometry.s_list is too large"),
        ("estimate-qnorm", write(tmp_path, huge_qnorm_s, "huge_qnorm_s.json"), "o",
         "geometry.s_list is too large"),
        ("run-decay", write(tmp_path, huge_lambda, "huge_lambda.json"), "o",
         "geometry.lambda_list is too large"),
        ("run-cgo", write(tmp_path, old_solver, "old_solver.json"), "o", r"config\.solver is not a known field"),
        ("run-cgo", write(tmp_path, tiny_cell, "tiny_cell.json"), "o",
         "grid.length 1e-107 puts the volume or cell volume outside the float range"),
        ("run-uniqueness", write(tmp_path, small_pair_s, "small_pair_s.json"), "o",
         "geometry.s_list values must be >= 1"),
        ("estimate-qnorm", write(tmp_path, small_qnorm_s, "small_qnorm_s.json"), "o",
         "geometry.s_list values must be >= 1"),
        ("run-cgo", write(tmp_path, huge_k_s, "huge_k_s.json"), "o", "geometry.s is too large"),
        ("run-uniqueness", write(tmp_path, huge_k_pair_s, "huge_k_pair_s.json"), "o",
         "geometry.s_list is too large"),
        ("run-decay", write(tmp_path, huge_k_lambda, "huge_k_lambda.json"), "o",
         "geometry.lambda_list is too large"),
        ("run-cgo", write(tmp_path, huge_rho, "huge_rho.json"), "o",
         r"geometry.rho_index\[0\] must be a finite number"),
        ("run-cgo", write(tmp_path, far_rho, "far_rho.json"), "o",
         r"geometry.rho_index\[0\] must lie within \(-8, 8\)"),
        ("run-cgo", write(tmp_path, aliased_rho, "aliased_rho.json"), "o",
         r"geometry.rho_index\[0\] must lie within \(-8, 8\)"),
        ("run-cgo", write(tmp_path, long_box, "long_box.json"), "o", "grid.length is too large"),
        ("run-cgo", write(tmp_path, wide_bump, "wide_bump.json"), "o",
         r"medium.eps_bumps\[0\].radius is too large"),
        ("run-cgo", write(tmp_path, tiny_box, "tiny_box.json"), "o", "grid.length is too small"),
        *[("run-cgo", write(tmp_path, doc, f"tiny_bump{i}.json"), "o",
           r"medium.eps_bumps\[0\].radius is too small") for i, doc in enumerate(tiny_bumps)],
        ("run-decay", write(tmp_path, huge_plan, "huge_plan.json"), "o",
         "sampling.n_samples is too large"),
    ]
    for command, path, out, field in cases:
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert re.search(field, err)
        assert "Traceback" not in err and "Warning" not in err
    huge_k_s["geometry"]["s"] = 8.0
    assert main(["run-cgo", "--config", write(tmp_path, huge_k_s, "k_s8.json"), "--out", str(tmp_path / "k")]) == 0
    for command, doc, field in invalid_physics_configs():
        capsys.readouterr()
        assert main([command, "--config", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.search(field, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("path", [("eps0",), ("eps_bumps", 0, "amplitude")], ids=["eps0", "amplitude"])
def test_a_non_finite_solve_exits_3_at_once_with_a_strict_json_manifest(tmp_path, capsys, path):
    # at 1e300 the forcing norm overflows before the first step
    cfg = small_config("cgo")
    node = cfg["medium"]
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = 1e300
    assert main(["run-cgo", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "forcing norm is not finite" in err and "Traceback" not in err and "Warning" not in err

    def reject(constant):
        raise ValueError(f"manifest holds {constant}")

    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["diagnostics"]["iterations"] == 0


def test_a_non_finite_q_norm_exits_3_with_a_strict_json_manifest(tmp_path, capsys):
    # at eps0 = 1e300 the -1/2 norm of Q u overflows in the first trial
    cfg = small_config("qnorm")
    cfg["medium"]["eps0"] = 1e300
    assert main(["estimate-qnorm", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "norm of Q u is not finite" in err and "Traceback" not in err and "Warning" not in err

    def reject(constant):
        raise ValueError(f"manifest holds {constant}")

    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(), parse_constant=reject)
    assert "not finite" in manifest["diagnostics"]["error"]


@pytest.mark.parametrize("n", [2**12, 2**20])
def test_an_oversized_grid_exits_2_before_allocating(tmp_path, capsys, n):
    # one 8-blade field at n = 2**12 takes 8 TiB; at 2**20, numpy cannot even shape it
    cfg = reference_config("cgo")
    cfg["grid"]["n"] = n
    path = write(tmp_path, cfg)
    code, peak = traced_peak(main, ["run-cgo", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "grid.n is too large" in err and "Traceback" not in err
    assert peak < 2**20  # no array of the grid's size was allocated
    assert not (tmp_path / "o").exists()


def test_run_decay_refuses_exactly_the_plans_that_exceed_physical_memory(tmp_path, capsys, monkeypatch):
    # on 64 MiB of physical memory the largest plan within it reaches the medium,
    # where the test stops it before any study runs, and one more sample a lambda exits 2
    class GuardPassed(Exception):
        pass

    def stop(run):
        raise GuardPassed

    memory, sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**14}, os.sysconf
    monkeypatch.setattr(cli.os, "sysconf", lambda name: memory.get(name) or sysconf(name))
    monkeypatch.setattr(cli.Run, "derived", stop)
    cfg = small_config("decay")
    largest = 2**26 // (cli.DECAY_SAMPLE_BYTES * len(cfg["geometry"]["lambda_list"]))
    assert largest >= cgo.MIN_SAMPLES
    for n_samples in (largest, largest + 1):
        cfg["sampling"]["n_samples"] = n_samples
        argv = ["run-decay", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")]
        if n_samples == largest:
            with pytest.raises(GuardPassed):
                main(argv)
        else:
            capsys.readouterr()
            assert main(argv) == 2
            assert "sampling.n_samples is too large" in capsys.readouterr().err


RUN_COMMANDS = {
    "cgo": "run-cgo", "decay": "run-decay", "uniqueness": "run-uniqueness", "qnorm": "estimate-qnorm",
}
MUTANTS = ["delete", 0, -1, 0.5, 1e-200, "x", True, None, [], float("nan"), float("inf")]


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, inner nodes included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_run_configs(draw):
    """A reference run config at 8^3 with one or two nodes deleted or replaced."""
    kind = draw(st.sampled_from(sorted(RUN_COMMANDS)))
    doc = reference_config(kind)
    doc["grid"]["n"] = 8
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        mutant = draw(st.sampled_from(MUTANTS))
        if mutant == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(mutant)
    return RUN_COMMANDS[kind], doc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_run_configs())
def test_exit_code_map_is_total(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main([command, "--config", path, "--out", f"{tmp}/out"]) in {0, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# check commands
# ---------------------------------------------------------------------------

def test_check_algebra_exit_codes(capsys):
    assert main(["check-algebra"]) == 0
    assert main(["check-algebra", "--inject-sign-fault"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_algebra_json_report(capsys):
    assert main(["check-algebra", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all({"name", "error", "tolerance", "passed"} <= set(entry) for entry in doc)


def test_check_calculus_and_factorization(tmp_path, capsys):
    path = write(tmp_path, small_config("check"))
    assert main(["check-calculus", "--config", path]) == 0
    capsys.readouterr()  # drop the table output of the first command
    assert main(["check-factorization", "--config", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in doc)


@pytest.mark.parametrize("argv", [
    ["check-algebra"],
    ["check-calculus", "--config", "configs/reference_check.json"],
    ["check-factorization", "--config", "configs/reference_check.json"],
])
def test_check_commands_reject_out(tmp_path, capsys, argv):
    # the check commands write no directory, so an --out is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["check-algebra"],
    ["check-calculus", "--config", "configs/reference_check.json"],
    ["check-factorization", "--config", "configs/reference_check.json"],
    ["run-cgo", "--config", "configs/reference_cgo.json"],
    ["run-decay", "--config", "configs/reference_decay.json"],
    ["run-uniqueness", "--config", "configs/reference_uniqueness.json"],
    ["estimate-qnorm", "--config", "configs/reference_qnorm.json"],
])
def test_every_command_rejects_threads(tmp_path, capsys, argv):
    # the grid sizes a command's sample pool (Run.pool), so no command takes a thread count
    out = [] if argv[0].startswith("check-") else ["--out", str(tmp_path / "x")]  # the check commands reject --out too
    with pytest.raises(SystemExit) as exc:
        main(argv + out + ["--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_commands_reject_json(tmp_path, capsys):
    # only the check commands print a report, so only they take --json
    with pytest.raises(SystemExit) as exc:
        main(["run-cgo", "--config", "configs/reference_cgo.json", "--out", str(tmp_path / "x"),
              "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

def test_run_cgo_outputs(tmp_path, monkeypatch):
    cpus = (os.cpu_count() or 1) + 7  # not the host's count, which an affinity set can only lower
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = small_config("cgo")
    cfg["geometry"]["s"] = 8.0
    cfg["output"] = {"directory": str(tmp_path / "o"), "save_fields": True}
    assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 0
    out = tmp_path / "o"
    assert (out / "results.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run-cgo"
    assert manifest["acceptance"]["converged"] is True
    assert {"version", "seed", "config", "wall_clock_s", "diagnostics"} <= set(manifest)
    assert set(manifest["timings"]) == {"parse", "derive", "solve", "write"}
    assert manifest["environment"]["fft_workers"] == manifest["environment"]["threads"] == 1
    assert {"python", "numpy", "fft"} <= set(manifest["environment"])
    assert manifest["environment"]["fft"] == "numpy.fft"
    assert manifest["environment"]["cpu_count"] == cpus  # the usable CPUs, which size the sample pools and the split
    snapshot = fields.load_field_bin(out / "fields.bin")
    assert snapshot.grid.n == 16
    # the snapshot is R = (A + R) - A of the same solve
    run = parse_config(cfg)
    dm, geo, rho = derive(run.medium(0).build(run.grid)), run.geometry, run.geometry.rho
    geom = cgo.make_geometry(rho, *cgo.orthonormal_frame(rho, geo.frame_angle), geo.s, dm.k,
                             grid=run.grid)
    amp = cgo.amplitude_a(geom, geo.polarization)
    sol = cgo.solve_cgo(dm, geom.zeta1, amp)  # at its own tol and max_iter, as every command solves
    remainder = sol.total.values - amp.reshape(8, 1, 1, 1)
    assert np.array_equal(bits(snapshot.values), bits(remainder))
    diagnostics = manifest["diagnostics"]
    assert len(diagnostics["residuals"]) == diagnostics["iterations"]
    assert diagnostics["residuals"][-1] == diagnostics["residual"]
    assert diagnostics["forcing_norm"] == sol.forcing_norm  # with the residuals, every step norm
    assert diagnostics["defect_ratio"] == sol.clamped_defect / sol.forcing_norm > 0


@pytest.mark.parametrize("name", ["results.csv", "fields.bin", "manifest.json"])
def test_an_unwritable_output_file_exits_2_naming_it(tmp_path, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    cfg = small_config("cgo", output={"directory": str(out), "save_fields": True})
    assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and repr(str(out / name)) in err
    assert "Traceback" not in err
    if name != "manifest.json":  # the manifest is written, and records the failed write
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["error"] == err.strip().removeprefix("config error: ")
        assert manifest["acceptance"] == {"converged": False}


def test_run_cgo_reports_an_unmeasured_contraction(tmp_path, monkeypatch):
    # without bumps the medium is the background: the solve takes 0 iterations
    cfg = small_config("cgo")
    cfg["medium"].update(eps_bumps=[], mu_bumps=[], sigma_bumps=[])
    cfg["output"] = {"directory": str(tmp_path / "o")}
    assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 0
    header, row = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["contraction"] == ""
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["diagnostics"]["contraction"] is None
    # one iteration measures no step ratio either
    monkeypatch.setattr(cli, "solve_cgo", functools.partial(cgo.solve_cgo, max_iter=1))
    cfg = small_config("cgo")
    cfg["geometry"]["s"] = 8.0
    cfg["output"] = {"directory": str(tmp_path / "d")}
    assert main(["run-cgo", "--config", write(tmp_path, cfg, "d.json")]) == EXIT_DIVERGENCE
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["diagnostics"]["contraction"] is None
    assert "contraction not measured" in manifest["diagnostics"]["error"]


def test_csv_cells_keep_the_float_and_integer_spellings():
    # a results.csv cell is str(value): under numpy >= 2 it spells an
    # np.float64 as repr(float) and an np.int64 as str(int), as the cells
    # always have, and a value not measured is an empty cell
    from cgolab.cli import _fmt

    assert _fmt(None) == ""
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, -1e16, 1e-5,
             0.1, 1 / 3, 2.0**53 + 2, np.finfo(float).max, np.finfo(float).tiny]
    randoms = np.random.default_rng(27).integers(0, 2**64, 10_000, dtype=np.uint64).view(float)
    for value in edges + list(randoms):
        assert _fmt(float(value)) == _fmt(np.float64(value)) == repr(float(value))
    for value in (0, 1, -1, 7, 10**15, np.iinfo(np.int64).max, np.iinfo(np.int64).min):
        assert _fmt(int(value)) == _fmt(np.int64(value)) == str(int(value))


@pytest.mark.parametrize(
    "command, kind, code",
    [
        ("run-cgo", "cgo", EXIT_RESONANT),
        # every sample is resonant, so the study aborts
        ("run-decay", "decay", EXIT_DIVERGENCE),
        ("run-uniqueness", "uniqueness", EXIT_RESONANT),
        ("estimate-qnorm", "qnorm", EXIT_RESONANT),
    ],
)
def test_every_solving_command_honours_the_clamp_threshold(tmp_path, monkeypatch, command, kind, code):
    cfg = small_config(kind, grid={"n": 8, "length": 2.0 * np.pi})
    monkeypatch.setattr(fields, "default_clamp_threshold", lambda grid: 1e-9)
    out = tmp_path / "o"
    assert main([command, "--config", write(tmp_path, cfg), "--out", str(out)]) == code
    # the failure manifest: the error, its diagnostics, and no acceptance flag met
    manifest = json.loads((out / "manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert diagnostics["error"]
    assert manifest["acceptance"] and not any(manifest["acceptance"].values())
    if code == EXIT_RESONANT:
        assert diagnostics["fraction"] > diagnostics["threshold"] == 1e-9
    else:
        assert diagnostics["failed"] == diagnostics["samples"]
        assert diagnostics["errors"] == {"ResonantGridError": diagnostics["samples"]}
        assert len(diagnostics["failures"]) == diagnostics["samples"]
        assert {f["error"] for f in diagnostics["failures"]} == {"ResonantGridError"}
        assert all("clamp floor" in f["message"] for f in diagnostics["failures"])
    assert not (out / "results.csv").exists()


def test_run_cgo_divergence_exit_and_manifest(tmp_path):
    cfg = small_config("cgo")
    cfg["geometry"]["s"] = 1.0
    cfg["medium"]["eps_bumps"][0]["amplitude"] = 6.0
    cfg["medium"]["mu_bumps"][0]["amplitude"] = 5.0
    out = tmp_path / "div"
    assert main(["run-cgo", "--config", write(tmp_path, cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance"]["converged"] is False
    assert manifest["diagnostics"]["contraction"] > 0.95


def test_run_decay_deterministic(tmp_path):
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    assert main(["run-decay", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run-decay", "--config", path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
    manifest = json.loads((tmp_path / "a/manifest.json").read_text())
    assert manifest["acceptance"]["remainder_decreasing"] is True
    assert manifest["diagnostics"]["failures"] == []
    # each sample's clamped defect over its forcing norm, one per results.csv row
    ratios = manifest["diagnostics"]["defect_ratio"]
    assert len(ratios) == 2 * 8 == len((tmp_path / "a/results.csv").read_text().splitlines()) - 1
    assert all(isinstance(r, float) and 0.0 <= r < 1.0 for r in ratios)
    assert set(manifest["timings"]) == {"parse", "derive", "solve", "write"}
    resources = manifest["resources"]
    assert set(resources) == {"peak_rss_mb", "minor_faults", "user_cpu_s", "system_cpu_s"}
    assert all(value >= 0 for value in resources.values())


def test_a_golden_failure_names_each_moved_cell():
    old_csv = "s,pairing_re,abs_error\n8.0,0.5,0.1\n16.0,0.25,0.2\n"
    new_csv = old_csv.replace("0.25", "0.75")
    assert record.moved("run.csv", old_csv, new_csv) == ["run.csv line 3, column pairing_re: '0.25' -> '0.75'"]
    assert record.moved("run.csv", old_csv, old_csv.replace("\n", "\r\n")) == ["run.csv"]
    old_report = json.dumps([{"name": "d o d = 0", "error": 1e-14, "passed": True}])
    new_report = json.dumps([{"name": "d o d = 0", "error": 2e-14, "passed": True}])
    assert record.moved("check-calculus.json", old_report, new_report) == [
        "check-calculus.json check 'd o d = 0', field error: 1e-14 -> 2e-14"]
    assert record.moved("check-calculus.json", old_report, old_report + "\n") == ["check-calculus.json"]
    old_hashes = json.dumps({"cgo": "a", "check": "b"})
    assert record.moved(record.HASHES, old_hashes, json.dumps({"cgo": "a", "check": "c"})) == [
        "fields.bin.sha256.json fields.bin of reference_check: 'b' -> 'c'"]
    assert record.relative_change("0.25", "0.75") == "+2.000e+00"
    assert record.relative_change(True, False) == record.relative_change("x", "y") == ""


def test_the_recorder_writes_every_reference_output():
    # tests/reference_outputs/record.py re-records the directory; tier-1 runs only this cheap check of its list
    on_disk = {path.name for path in REFERENCE_OUTPUTS.iterdir() if path.is_file() and path.suffix != ".py"}
    assert sorted(record.FILES) == sorted(on_disk)


def test_reference_outputs_keep_their_bytes(tmp_path):
    # tests/reference_outputs holds, as written with the numpy version recorded beside them: the
    # results.csv of each run command on its reference config and of run-cgo on reference_check,
    # the SHA-256 of run-cgo's fields.bin on both, and the --json report of each check command;
    # record.reference_outputs runs those commands, as the recorder does
    recorded = (REFERENCE_OUTPUTS / "numpy_version").read_text().strip()
    if np.__version__ != recorded:
        pytest.skip(f"the reference outputs were written with numpy {recorded}, this is numpy {np.__version__}")
    texts = record.reference_outputs(tmp_path)
    assert sorted([*texts, "numpy_version"]) == sorted(record.FILES)
    moved = [line for name, text in texts.items()
             for line in record.moved(name, (REFERENCE_OUTPUTS / name).read_bytes().decode(), text)]
    assert moved == [], "\n".join(moved)


def test_run_decay_records_each_failed_sample(tmp_path, monkeypatch):
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    assert main(["run-decay", "--config", path, "--out", str(tmp_path / "ok")]) == 0
    # the plan's second sample fails, picked by its s, since the pool runs samples in no fixed order
    second = cgo.sample_plan(cfg["geometry"]["lambda_list"], 8, 77)[1][1]
    make_geometry = cgo.make_geometry

    def second_sample_diverges(rho, eta1, eta2, s, *args, **kwargs):
        if s == second:
            raise DivergenceError("forced divergence", diagnostics={"contraction": 1.5})
        return make_geometry(rho, eta1, eta2, s, *args, **kwargs)

    monkeypatch.setattr(cgo, "make_geometry", second_sample_diverges)
    assert main(["run-decay", "--config", path, "--out", str(tmp_path / "one")]) == 0
    manifest = json.loads((tmp_path / "one/manifest.json").read_text())
    rows = (tmp_path / "one/results.csv").read_text().splitlines()
    lam, s, angle = (float(v) for v in rows[2].split(",")[:3])
    assert manifest["diagnostics"]["failures"] == [
        {"lambda": lam, "s": s, "angle": angle, "error": "DivergenceError",
         "message": "forced divergence"},
    ]
    assert rows[2].split(",")[3:] == ["0", "nan", "nan", "nan", "nan"]
    # every other row is the one of the run without a failure
    ok_rows = (tmp_path / "ok/results.csv").read_text().splitlines()
    assert rows[:2] + rows[3:] == ok_rows[:2] + ok_rows[3:]
    # the failed sample's defect ratio is null, so the manifest stays strict JSON
    ok_ratios = json.loads((tmp_path / "ok/manifest.json").read_text())["diagnostics"]["defect_ratio"]
    assert manifest["diagnostics"]["defect_ratio"] == ok_ratios[:1] + [None] + ok_ratios[2:]
    json.loads((tmp_path / "one/manifest.json").read_text(), parse_constant=pytest.fail)


def test_run_decay_exits_3_when_a_lambda_keeps_no_sample(tmp_path, monkeypatch):
    # 8 of 40 samples fail, within the failure fraction, but all at lambda = 1: the ones with s in [1, 2)
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [1.0, 2.0, 4.0, 8.0, 16.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 3}
    make_geometry = cgo.make_geometry

    def lambda_1_diverges(rho, eta1, eta2, s, *args, **kwargs):
        if s < 2.0:
            raise DivergenceError("forced divergence")
        return make_geometry(rho, eta1, eta2, s, *args, **kwargs)

    monkeypatch.setattr(cgo, "make_geometry", lambda_1_diverges)
    out = tmp_path / "o"
    assert main(["run-decay", "--config", write(tmp_path, cfg), "--out", str(out)]) == EXIT_DIVERGENCE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["lambda"] == 1.0
    assert "0 of 8 samples at lambda = 1.0" in manifest["diagnostics"]["error"]
    assert manifest["acceptance"] == {"remainder_decreasing": False}
    assert not (out / "results.csv").exists()


def test_run_cgo_writes_fields_bin_holding_one_field(tmp_path, monkeypatch):
    # R = (A + R) - A is formed in the total that the write stage reads, and written from its own buffer
    solve = cli.solve_cgo

    def solve_then_trace(*args, **kwargs):  # traced from the end of the solve to the end of the command
        sol = solve(*args, **kwargs)
        tracemalloc.start()
        return sol

    monkeypatch.setattr(cli, "solve_cgo", solve_then_trace)
    cfg = reference_config("cgo")  # at 32^3, where the ufunc buffer of the subtraction is small beside a field
    cfg["output"] = {"directory": str(tmp_path / "o"), "save_fields": True}
    try:
        assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 32**3 * np.dtype(complex).itemsize) < 1.1


@pytest.mark.parametrize("kind", sorted(RUN_COMMANDS))
def test_thread_count_changes_no_result(tmp_path, kind, monkeypatch):
    # 1 or 2 usable CPUs, on any host: the pooled commands' 16^3 solves do not split, so their pool takes
    # every CPU; run-cgo, which has no pool, splits its 16^3 solve into 8 slabs of 2 rows over them instead
    if kind == "cgo":
        monkeypatch.setattr(fields, "SLAB_POINTS", 2**9)
    cfg = small_config(kind)
    if kind == "decay":
        cfg["geometry"]["lambda_list"] = [2.0, 4.0]
        cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    codes, manifests = [], []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        for module in (cli, fields):
            monkeypatch.setattr(module, "_usable_cpus", lambda: cpus)
        codes.append(main([RUN_COMMANDS[kind], "--config", path, "--out", str(out)]))
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert codes[0] == codes[1]
    assert (tmp_path / "1/results.csv").read_bytes() == (tmp_path / "2/results.csv").read_bytes()
    for key in ("acceptance", "diagnostics"):  # as JSON text, so that NaN equals NaN
        assert json.dumps(manifests[0][key]) == json.dumps(manifests[1][key]), key
    counts = {name: [m["environment"][name] for m in manifests] for name in ("threads", "fft_workers")}
    assert counts == ({"threads": [1, 1], "fft_workers": [1, 2]} if kind == "cgo"
                      else {"threads": [1, 2], "fft_workers": [1, 1]})


def test_a_split_run_cgo_reports_its_threads_and_writes_the_same_bytes(tmp_path, monkeypatch):
    # 8 slabs of 2 rows split the 16^3 solve over the usable CPUs, which the manifest's fft_workers names
    cfg = small_config("cgo")
    cfg["output"] = {"directory": str(tmp_path / "whole"), "save_fields": True}
    path = write(tmp_path, cfg)
    assert main(["run-cgo", "--config", path]) == 0
    monkeypatch.setattr(fields, "SLAB_POINTS", 2**9)
    parallel_map, workers = cgo._parallel_map, set()  # the thread counts the solve's maps ran on
    monkeypatch.setattr(cgo, "_parallel_map", lambda fn, items, n: workers.add(n) or parallel_map(fn, items, n))
    for cpus in (1, 2):
        monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
        out, workers = tmp_path / str(cpus), set()
        assert main(["run-cgo", "--config", path, "--out", str(out)]) == 0
        assert workers == {json.loads((out / "manifest.json").read_text())["environment"]["fft_workers"]} == {cpus}
        for name in ("results.csv", "fields.bin"):
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


def test_a_run_decay_whose_solves_split_runs_no_pool_and_writes_the_same_bytes(tmp_path, monkeypatch):
    # 8 slabs of 2 rows split each 16^3 solve over the usable CPUs, so the samples run one at a time
    for module in (cli, fields):
        monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    codes, environments, csvs = [], [], []
    for slab_points in (fields.SLAB_POINTS, 2**9):
        monkeypatch.setattr(fields, "SLAB_POINTS", slab_points)
        out = tmp_path / str(slab_points)
        codes.append(main(["run-decay", "--config", path, "--out", str(out)]))
        environments.append(json.loads((out / "manifest.json").read_text())["environment"])
        csvs.append((out / "results.csv").read_bytes())
    assert codes[0] == codes[1] and csvs[0] == csvs[1]
    assert [(env["threads"], env["fft_workers"]) for env in environments] == [(2, 1), (1, 2)]


def test_seed_out_of_range_exits_2_naming_the_flag(tmp_path, capsys):
    path = write(tmp_path, small_config("decay"))
    for command in (["check-algebra"], ["run-decay", "--config", path, "--out", str(tmp_path / "o")]):
        for value in ("-1", "x"):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--seed", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --seed:" in err and value in err
            assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_uniqueness_identical_media(tmp_path):
    cfg = small_config("uniqueness")
    cfg["media"] = [presets.medium_spec("reference"), presets.medium_spec("reference")]
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    out = tmp_path / "uq"
    assert main(["run-uniqueness", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance"]["pairing_at_floor"] is True
    clamps = manifest["diagnostics"]["pairing_clamps"]
    assert [c["s"] for c in clamps] == [4.0, 8.0]
    for c in clamps:  # the first solve's report, then the paired solve's
        assert len(c["clamped"]) == 2 and c["fraction"] == [m / 16**3 for m in c["clamped"]]
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "s,pairing_re,pairing_im,target_re,target_im,abs_error"
    assert len(rows) == 3


@pytest.mark.parametrize("pol", ["E", "H"])
def test_run_uniqueness_reports_each_solve_s_clamped_defect_ratio(tmp_path, pol):
    cfg = small_config("uniqueness")
    cfg["geometry"].update(polarization=pol, s_list=[4.0, 8.0])
    out = tmp_path / "uq"
    assert main(["run-uniqueness", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    clamps = json.loads((out / "manifest.json").read_text())["diagnostics"]["pairing_clamps"]
    run = parse_config(cfg)
    geo, mp = run.geometry, uq.make_pair(*(run.medium(i).build(run.grid) for i in (0, 1)))
    for c in clamps:
        g = cgo.make_geometry(geo.rho, *cgo.orthonormal_frame(geo.rho, geo.frame_angle), c["s"], mp.k, grid=run.grid)
        blk = slice(0, 4) if pol == "E" else slice(4, 8)  # the paired solve runs on A's block alone
        b_amp = np.zeros(8, dtype=complex)
        b_amp[blk] = cgo.amplitude_b(g, geo.polarization)[blk]
        first = cgo.solve_cgo(mp.dm1, g.zeta1, cgo.amplitude_a(g, geo.polarization))
        paired = cgo.solve_cgo(mp.dm2, g.zeta2, b_amp)
        assert first.grades == paired.grades == ((0, 1) if pol == "E" else (2, 3))
        assert c["defect_ratio"] == [sol.clamped_defect / sol.forcing_norm for sol in (first, paired)]
        assert all(ratio > 0 for ratio in c["defect_ratio"])


def test_estimate_qnorm_trend_failure_exit(tmp_path):
    # background medium: estimates identically zero, not strictly decreasing
    cfg = small_config("qnorm")
    cfg["medium"] = presets.medium_spec("background")
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    out = tmp_path / "qn"
    assert main(["estimate-qnorm", "--config", write(tmp_path, cfg), "--out", str(out)]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance"]["estimate_decreasing"] is False


@pytest.mark.parametrize("kind", sorted(RUN_COMMANDS))
def test_a_missing_geometry_or_medium_exits_2_naming_what_is_missing(tmp_path, capsys, kind):
    command = RUN_COMMANDS[kind]
    needs = {"cgo": "s", "decay": "lambda_list", "uniqueness": "s_list", "qnorm": "s_list"}[kind]
    no_section, no_field, no_medium = (small_config(kind) for _ in range(3))
    del no_section["geometry"], no_field["geometry"][needs]
    for key in ("medium", "media"):
        no_medium.pop(key, None)
    missing = f"geometry.{needs} is required for {command}"
    for cfg, message in ((no_section, missing), (no_field, missing),
                         (no_medium, "config.medium (or config.media) is required")):
        assert main([command, "--config", write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{message}\n" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_config_flag():
    assert main(["run-decay"]) == 2
