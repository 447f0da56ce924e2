import copy
import dataclasses
import inspect
import json
import re
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgolab import cgo, fields, presets
from cgolab.cli import EXIT_DIVERGENCE, EXIT_RESONANT, main
from cgolab.errors import ConfigError, DivergenceError
from cgolab.runconfig import SolverConfig, parse_config
from conftest import reference_config


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
    ]


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config({"grid": {"n": "x", "length": 1.0}, "medium": {"omega": 1.0}})
    with pytest.raises(ConfigError, match="grid.n must be a power of two"):
        parse_config({"grid": {"n": 12, "length": 1.0}, "medium": {"omega": 1.0}})
    with pytest.raises(ConfigError, match="medium.omega"):
        parse_config({"grid": {"n": 16, "length": 1.0}, "medium": {"omega": -1.0}})
    with pytest.raises(ConfigError, match="solver.tol"):
        parse_config(
            {"grid": {"n": 16, "length": 1.0}, "medium": {"omega": 1.0}, "solver": {"tol": 0.0}}
        )
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
    with pytest.raises(ConfigError, match="solver.tol must be a finite"):  # beyond the float range
        parse_config({"grid": {"n": 16, "length": 1.0}, "medium": {"omega": 1.0}, "solver": {"tol": 10**400}})
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
        ("cgo", ("geometry",), "geometry.S"), ("cgo", ("solver",), "solver.tolerance"),
        ("cgo", ("solver",), "solver.max_iters"), ("cgo", ("solver",), "solver.clamp_floor"),
        ("cgo", ("solver",), "solver.clamp_threshold"),
        ("cgo", ("sampling",), "sampling.samples"), ("cgo", ("output",), "output.dir"),
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


def test_library_and_config_solver_defaults_agree():
    doc = reference_config("cgo")
    del doc["solver"]
    params = inspect.signature(cgo.solve_cgo).parameters.values()
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
    assert asdict(parse_config(doc).solver) == defaults
    # the solver keys of a config are the keyword parameters of solve_cgo, and no others
    assert [f.name for f in dataclasses.fields(SolverConfig)] == list(defaults)
    doc["solver"] = dict(defaults)
    assert asdict(parse_config(doc).solver) == defaults


def test_readme_config_sketch_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("### Config sketch", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(sketch))
    assert cfg.geometry.s == 32.0 and len(cfg.media) == 1


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = small_config()
    cfg["solver"] = {"tol": -1.0}
    assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 2
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
    clamp_floor = small_config("cgo", solver={"tol": 1e-9, "clamp_floor": 1e-3})
    clamp_threshold = small_config("cgo", solver={"tol": 1e-9, "clamp_threshold": 1e-9})
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
        ("run-cgo", write(tmp_path, small_config(solver={"tol": float("inf")}), "inf.json"), "o", "solver.tol"),
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
        ("run-cgo", write(tmp_path, clamp_floor, "floor.json"), "o",
         "solver.clamp_floor is not a known field"),
        ("run-cgo", write(tmp_path, clamp_threshold, "threshold.json"), "o",
         "solver.clamp_threshold is not a known field"),
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
    tracemalloc.start()
    try:
        code = main(["run-cgo", "--config", path, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "grid.n is too large" in err and "Traceback" not in err
    assert peak < 2**20  # no array of the grid's size was allocated
    assert not (tmp_path / "o").exists()


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

def test_run_cgo_outputs(tmp_path):
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
    assert {"python", "numpy", "fft", "cpu_count"} <= set(manifest["environment"])
    assert manifest["environment"]["fft"] == "numpy.fft"
    snapshot = fields.load_field_bin(out / "fields.bin")
    assert snapshot.grid.n == 16
    diagnostics = manifest["diagnostics"]
    assert len(diagnostics["deltas"]) == len(diagnostics["residuals"]) == diagnostics["iterations"]
    assert diagnostics["residuals"][-1] == diagnostics["residual"]


def test_run_cgo_reports_an_unmeasured_contraction(tmp_path):
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
    cfg = small_config("cgo", solver={"tol": 1e-9, "max_iter": 1})
    cfg["geometry"]["s"] = 8.0
    cfg["output"] = {"directory": str(tmp_path / "d")}
    assert main(["run-cgo", "--config", write(tmp_path, cfg, "d.json")]) == EXIT_DIVERGENCE
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["diagnostics"]["contraction"] is None
    assert "contraction not measured" in manifest["diagnostics"]["error"]


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
    assert set(manifest["timings"]) == {"parse", "derive", "solve", "write"}
    resources = manifest["resources"]
    assert set(resources) == {"peak_rss_mb", "minor_faults", "user_cpu_s", "system_cpu_s"}
    assert all(value >= 0 for value in resources.values())


def test_run_decay_records_each_failed_sample(tmp_path, monkeypatch):
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    assert main(["run-decay", "--config", path, "--out", str(tmp_path / "ok")]) == 0
    solve = cgo.solve_cgo
    calls = []

    def second_solve_diverges(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise DivergenceError("forced divergence", diagnostics={"contraction": 1.5})
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgo, "solve_cgo", second_solve_diverges)
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


def test_run_decay_exits_3_when_a_lambda_keeps_no_sample(tmp_path, monkeypatch):
    # 8 of 40 samples fail, within the failure fraction, but all at lambda = 1
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [1.0, 2.0, 4.0, 8.0, 16.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 3}
    solve = cgo.solve_cgo
    calls = []

    def first_calls_diverge(*args, **kwargs):
        calls.append(None)
        if len(calls) <= 8:
            raise DivergenceError("forced divergence")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgo, "solve_cgo", first_calls_diverge)
    out = tmp_path / "o"
    assert main(["run-decay", "--config", write(tmp_path, cfg), "--out", str(out)]) == EXIT_DIVERGENCE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["lambda"] == 1.0
    assert "0 of 8 samples at lambda = 1.0" in manifest["diagnostics"]["error"]
    assert manifest["acceptance"] == {"remainder_decreasing": False}
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("kind", sorted(RUN_COMMANDS))
def test_thread_count_changes_no_result(tmp_path, kind):
    cfg = small_config(kind)
    if kind == "decay":
        cfg["geometry"]["lambda_list"] = [2.0, 4.0]
        cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    codes, manifests = [], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        codes.append(main([RUN_COMMANDS[kind], "--config", path, "--out", str(out), "--threads", threads]))
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert codes[0] == codes[1]
    assert (tmp_path / "1/results.csv").read_bytes() == (tmp_path / "2/results.csv").read_bytes()
    for key in ("acceptance", "diagnostics"):  # as JSON text, so that NaN equals NaN
        assert json.dumps(manifests[0][key]) == json.dumps(manifests[1][key]), key
    assert [m["environment"]["threads"] for m in manifests] == [1, 2]
    assert all(m["environment"]["fft_workers"] == 1 for m in manifests)


def test_seed_and_threads_out_of_range_exit_2_naming_the_flag(tmp_path, capsys):
    path = write(tmp_path, small_config("decay"))
    for command in (["check-algebra"], ["run-decay", "--config", path, "--out", str(tmp_path / "o")]):
        for flag, value in (("--seed", "-1"), ("--threads", "0"), ("--threads", "-2"), ("--threads", "x")):
            with pytest.raises(SystemExit) as exc:
                main(command + [flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}:" in err and value in err
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


def test_estimate_qnorm_trend_failure_exit(tmp_path):
    # background medium: estimates identically zero, not strictly decreasing
    cfg = small_config("qnorm")
    cfg["medium"] = presets.medium_spec("background")
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    out = tmp_path / "qn"
    assert main(["estimate-qnorm", "--config", write(tmp_path, cfg), "--out", str(out)]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance"]["estimate_decreasing"] is False


def test_missing_config_flag():
    assert main(["run-decay"]) == 2
