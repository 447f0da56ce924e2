import json
import re

import numpy as np
import pytest

from cgolab import fields, presets
from cgolab.cli import main
from cgolab.errors import ConfigError
from cgolab.runconfig import parse_config


def small_config(kind="cgo", **overrides):
    cfg = presets.reference_run_config(kind)
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
    return [
        ("run-cgo", negative, "medium.eps_bumps"),
        ("run-cgo", wide, "medium.eps_bumps"),
        ("run-uniqueness", wide_second, r"media\[1\].eps_bumps"),
        ("run-cgo", h_without_rho, "geometry.rho_index"),
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
    with pytest.raises(ConfigError, match=r"lambda_list values must be >= 1"):
        parse_config(
            {
                "grid": {"n": 16, "length": 1.0},
                "medium": {"omega": 1.0},
                "geometry": {"rho_index": [1, 0, 0], "lambda_list": [0.5, 2.0]},
            }
        )
    for _, doc, field in invalid_physics_configs():
        with pytest.raises(ConfigError, match=field):
            cfg = parse_config(doc)
            for i in range(len(cfg.media)):
                cfg.medium(i).build(cfg.grid.build())


def test_reference_configs_parse_and_match_presets():
    for kind in ("cgo", "decay", "uniqueness", "qnorm", "check"):
        doc = presets.reference_run_config(kind)
        cfg = parse_config(doc)
        assert cfg.grid.n == presets.REFERENCE_N
    shipped = json.load(open("configs/reference_uniqueness.json"))
    assert shipped == presets.reference_run_config("uniqueness")


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = small_config()
    cfg["solver"] = {"tol": -1.0}
    assert main(["run-cgo", "--config", write(tmp_path, cfg)]) == 2
    assert main(["run-cgo", "--config", str(tmp_path / "missing.json")]) == 2
    for command, doc, field in invalid_physics_configs():
        capsys.readouterr()
        assert main([command, "--config", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.search(field, err)
        assert "Traceback" not in err


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
    snapshot = fields.load_field_bin(out / "fields.bin")
    assert snapshot.grid.n == 16


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


def test_threads_go_to_the_pool_or_to_the_fft(tmp_path, monkeypatch):
    monkeypatch.setattr(fields, "_FFT_WORKERS", fields._FFT_WORKERS)  # restored afterwards
    cfg = small_config("decay")
    cfg["geometry"]["lambda_list"] = [2.0, 4.0]
    cfg["sampling"] = {"n_samples": 8, "seed": 77}
    path = write(tmp_path, cfg)
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        assert main(["run-decay", "--config", path, "--out", out, "--threads", threads]) == 0
        assert fields._FFT_WORKERS == 1
    assert (tmp_path / "1/results.csv").read_bytes() == (tmp_path / "2/results.csv").read_bytes()
    assert main(["check-algebra", "--threads", "2"]) == 0
    assert fields._FFT_WORKERS == 2


def test_run_uniqueness_identical_media(tmp_path):
    cfg = small_config("uniqueness")
    cfg["media"] = [presets.medium_spec("reference"), presets.medium_spec("reference")]
    cfg["geometry"]["s_list"] = [4.0, 8.0]
    out = tmp_path / "uq"
    assert main(["run-uniqueness", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance"]["pairing_at_floor"] is True
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
