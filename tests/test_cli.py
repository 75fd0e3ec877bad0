import json

import pytest

from incgrad.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "dataset": {"synthetic": {"kind": "ridge", "n": 15, "d": 4,
                                  "density": 1.0, "noise": 0.2, "seed": 2}},
        "loss": "squared",
        "l2": 0.1,
        "methods": ["saga"],
        "epochs": 5,
        "seeds": [0],
        "trace_every": 1,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_run_subcommand_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,seed,grad_evals_per_n,suboptimality,dist_sq"
    assert len(lines) == 7  # header + epoch-0 row + 5 epochs


def test_run_subcommand_overrides(config_path, tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["run", "--config", str(config_path), "--out", str(out),
                 "--methods", "saga,sag", "--epochs", "3", "--seeds", "0,1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 4


def test_run_bad_config_exits_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dataset": {}, "methods": ["saga"]}))
    assert main(["run", "--config", str(p)]) == 1


def test_run_incompatible_method_exits_one(config_path, tmp_path):
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    cfg["l1"] = 0.01
    cfg["methods"] = ["finito"]
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1


def test_run_missing_file_exits_one(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 1


def _assert_config_error(argv, capsys, mentions=""):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert mentions in err[0]


def test_run_malformed_json_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    _assert_config_error(["run", "--config", str(p)], capsys)


def test_run_synthetic_without_n_exits_one(config_path, tmp_path, capsys):
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    del cfg["dataset"]["synthetic"]["n"]
    p.write_text(json.dumps(cfg))
    _assert_config_error(["run", "--config", str(p)], capsys)


@pytest.mark.parametrize("key", ["epochs", "n"])
def test_run_non_numeric_value_exits_one(config_path, tmp_path, capsys, key):
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    (cfg["dataset"]["synthetic"] if key == "n" else cfg)[key] = "ten"
    p.write_text(json.dumps(cfg))
    _assert_config_error(["run", "--config", str(p)], capsys)


@pytest.mark.parametrize("key,value", [
    ("methods", [3]),
    ("methods", "saga"),
    ("dataset", "synthetic"),
    ("out", 5),
])
def test_run_wrong_field_type_exits_one(config_path, tmp_path, capsys, key,
                                        value):
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    cfg[key] = value
    p.write_text(json.dumps(cfg))
    _assert_config_error(["run", "--config", str(p)], capsys,
                         mentions=f"'{key}'")


def test_run_non_integer_seeds_exits_one(config_path, capsys):
    _assert_config_error(["run", "--config", str(config_path),
                          "--seeds", "x"], capsys)


def test_optimum_subcommand(config_path, capsys):
    code = main(["optimum", "--config", str(config_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("F_star = ")
    assert len(out) == 1 + 4  # one line per coordinate


def test_certify_quick(capsys):
    code = main(["certify", "--instances", "20", "--lemma-instances", "20",
                 "--traj-seeds", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lyapunov_contraction_strongly_convex" in out
    assert "FAIL" not in out


def test_divergent_run_exits_two(config_path, tmp_path):
    p = tmp_path / "div.json"
    cfg = json.loads(config_path.read_text())
    cfg["methods"] = [{"name": "saga", "step_size": 1e9}]
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 2
