import json
import math
import os
import subprocess
import sys

import pytest

import incgrad
from incgrad import InconsistentReferenceError, analysis, harness
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
    ("loss", ["squared"]),
    ("methods", [{"name": ["saga"]}]),
    ("dataset", {"path": 5}),
    ("dataset", {"path": ["x"]}),
    ("seeds", [-1]),
    ("dataset", {"synthetic": 3}),
    ("dataset", {"synthetic": {"kind": 3, "n": 20, "d": 5}}),
    ("methods", [{"step_size": 0.5}]),
])
def test_run_wrong_field_type_exits_one(config_path, tmp_path, capsys, key,
                                        value):
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    cfg[key] = value
    p.write_text(json.dumps(cfg))
    _assert_config_error(["run", "--config", str(p)], capsys,
                         mentions=f"'{key}'")


@pytest.mark.parametrize("key,value", [
    ("l1", math.nan), ("l2", math.inf), ("noise", math.nan),
    ("epochs", math.inf), ("n", math.inf), ("step_size", math.inf),
    ("step_size", math.nan), ("density", math.nan), ("seeds", -math.inf),
    ("trace_every", math.nan),
])
def test_run_non_finite_value_exits_one(config_path, tmp_path, capsys, key,
                                        value):
    # JSON admits NaN and Infinity; each must end as one config error
    # naming the key, not a traceback or a numerical failure
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    if key in ("noise", "n", "density"):
        cfg["dataset"]["synthetic"][key] = value
    elif key == "step_size":
        cfg["methods"] = [{"name": "saga", "step_size": value}]
    else:
        cfg[key] = [value] if key == "seeds" else value
    p.write_text(json.dumps(cfg))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"'{key}'")


def test_null_where_a_key_admits_it_runs_as_if_omitted(config_path, tmp_path):
    data = tmp_path / "data.svm"
    data.write_text("1 1:0.5 2:1.0\n-1 1:1.0 3:0.25\n")
    base = json.loads(config_path.read_text())
    nulls = dict(base, out=None, methods=[{"name": "saga", "step_size": None}])
    files = [dict(base, dataset={"path": str(data)}),
             dict(base, dataset={"path": str(data), "n_features": None})]
    outputs = []
    for cfg in (base, nulls, *files):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]


@pytest.mark.parametrize("where,key", [
    *[("config", k) for k in ("dataset", "loss", "l2", "l1", "methods",
                              "epochs", "seeds", "trace_every")],
    ("method", "name"), ("dataset", "synthetic"),
    *[("synthetic", k) for k in ("kind", "n", "d", "density", "noise",
                                 "seed", "normalize")],
    ("file", "path"), ("file", "normalize")])
def test_null_anywhere_else_exits_one(config_path, tmp_path, capsys, where,
                                      key):
    cfg = json.loads(config_path.read_text())
    level = {"config": cfg, "method": {"name": "saga"},
             "dataset": cfg["dataset"],
             "synthetic": cfg["dataset"]["synthetic"],
             "file": {"path": "data.svm"}}[where]
    if where == "method":
        cfg["methods"] = [level]
    elif where == "file":
        (tmp_path / "data.svm").write_text("1 1:0.5 2:1.0\n")
        level["path"] = str(tmp_path / "data.svm")
        cfg["dataset"] = level
    level[key] = None
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    _assert_config_error(["run", "--config", str(p)], capsys,
                         mentions=f"'{key}'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "optimum"])
def test_labels_past_the_largest_double_exit_one(config_path, tmp_path,
                                                 capsys, command):
    # a finite noise whose labels overflow printed a numpy RuntimeWarning
    # and ended in a raw "x must be finite" traceback
    cfg = json.loads(config_path.read_text())
    cfg["dataset"]["synthetic"]["noise"] = 1e308
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    _assert_config_error([command, "--config", str(p)], capsys,
                         mentions="labels and feature values must be finite")


def test_run_non_integer_seeds_exits_one(config_path, capsys):
    _assert_config_error(["run", "--config", str(config_path),
                          "--seeds", "x"], capsys)
    _assert_config_error(["run", "--config", str(config_path),
                          "--seeds=-1"], capsys, mentions="'seeds'")


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


def test_certify_at_the_newton_step_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "NEWTON_MAX_STEPS", 0)
    assert main(["certify", "--instances", "5", "--lemma-instances", "5",
                 "--skip-trajectory"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "numerical failure: Newton's method did not converge within 0 ")


def test_certify_property_past_its_bound_fails_and_exits_two(monkeypatch,
                                                            capsys):
    # the strongly convex contraction worst is above 1e-10, the
    # strong_lb gap below -1e-12; a gap of +1.0 is far inside its bound
    monkeypatch.setattr(analysis, "_check_contraction",
                        lambda rng, instances, preset:
                        2e-10 if preset == "sc" else -1.0)
    monkeypatch.setattr(analysis, "_check_lemmas", lambda rng, instances: {
        "strong_lb": -2e-12, "ip_bound": 1.0, "grad_diff": 0.0,
        "wchange": -1e-12})
    assert main(["certify", "--instances", "5", "--lemma-instances", "5",
                 "--skip-trajectory"]) == 2
    status = {line.split()[1]: line.split()[0]
              for line in capsys.readouterr().out.splitlines()}
    assert status == {
        "lyapunov_contraction_strongly_convex": "FAIL",
        "lyapunov_contraction_adaptive": "PASS",
        "lemma_strong_lb": "FAIL", "lemma_ip_bound": "PASS",
        "lemma_grad_diff": "PASS", "lemma_wchange": "PASS",
        "estimator_algebra": "PASS", "moreau_decomposition": "PASS",
        "direction_unbiasedness": "PASS", "sag_bias_structure": "PASS"}


def _cli(argv, stdout, unbuffered=True):
    """``python -m incgrad.cli argv`` from this checkout, as a Popen."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(incgrad.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "incgrad.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=env)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_certify_into_a_closed_pipe_exits_one_silently(unbuffered):
    # buffered, the report reaches the pipe only when stdout is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli(["certify", "--instances", "5", "--lemma-instances", "5",
                 "--skip-trajectory"], write_end, unbuffered)
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, "")


def test_optimum_reader_closing_after_the_first_line(tmp_path):
    # d = 20000 coordinates are far more than a pipe holds, so the
    # program still writes after the reader has gone
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({
        "dataset": {"synthetic": {"kind": "ridge", "n": 20, "d": 20000,
                                  "seed": 1}},
        "loss": "squared", "l2": 0.1, "methods": ["saga"]}))
    with _cli(["optimum", "--config", str(cfg)], subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith("F_star = ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, "")


@pytest.mark.parametrize("argv,mentions", [
    (["--traj-seeds", "0"], "traj_seeds"),
    (["--traj-seeds", "-2"], "traj_seeds"),
    (["--instances", "0", "--lemma-instances", "0"], "instances"),
    (["--lemma-instances", "0"], "lemma_instances"),
])
def test_certify_empty_battery_exits_one(capsys, argv, mentions):
    _assert_config_error(["certify", *argv], capsys, mentions=mentions)


@pytest.mark.parametrize("extra", [[], ["--skip-trajectory"]])
def test_certify_negative_seed_exits_one(capsys, extra):
    _assert_config_error(["certify", "--seed", "-1", *extra], capsys,
                         mentions="'seed' must be nonnegative, got -1")


@pytest.mark.parametrize("argv,mentions", [
    (["run"], "--config"),
    (["certify", "--seed", "abc"], "--seed"),
    ([], "command"),
])
def test_usage_error_is_a_config_error(capsys, argv, mentions):
    # exit 2 is kept for numerical failure
    _assert_config_error(argv, capsys, mentions=mentions)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_certify_skipped_trajectory_needs_no_seeds(capsys):
    code = main(["certify", "--instances", "5", "--lemma-instances", "5",
                 "--traj-seeds", "0", "--skip-trajectory"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "bound_dominance_trajectory" not in out


def test_divergent_run_exits_two(config_path, tmp_path):
    p = tmp_path / "div.json"
    cfg = json.loads(config_path.read_text())
    cfg["methods"] = [{"name": "saga", "step_size": 1e9}]
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 2


@pytest.mark.parametrize("step_size", [1e5, 1e8])
def test_divergent_lazy_run_exits_two(tmp_path, capsys, step_size):
    p = tmp_path / "div.json"
    p.write_text(json.dumps({
        "dataset": {"synthetic": {"kind": "ridge", "n": 200, "d": 2000,
                                  "density": 0.005, "seed": 1}},
        "loss": "squared", "l2": 1e-10, "epochs": 5,
        "methods": [{"name": "saga_lazy", "step_size": step_size}]}))
    assert main(["run", "--config", str(p),
                 "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: solver diverged at step 200 "
                   "(non-finite or oversized iterate)"]


def test_lazy_run_overflowing_within_a_pass_ends_in_one_line(
        tmp_path, capsys):
    # at this step the margin or step coefficient overflows before the
    # pass ends; the engine stops at that step, before numpy can warn
    # (warnings fail the suite)
    p = tmp_path / "div.json"
    p.write_text(json.dumps({
        "dataset": {"synthetic": {"kind": "ridge", "n": 200, "d": 2000,
                                  "density": 0.005, "seed": 1}},
        "loss": "squared", "l2": 1e-10, "epochs": 5,
        "methods": [{"name": "saga_lazy", "step_size": 9.9e9}]}))
    assert main(["run", "--config", str(p),
                 "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: solver diverged at step 123 "
                   "(non-finite step)"]


def test_inconsistent_reference_exits_two(config_path, tmp_path, capsys,
                                          monkeypatch):
    optimum = harness.compute_reference_optimum

    def raised_optimum(obj):
        # an F* above the true optimum, which the runs then go below
        x_star, f_star = optimum(obj)
        return x_star, f_star + 1e-3

    monkeypatch.setattr(harness, "compute_reference_optimum", raised_optimum)
    cfg = harness.ExperimentConfig.from_json(config_path)
    with pytest.raises(InconsistentReferenceError) as info:
        harness.run_experiment(cfg)
    assert info.value.subopt < harness.SUBOPT_NEG_TOL
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "reference optimum is inconsistent" in err[0]


@pytest.mark.parametrize("key,value", [
    ("normalize", "false"), ("normalize", 0), ("epochs", 2.9),
    ("epochs", True), ("trace_every", 1.5), ("seeds", 0.5), ("n", 20.5),
    ("d", "4"), ("seed", 2.5), ("step_size", True), ("l2", False),
    ("density", "1.0"), ("seed", -1),
])
def test_run_coerced_value_exits_one(config_path, tmp_path, capsys, key,
                                     value):
    # a value of the wrong JSON type, or a fractional integer, is not
    # coerced (bool("false") is True, int(2.9) is 2) but reported
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    if key in ("normalize", "n", "d", "seed", "density"):
        cfg["dataset"]["synthetic"][key] = value
    elif key == "step_size":
        cfg["methods"] = [{"name": "saga", "step_size": value}]
    else:
        cfg[key] = [value] if key == "seeds" else value
    p.write_text(json.dumps(cfg))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"'{key}'")


@pytest.mark.parametrize("key,value", [("normalize", "no"),
                                       ("n_features", 3.5)])
def test_file_dataset_coerced_value_exits_one(tmp_path, capsys, key, value):
    data = tmp_path / "data.svm"
    data.write_text("1 1:0.5 2:1.0\n-1 1:1.0 3:0.25\n")
    cfg = {"dataset": {"path": str(data), key: value}, "loss": "squared",
           "methods": ["saga"], "epochs": 2}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    _assert_config_error(["optimum", "--config", str(p)], capsys,
                         mentions=f"'{key}'")


def test_integral_floats_and_json_booleans_are_accepted(config_path, tmp_path):
    cfg = json.loads(config_path.read_text())
    cfg.update(epochs=3.0, seeds=[0.0, 1], trace_every=1.0)
    cfg["dataset"]["synthetic"].update(n=15.0, normalize=False)
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 4


@pytest.mark.parametrize("where, key", [
    ("synthetic", "densty"), ("method", "stepsize"), ("dataset", "normalise"),
    ("dataset", "path"),
])
def test_misspelled_nested_key_exits_one(config_path, tmp_path, capsys, where,
                                         key):
    # no key below the top level falls back to a default unnoticed; a
    # dataset with both a path and a synthetic entry names the other one
    p = tmp_path / "bad.json"
    cfg = json.loads(config_path.read_text())
    if where == "synthetic":
        cfg["dataset"]["synthetic"][key] = 0.1
    elif where == "method":
        cfg["methods"] = [{"name": "saga", key: 0.5}]
    elif key == "path":
        data = tmp_path / "data.svm"
        data.write_text("1 1:0.5 2:1.0\n")
        cfg["dataset"]["path"] = str(data)
        key = "synthetic"
    else:
        cfg["dataset"][key] = True
    p.write_text(json.dumps(cfg))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"'{key}'")


@pytest.mark.parametrize("command", ["run", "optimum"])
def test_config_that_is_a_directory_exits_one(tmp_path, capsys, command):
    _assert_config_error([command, "--config", str(tmp_path)], capsys,
                         mentions=str(tmp_path))


@pytest.mark.parametrize("command", ["run", "optimum"])
def test_config_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"loss": "squared", "methods": ["saga"]} \xe9'.encode("latin-1"))
    _assert_config_error([command, "--config", str(p)], capsys,
                         mentions=str(p))


def _no_solver_runs(monkeypatch):
    """A list that records every reference optimum and solver run."""
    ran = []
    monkeypatch.setattr(harness, "compute_reference_optimum",
                        lambda *args, **kw: ran.append("optimum"))
    monkeypatch.setattr(harness, "run", lambda *args, **kw: ran.append("run"))
    return ran


def test_out_that_is_a_directory_exits_one(config_path, tmp_path, capsys,
                                           monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    ran = _no_solver_runs(monkeypatch)
    _assert_config_error(["run", "--config", str(config_path), "--out",
                          str(out)], capsys,
                         mentions=f"[Errno 21] Is a directory: '{out}'")
    assert ran == []


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_out_whose_parent_is_not_a_directory_exits_one(
        config_path, tmp_path, capsys, monkeypatch, parent):
    if parent == "file":
        (tmp_path / parent).write_text("")
    out = tmp_path / parent / "out.csv"
    ran = _no_solver_runs(monkeypatch)
    with pytest.raises(OSError) as opened:  # what writing it would say
        open(out, "w")
    _assert_config_error(["run", "--config", str(config_path), "--out",
                          str(out)], capsys, mentions=str(opened.value))
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cfg.json", *(["file"] if parent == "file" else [])])


def test_out_that_exists_is_left_alone_until_the_rows_are_written(
        config_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "old.csv"
    out.write_text("old")
    monkeypatch.setattr(harness, "run_experiment", lambda *args, **kw: [])
    # no rows: emit_csv refuses before it opens the file
    _assert_config_error(["run", "--config", str(config_path), "--out",
                          str(out)], capsys, mentions="no rows")
    assert out.read_text() == "old"


@pytest.mark.parametrize("bad_line", [1, 3, 4])
def test_data_file_that_is_not_utf8_names_its_line(tmp_path, capsys,
                                                   bad_line):
    data = tmp_path / "data.svm"
    # lines end in each way text mode reads: \n, \r\n and \r
    lines = [[b"1 1:0.5", b"\n"], [b"-1 2:1.0", b"\r\n"],
             [b"# a comment", b"\r"], [b"1 1:2.0 2:0.5", b"\n"]]
    lines[bad_line - 1][0] += b" \xff"  # never a UTF-8 byte
    data.write_bytes(b"".join(b"".join(line) for line in lines))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": {"path": str(data)},
                             "loss": "squared", "methods": ["saga"]}))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"{data}:{bad_line}: not UTF-8 text")


@pytest.mark.parametrize("line", ["nan 1:0.5", "1 1:0.5 2:inf",
                                  "-inf 1:1.0", "1 1:-nan"])
def test_file_dataset_with_a_non_finite_number_exits_one(tmp_path, capsys,
                                                         line):
    data = tmp_path / "data.svm"
    data.write_text(f"1 1:0.5 2:1.0\n{line}\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": {"path": str(data)},
                             "loss": "squared", "methods": ["saga"]}))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"{data}:2: non-finite")


def test_file_dataset_with_a_feature_index_too_large_exits_one(tmp_path,
                                                               capsys):
    # past int64, and past the largest d numpy can size (2^60 - 1)
    for index in ("99999999999999999999", str(2 ** 63 - 1), str(2 ** 60)):
        data = tmp_path / "data.svm"
        data.write_text(f"1 1:0.5\n1 {index}:1\n")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dataset": {"path": str(data)},
                                 "loss": "squared", "methods": ["saga"]}))
        for command in ("run", "optimum"):
            _assert_config_error(
                [command, "--config", str(p)], capsys,
                mentions=f"{data}:2: feature index too large '{index}:1'")


def test_file_dataset_with_n_features_too_large_exits_one(tmp_path, capsys):
    data = tmp_path / "data.svm"
    data.write_text("1 1:0.5\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": {"path": str(data),
                                         "n_features": 2 ** 62},
                             "loss": "squared", "methods": ["saga"]}))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions=f"n_features={2 ** 62} above")


def test_allocation_that_cannot_be_made_exits_one(tmp_path, capsys):
    # d = 2^50: one d-vector of doubles (8 PiB) exceeds the address
    # space, so the request fails at once and touches no memory
    data = tmp_path / "data.svm"
    data.write_text(f"1 {2 ** 50}:1\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": {"path": str(data)},
                             "loss": "squared", "methods": ["saga"]}))
    for command in ("run", "optimum"):
        _assert_config_error([command, "--config", str(p)], capsys,
                             mentions="Unable to allocate")


def test_memory_error_without_a_message_still_names_it(config_path, capsys,
                                                       monkeypatch):
    def failed(obj):
        raise MemoryError()

    monkeypatch.setattr(harness, "compute_reference_optimum", failed)
    _assert_config_error(["optimum", "--config", str(config_path)], capsys,
                         mentions="config error: out of memory")
