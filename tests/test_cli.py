"""CLI pipeline, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import drdplan
from drdplan.cli import (
    EXIT_CONTRACT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)


def run(argv):
    return main(argv)


def gen_args(out, seed=3, scenario="onewall", worlds=40):
    return [
        "gen", "--scenario", scenario, "--grid", "6x6",
        "--worlds", str(worlds), "--paths", "10", "--k", "60",
        "--test-fraction", "0.25", "--seed", str(seed), "--out", out,
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> compile-tree -> run -> report, all exit 0."""
    root = tmp_path_factory.mktemp("cli")
    ds = str(root / "d.bin")
    tree = str(root / "t.json")
    runs = str(root / "runs")
    table = str(root / "table.csv")
    assert run(gen_args(ds)) == EXIT_OK
    assert run(["compile-tree", "--dataset", ds, "--out", tree]) == EXIT_OK
    for policy in ("direct+bisect", "lazysp-graph", "lazysp-set", "random"):
        assert run([
            "run", "--dataset", ds, "--policy", policy,
            "--tree", tree, "--out", runs,
        ]) == EXIT_OK
    assert run([
        "report", "--runs", runs, "--bootstrap", "500", "--out", table,
    ]) == EXIT_OK
    return {"root": root, "ds": ds, "tree": tree, "runs": runs, "table": table}


def test_pipeline_outputs_exist(pipeline):
    for key in ("ds", "tree", "table"):
        assert os.path.exists(pipeline[key])
    run_files = os.listdir(pipeline["runs"])
    assert sorted(run_files) == [
        "direct+bisect.json", "lazysp-graph.json", "lazysp-set.json", "random.json",
    ]


def test_report_reference_row_is_zero(pipeline):
    with open(pipeline["table"]) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("policy,")
    ref = next(l for l in lines if l.startswith("direct+bisect"))
    assert ref.split(",")[1:] == ["0.000000", "0.000000"]


def test_run_file_carries_config(pipeline):
    with open(os.path.join(pipeline["runs"], "random.json")) as f:
        doc = json.load(f)
    assert doc["policy"] == "random"
    assert doc["params"]["policy"] == "random"
    assert doc["dataset_hash"]


def test_sweep_command(pipeline, tmp_path):
    out = str(tmp_path / "sweep.csv")
    js = str(tmp_path / "sweep.json")
    assert run([
        "sweep", "--dataset", pipeline["ds"], "--sizes", "10,30",
        "--out", out, "--json", js,
    ]) == EXIT_OK
    with open(out) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("n_train,") and len(lines) == 3
    with open(js) as f:
        doc = json.load(f)
    assert [r["n_train"] for r in doc["results"]] == [10, 30]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--scenario", "maze", "--grid", "6x6", "--worlds", "40",
             "--paths", "10", "--k", "60", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--scenario", "forest", "--grid", "banana", "--worlds", "40",
             "--paths", "10", "--k", "60", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_data_error_exit_3(tmp_path, capsys):
    bad = str(tmp_path / "bad.bin")
    with open(bad, "w") as f:
        f.write("this is not a dataset\n")
    code = run(["compile-tree", "--dataset", bad, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_DATA
    code = run(["compile-tree", "--dataset", str(tmp_path / "missing.bin"),
                "--out", str(tmp_path / "t.json")])
    assert code == EXIT_DATA


def test_contract_error_exit_4(pipeline, tmp_path, capsys):
    other = str(tmp_path / "other.bin")
    assert run(gen_args(other, seed=9)) == EXIT_OK
    code = run([
        "run", "--dataset", other, "--policy", "direct+bisect",
        "--tree", pipeline["tree"], "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_CONTRACT


def test_resource_error_exit_5(pipeline, tmp_path, capsys):
    code = run([
        "compile-tree", "--dataset", pipeline["ds"], "--max-nodes", "1",
        "--out", str(tmp_path / "t.json"),
    ])
    assert code == EXIT_RESOURCE


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["compile-tree", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "0.05" in text and "0.9" in text
    assert "exit codes" in text


def test_gen_deterministic_bytes(tmp_path, capsys, monkeypatch):
    # The full CLI config (including --out) is echoed into provenance, so
    # byte-identity needs identical relative paths from different cwds.
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert run(gen_args("d.bin")) == EXIT_OK
    with open(tmp_path / "a" / "d.bin", "rb") as fa, \
            open(tmp_path / "b" / "d.bin", "rb") as fb:
        assert fa.read() == fb.read()


def test_hashless_tree_is_contract_error(pipeline, tmp_path, capsys):
    with open(pipeline["tree"]) as f:
        doc = json.load(f)
    del doc["params"]["dataset_hash"]
    tree = tmp_path / "hashless.json"
    tree.write_text(json.dumps(doc))
    code = run([
        "run", "--dataset", pipeline["ds"], "--policy", "direct+bisect",
        "--tree", str(tree), "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_CONTRACT


def _edit_header(src, dst, edit):
    """Copy a dataset file with its JSON header changed by edit(header)."""
    with open(src) as f:
        lines = f.read().splitlines()
    header = json.loads(lines[0])
    edit(header)
    dst.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return str(dst)


def _edited_run_file(pipeline, edit):
    """A valid run file's JSON text after edit(doc)."""
    with open(os.path.join(pipeline["runs"], "random.json")) as f:
        doc = json.load(f)
    edit(doc)
    return json.dumps(doc)


# Run files that parse but that the report cannot read.
_BAD_RUNS = {
    "runs": lambda p: "not json",
    "runs-keys": lambda p: '{"schema_version":1,"policy":"x"}',
    "runs-feasible": lambda p: _edited_run_file(p, lambda d: d["feasible"].update(x=True)),
    "runs-world": lambda p: _edited_run_file(
        p, lambda d: d["traces"][0].__setitem__("world_index", "3")),
    "runs-records": lambda p: _edited_run_file(
        p, lambda d: d["traces"][0]["records"].append([1, 1])),
    "runs-terminal": lambda p: _edited_run_file(p, lambda d: d["traces"][0].pop("terminal")),
    "runs-verified": lambda p: _edited_run_file(
        p, lambda d: d["traces"][0].__setitem__("verified", "yes")),
}


@pytest.mark.parametrize("bad", ["tree", "dataset", *_BAD_RUNS])
def test_parse_faults_exit_3_without_traceback(pipeline, tmp_path, capsys, bad):
    ds, tree, runs = pipeline["ds"], pipeline["tree"], tmp_path / "runs"
    runs.mkdir()
    argv = ["run", "--policy", "direct+bisect", "--out", str(runs)]
    if bad == "tree":
        tree = tmp_path / "t.json"
        tree.write_text('{"schema_version":1}')
    elif bad == "dataset":
        ds = _edit_header(ds, tmp_path / "d.bin", lambda h: h.pop("n_worlds"))
    else:
        (runs / "r.json").write_text(_BAD_RUNS[bad](pipeline))
        argv = ["report", "--runs", str(runs), "--out", str(tmp_path / "t.csv")]
    if argv[0] == "run":
        argv += ["--dataset", str(ds), "--tree", str(tree)]
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_bootstrap_must_be_positive(pipeline, tmp_path, capsys, n):
    with pytest.raises(SystemExit) as exc:
        run(["report", "--runs", pipeline["runs"], "--bootstrap", n,
             "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "random", "--jobs", "-3"],
    ["sweep", "--sizes", "10", "--jobs", "-3"],
    ["compile-tree", "--max-nodes", "0"],
    ["sweep", "--sizes", "10", "--max-nodes", "0"],
], ids=["run-jobs", "sweep-jobs", "compile-max-nodes", "sweep-max-nodes"])
def test_count_flags_must_be_positive(pipeline, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--dataset", pipeline["ds"], "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "0", "1", "2"])
def test_bisect_alpha_outside_unit_interval_is_contract_error(pipeline, tmp_path, capsys, alpha):
    code = run([
        "run", "--dataset", pipeline["ds"], "--policy", "bisect", "--alpha", alpha,
        "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_CONTRACT
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("bad", ["runs-is-file", "runs-subdir", "out-is-file"])
def test_os_errors_exit_3_without_traceback(pipeline, tmp_path, capsys, bad):
    table = str(tmp_path / "t.csv")
    if bad == "runs-is-file":
        argv = ["report", "--runs", pipeline["ds"], "--out", table]
    elif bad == "runs-subdir":
        (tmp_path / "runs" / "x.json").mkdir(parents=True)
        argv = ["report", "--runs", str(tmp_path / "runs"), "--out", table]
    else:
        argv = ["run", "--dataset", pipeline["ds"], "--policy", "lazysp-set",
                "--out", pipeline["ds"]]
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


def test_run_checks_out_before_any_world(pipeline, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_policy was called")

    monkeypatch.setattr(drdplan.bench, "run_policy", never)
    for out in (pipeline["ds"], os.path.join(pipeline["ds"], "runs")):
        argv = ["run", "--dataset", pipeline["ds"], "--policy", "lazysp-set", "--out", out]
        assert run(argv) == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_disc_radius_must_be_finite(tmp_path, capsys, radius):
    argv = gen_args(str(tmp_path / "d.bin"), scenario="forest") + ["--disc-radius", radius]
    assert run(argv) == EXIT_CONTRACT
    assert "finite disc_radius" in capsys.readouterr().err


def test_inexact_edge_length_is_data_error(pipeline, tmp_path, capsys):
    ds = _edit_header(
        pipeline["ds"], tmp_path / "d.bin",
        lambda h: h["graph"]["length"].__setitem__(0, 0.5),
    )
    code = run([
        "run", "--dataset", ds, "--policy", "lazysp-graph",
        "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_DATA
    assert "sqrt(2)" in capsys.readouterr().err


def _handoff(bias):
    return {"type": "handoff", "bias": bias, "active_count": 1}


def _set_root(doc, root):
    doc["root"] = root


# Tree files that parse as JSON but do not fit the 6x6 dataset (|E| = 110,
# m = 10) or break the post-order layout; the fixture's tree is
# [solved, solved, internal(child 0, child 1)].
_BAD_TREES = {
    "edge": lambda d: d["nodes"][-1].__setitem__("edge", 99999),
    "negative-edge": lambda d: d["nodes"][-1].__setitem__("edge", -1),
    "region": lambda d: d["nodes"][0].__setitem__("region", 10),
    "child-range": lambda d: d["nodes"][-1].__setitem__("child", [0, 99]),
    "child-order": lambda d: d["nodes"][-1].__setitem__("child", [0, 2]),
    "root": lambda d: _set_root(d, 0),
    "bias-length": lambda d: d["nodes"].__setitem__(0, _handoff([0.5] * 109)),
    "bias-range": lambda d: d["nodes"].__setitem__(0, _handoff([0.5] * 109 + [1.0])),
    "bias-type": lambda d: d["nodes"].__setitem__(0, _handoff([0.5] * 109 + ["0.5"])),
    "alpha": lambda d: d["params"].pop("alpha"),
    "hash-type": lambda d: d["params"].__setitem__("dataset_hash", 12345),
}


@pytest.mark.parametrize("bad", [*_BAD_TREES, "none"])
def test_tree_faults_exit_3_without_traceback(pipeline, tmp_path, capsys, bad):
    with open(pipeline["tree"]) as f:
        doc = json.load(f)
    if bad == "none":  # the control: a well-formed handoff leaf runs
        doc["nodes"][0] = _handoff([0.5] * 110)
    else:
        _BAD_TREES[bad](doc)
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(doc))
    code = run([
        "run", "--dataset", pipeline["ds"], "--policy", "direct+bisect",
        "--tree", str(tree), "--out", str(tmp_path / "runs"),
    ])
    assert code == (EXIT_OK if bad == "none" else EXIT_DATA)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_import_leaves_networkx_out():
    src = os.path.dirname(os.path.dirname(drdplan.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, drdplan.cli; print('networkx' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
