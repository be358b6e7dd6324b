"""CLI pipeline, exit codes, determinism."""

import json
import os

import pytest

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


@pytest.mark.parametrize("bad", ["tree", "dataset", "runs"])
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
        (runs / "r.json").write_text("not json")
        argv = ["report", "--runs", str(runs), "--out", str(tmp_path / "t.csv")]
    if argv[0] == "run":
        argv += ["--dataset", str(ds), "--tree", str(tree)]
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


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
