"""CLI pipeline, exit codes, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import drdplan
from drdplan import bench, ec2, io, scenarios, trees
from drdplan.cli import (
    EXIT_CONTRACT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from drdplan.io import FormatError, dataset_hash, load_dataset


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
    assert doc["params"] == {"alpha": 0.9, "split": "test"}
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


@pytest.mark.parametrize("sizes", ["--sizes=-5,10", "--sizes=0"])
def test_sweep_sizes_must_be_positive(pipeline, tmp_path, capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--dataset", pipeline["ds"], sizes, "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_sizes_must_strictly_increase(pipeline, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a tree was compiled")

    monkeypatch.setattr(trees, "compile_tree", never)
    for sizes in ("10,10", "20,10"):
        out = tmp_path / "s.csv"
        code = run(["sweep", "--dataset", pipeline["ds"], "--sizes", sizes, "--out", str(out)])
        assert code == EXIT_CONTRACT
        assert "strictly increase" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_needs_a_feasible_test_world(pipeline, tmp_path, capsys, monkeypatch):
    ds = io.load_dataset(pipeline["ds"])
    ds.theta[ds.test] = 0
    ds.membership[ds.test] = 0
    path = str(tmp_path / "no-feasible-test.bin")
    io.save_dataset(ds, path)

    def never(*args, **kwargs):
        raise AssertionError("a tree was compiled")

    monkeypatch.setattr(trees, "compile_tree", never)
    out = tmp_path / "s.csv"
    code = run(["sweep", "--dataset", path, "--sizes", "10,30", "--out", str(out)])
    assert code == EXIT_CONTRACT
    assert "no feasible world" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("emptied, message", [
    ("test", "the test split has no worlds"),
    ("train", "dataset has no training split"),
])
def test_bisect_over_an_empty_split_is_contract_error(pipeline, tmp_path, capsys, emptied, message):
    # The other split takes every world, so the dataset stays valid.
    ds = io.load_dataset(pipeline["ds"])
    everything, nothing = np.arange(ds.num_worlds), np.arange(0)
    ds.train, ds.test = (everything, nothing) if emptied == "test" else (nothing, everything)
    path = str(tmp_path / f"no-{emptied}.bin")
    io.save_dataset(ds, path)
    out = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["run", "--dataset", path, "--policy", "bisect", "--out", str(out)])
    assert code == EXIT_CONTRACT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_two_run_files_of_one_policy(pipeline, tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    for name in ("direct+bisect.json", "random.json"):
        shutil.copy(os.path.join(pipeline["runs"], name), runs)
    assert run([
        "run", "--dataset", pipeline["ds"], "--policy", "random", "--seed", "7",
        "--out", str(tmp_path / "seed7"),
    ]) == EXIT_OK
    os.rename(tmp_path / "seed7" / "random.json", runs / "zz-random-seed7.json")
    capsys.readouterr()
    out = tmp_path / "t.csv"
    assert run(["report", "--runs", str(runs), "--out", str(out)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "'random'" in err and "onewall" in err and "Traceback" not in err
    assert not out.exists()


def test_report_refuses_a_table_with_no_ci(tmp_path, capsys):
    # A 12-world dataset with a one-world test split: no policy pairs with
    # the reference on the two worlds a CI needs.
    ds, tree, runs = str(tmp_path / "d.bin"), str(tmp_path / "t.json"), str(tmp_path / "runs")
    argv = gen_args(ds, worlds=12)
    argv[argv.index("--test-fraction") + 1] = "0.09"
    assert run(argv) == EXIT_OK
    assert run(["compile-tree", "--dataset", ds, "--out", tree]) == EXIT_OK
    for policy in ("bisect", "direct+bisect", "random"):
        assert run(["run", "--dataset", ds, "--policy", policy, "--tree", tree, "--out", runs]) == EXIT_OK
    capsys.readouterr()
    table = tmp_path / "t.csv"
    assert run(["report", "--runs", runs, "--out", str(table)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "onewall" in err and "'bisect'" in err and "on 1 feasible world" in err
    assert "Traceback" not in err
    assert not table.exists()


def test_report_columns_of_two_datasets_of_one_kind_differ(tmp_path):
    # 80 worlds give each test split at least two feasible worlds, so every
    # cell of a policy with a run file has a CI; random runs on the first
    # dataset alone and keeps blank cells for the second.
    runs = tmp_path / "runs"
    runs.mkdir()
    hashes = []
    for seed in (3, 4):
        ds = str(tmp_path / f"d{seed}.bin")
        assert run(gen_args(ds, seed=seed, scenario="forest", worlds=80)) == EXIT_OK
        out = tmp_path / f"runs{seed}"
        for policy in ("bisect", "random") if seed == 3 else ("bisect",):
            assert run(["run", "--dataset", ds, "--policy", policy, "--out", str(out)]) == EXIT_OK
            os.rename(out / f"{policy}.json", runs / f"{policy}-{seed}.json")
        hashes.append(dataset_hash(load_dataset(ds))[:12])
    table = tmp_path / "t.csv"
    assert run(["report", "--runs", str(runs), "--reference", "bisect", "--out", str(table)]) == EXIT_OK
    header, bisect_row, random_row = table.read_text().splitlines()
    assert header == "policy," + ",".join(
        f"forest-{h}_ci_low,forest-{h}_ci_high" for h in sorted(hashes)
    )
    assert bisect_row == "bisect," + ",".join(["0.000000"] * 4)
    blank = 1 if hashes[1] < hashes[0] else 3  # the second dataset's column pair
    cells = random_row.split(",")
    assert cells[0] == "random" and cells[blank:blank + 2] == ["", ""]
    assert all(cells[i] for i in {1, 2, 3, 4} - {blank, blank + 1})


# gen_args("d.bin") output, pinned: sampling the worlds after the split and
# the library draws them from the same substreams as before.  Re-pinned at
# dataset schema 2, which keeps the schema-1 bytes but for the membership
# line, n_paths, the scenario's connectivity and the echoed command line.
GEN_SHA256 = "5ae330a10ebc0be751b51c4dcbb36b4324448fbf7fee3d7506d41316a5e5937e"


def test_gen_checks_its_arguments_before_sampling_a_world(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(gen_args("d.bin")) == EXIT_OK
    assert hashlib.sha256((tmp_path / "d.bin").read_bytes()).hexdigest() == GEN_SHA256

    def never(*args, **kwargs):
        raise AssertionError("a world was sampled")

    monkeypatch.setattr(scenarios, "sample_world", never)
    base = gen_args("bad.bin")
    for flag, value in (("--test-fraction", "0"), ("--k", "5")):
        argv = list(base)
        argv[argv.index(flag) + 1] = value
        assert run(argv) == EXIT_CONTRACT
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "bad.bin").exists()


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


@pytest.mark.parametrize("exc,message", [
    # numpy's allocation failure is a MemoryError subclass with this text
    (MemoryError("Unable to allocate 9.09 TiB for an array"), "Unable to allocate 9.09 TiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_gen_out_of_memory_exits_5(tmp_path, capsys, monkeypatch, exc, message):
    # Something gen calls fails to allocate; nothing large is really allocated.
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(scenarios, "build_grid_graph", out_of_memory)
    assert run(gen_args(str(tmp_path / "d.bin"))) == EXIT_RESOURCE
    assert capsys.readouterr().err == f"resource error: {message}\n"
    assert not (tmp_path / "d.bin").exists()


def test_help_shows_defaults(capsys):
    for command, default in (("compile-tree", "0.05"), ("run", "0.9")):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert default in text
        assert "exit codes" in text


def test_gen_deterministic_bytes(tmp_path, capsys, monkeypatch):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert run(gen_args("d.bin")) == EXIT_OK
    with open(tmp_path / "a" / "d.bin", "rb") as fa, \
            open(tmp_path / "b" / "d.bin", "rb") as fb:
        assert fa.read() == fb.read()


def test_gen_serializes_once_and_prints_the_hash_of_its_bytes(tmp_path, capsys, monkeypatch):
    calls = []
    to_bytes = io.dataset_to_bytes
    monkeypatch.setattr(io, "dataset_to_bytes", lambda ds: calls.append(1) or to_bytes(ds))
    out = str(tmp_path / "d.bin")
    assert run(gen_args(out)) == EXIT_OK
    assert len(calls) == 1
    printed = capsys.readouterr().out.split("hash=")[1].strip()
    assert printed == dataset_hash(load_dataset(out))[:12]


# An artifact records only the settings that shape its contents: no file
# name and no --jobs.


def test_gen_bytes_do_not_depend_on_the_out_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(gen_args("a.bin")) == EXIT_OK
    assert run(gen_args(os.path.join("sub", "b.bin"))) == EXIT_OK
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "sub" / "b.bin").read_bytes()


def test_tree_bytes_do_not_depend_on_file_names(pipeline, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(pipeline["ds"], "a.bin")
    assert run(["compile-tree", "--dataset", "a.bin", "--out", "t1.json"]) == EXIT_OK
    assert run(["compile-tree", "--dataset", "./a.bin", "--out", "t2.json"]) == EXIT_OK
    assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()


def test_run_file_does_not_depend_on_jobs(pipeline, tmp_path):
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run(["run", "--dataset", pipeline["ds"], "--policy", "direct+bisect",
                    "--tree", pipeline["tree"], "--jobs", jobs, "--out", str(out)]) == EXIT_OK
        files.append((out / "direct+bisect.json").read_bytes())
    assert files[0] == files[1]


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


def _solved_trace(doc):
    """The first trace of a run file that ends on a library path."""
    return next(t for t in doc["traces"]
                if t["terminal"]["kind"] == "solved" and t["path_edges"] and t["records"])


# Run files that Python's json module parses but that the report cannot
# read (NaN is no JSON number).
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
    "runs-edge-range": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["records"][0].__setitem__(0, -1)),
    "runs-outcome-range": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["records"][0].__setitem__(1, -1)),
    "runs-cost-nan": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["records"][0].__setitem__(2, float("nan"))),
    "runs-params-nan": lambda p: _edited_run_file(
        p, lambda d: d["params"].__setitem__("alpha", float("nan"))),
    "runs-cost-zero": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["records"][0].__setitem__(2, 0.0)),
    "runs-world-range": lambda p: _edited_run_file(
        p, lambda d: d["traces"][0].__setitem__("world_index", -1)),
    "runs-path-edge-range": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["path_edges"].__setitem__(0, -1)),
    "runs-path-index-range": lambda p: _edited_run_file(
        p, lambda d: _solved_trace(d)["terminal"].__setitem__("path_index", -1)),
    # The reference alone, so that only the repeated world can fail the report.
    "runs-repeat": lambda p: _edited_run_file(
        p, lambda d: d.update(policy="direct+bisect", traces=d["traces"] + d["traces"][:1])),
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


def _report_argv(pipeline, tmp_path, random_json):
    """A report over a run directory holding the pipeline's direct+bisect
    run file and random_json as the random policy's."""
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(os.path.join(pipeline["runs"], "direct+bisect.json"), runs)
    (runs / "random.json").write_text(random_json)
    return ["report", "--runs", str(runs), "--bootstrap", "50", "--out", str(tmp_path / "t.csv")]


# What a file's schema_version becomes, from the version it was written with.
_NOT_THE_INTEGER = {"true": lambda v: True, "float": float, "string": str, "missing": None}


@pytest.mark.parametrize("value", list(_NOT_THE_INTEGER))
@pytest.mark.parametrize("artifact", ["dataset", "tree", "runs"])
def test_schema_version_must_be_an_exact_integer(pipeline, tmp_path, capsys, artifact, value):
    """Every reader takes only the JSON integer of its schema version: true,
    the equal float, the version as a string and a missing key are format
    errors (exit 3)."""
    def edit(doc):
        version = doc.pop("schema_version")
        if _NOT_THE_INTEGER[value]:
            doc["schema_version"] = _NOT_THE_INTEGER[value](version)

    if artifact == "dataset":
        path = _edit_header(pipeline["ds"], tmp_path / "d.bin", edit)
        load, argv = io.load_dataset, ["compile-tree", "--dataset", path,
                                       "--out", str(tmp_path / "t.json")]
    else:
        source = pipeline["tree"] if artifact == "tree" else os.path.join(pipeline["runs"], "random.json")
        with open(source) as f:
            doc = json.load(f)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        if artifact == "tree":
            load, argv = trees.load_tree, ["run", "--dataset", pipeline["ds"], "--policy",
                                           "direct+bisect", "--tree", str(path),
                                           "--out", str(tmp_path / "r")]
        else:
            load, argv = bench.load_runs, _report_argv(pipeline, tmp_path, path.read_text())
    with pytest.raises(FormatError, match="schema_version"):
        load(str(path))
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("renamed", [False, True], ids=["added", "renamed"])
@pytest.mark.parametrize("alias", ["leading-zero", "arabic-indic", "negative"])
def test_feasible_keys_must_be_canonical_world_indices(pipeline, tmp_path, capsys, alias, renamed):
    """A run file names exactly its traced worlds in feasible, each by its
    canonical ASCII decimal index.  A key with a leading zero, in
    Arabic-Indic digits or negated is a format error (exit 3), whether it
    is added beside a feasible world's key (it must not overwrite that
    world's flag) or renames it (the world it named goes missing)."""
    def edit(doc):
        h = next(h for h, ok in doc["feasible"].items() if ok)
        key = {"leading-zero": "0" + h, "negative": "-" + h,
               "arabic-indic": "".join(chr(0x660 + int(c)) for c in h)}[alias]
        doc["feasible"][key] = doc["feasible"].pop(h) if renamed else False

    argv = _report_argv(pipeline, tmp_path, _edited_run_file(pipeline, edit))
    with pytest.raises(FormatError, match="feasible"):
        bench.load_runs(str(tmp_path / "runs" / "random.json"))
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


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "2"])
def test_bisect_alpha_outside_unit_interval_is_contract_error(
    pipeline, tmp_path, capsys, monkeypatch, alpha
):
    # Every policy refuses it before any world runs, not only the two that
    # build a bias from it: otherwise a run file would record it.
    def never(*args, **kwargs):
        raise AssertionError("a world ran")

    monkeypatch.setattr(bench, "_world_oracle", never)
    for policy in bench.POLICY_IDS:
        code = run([
            "run", "--dataset", pipeline["ds"], "--policy", policy, "--alpha", alpha,
            "--tree", pipeline["tree"], "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_CONTRACT
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_run_alpha_sets_the_direct_bisect_bias(tmp_path, capsys):
    # A forest dataset whose trees have handoff leaves.  A run must use its
    # tree's alpha, so each alpha compiles its own tree.
    ds = str(tmp_path / "d.bin")
    assert run(gen_args(ds, scenario="forest", worlds=80)) == EXIT_OK
    traces = {}
    for alpha in ("0.9", "0.5"):
        tree, out = str(tmp_path / f"t{alpha}.json"), tmp_path / alpha
        assert run(["compile-tree", "--dataset", ds, "--alpha", alpha, "--out", tree]) == EXIT_OK
        assert run([
            "run", "--dataset", ds, "--policy", "direct+bisect", "--alpha", alpha,
            "--tree", tree, "--out", str(out),
        ]) == EXIT_OK
        with open(out / "direct+bisect.json") as f:
            traces[alpha] = json.load(f)["traces"]
    assert traces["0.9"] != traces["0.5"]


def test_run_alpha_other_than_the_trees_is_contract_error(pipeline, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a world ran")

    monkeypatch.setattr(bench, "_world_oracle", never)
    with open(pipeline["tree"]) as f:
        assert json.load(f)["params"]["alpha"] == 0.9
    for policy in ("direct+bisect", "direct-only"):
        code = run([
            "run", "--dataset", pipeline["ds"], "--policy", policy, "--alpha", "0.5",
            "--tree", pipeline["tree"], "--out", str(tmp_path / "runs"),
        ])
        assert code == EXIT_CONTRACT
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_schema_2_tree_is_data_error(pipeline, tmp_path, capsys):
    # Schema 2 trees were compiled by a DIRECT that tested any unknown edge
    # and recorded no alpha: they are refused, not run.
    with open(pipeline["tree"]) as f:
        doc = json.load(f)
    doc["schema_version"] = 2
    del doc["params"]["alpha"]
    tree = tmp_path / "t2.json"
    tree.write_text(json.dumps(doc))
    code = run([
        "run", "--dataset", pipeline["ds"], "--policy", "direct+bisect",
        "--tree", str(tree), "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_DATA
    assert "schema_version 2" in capsys.readouterr().err


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

    monkeypatch.setattr(bench, "run_policy", never)
    for out in (pipeline["ds"], os.path.join(pipeline["ds"], "runs")):
        argv = ["run", "--dataset", pipeline["ds"], "--policy", "lazysp-set", "--out", out]
        assert run(argv) == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["inf", "nan", "1e9", "1e300"])
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


def _set_root(doc, root):
    doc["root"] = root


def _repeat_edge(doc):
    # A copy of the root under the root, as its child 0: the root's edge is
    # tested twice on the way to leaf 0.
    leaf0, leaf1, root = doc["nodes"]
    doc["nodes"] = [leaf0, leaf1, dict(root), leaf1, root]
    root["child"] = [2, 3]
    doc["root"] = 4


def _shared_child(doc):
    # Both outcomes of the root lead to one leaf: a test whose outcome
    # decides nothing.
    doc["nodes"] = [{"type": "handoff", "active_count": 1}, dict(doc["nodes"][-1], child=[0, 0])]
    doc["root"] = 1


# Tree files that Python's json module parses but that do not fit the 6x6
# dataset (|E| = 110, m = 10), break the post-order layout or the
# one-parent rule, test an edge twice on one path, or hold a number JSON
# does not have; each edits the fixture dataset's
# expanded tree, [solved, solved, internal(child 0, child 1)].
_BAD_TREES = {
    "edge": lambda d: d["nodes"][-1].__setitem__("edge", 99999),
    "negative-edge": lambda d: d["nodes"][-1].__setitem__("edge", -1),
    "region": lambda d: d["nodes"][0].__setitem__("region", 10),
    "child-range": lambda d: d["nodes"][-1].__setitem__("child", [0, 99]),
    "child-order": lambda d: d["nodes"][-1].__setitem__("child", [0, 2]),
    "root": lambda d: _set_root(d, 0),
    "hash-type": lambda d: d["params"].__setitem__("dataset_hash", 12345),
    "eta-inf": lambda d: d["params"].__setitem__("eta", float("inf")),
    "alpha-nan": lambda d: d["params"].__setitem__("alpha", float("nan")),
    "repeat-edge": _repeat_edge,
    "shared-child": _shared_child,
}


@pytest.fixture(scope="module")
def expanded_tree(pipeline):
    """The fixture dataset's tree before pruning, as JSON (pruning hands
    off at its root)."""
    ds = load_dataset(pipeline["ds"])
    problem = ec2.problem_from_dataset(ds, ds.train)
    tree = trees.expand_tree(problem, 0.05, params={"dataset_hash": dataset_hash(ds)})
    return json.loads(trees.tree_to_bytes(tree))


@pytest.mark.parametrize("bad", [*_BAD_TREES, "none"])
def test_tree_faults_exit_3_without_traceback(expanded_tree, pipeline, tmp_path, capsys, bad):
    doc = json.loads(json.dumps(expanded_tree))
    assert [node["type"] for node in doc["nodes"]] == ["solved", "solved", "internal"]
    if bad == "none":  # the control: a well-formed handoff leaf runs
        doc["nodes"][0] = {"type": "handoff", "active_count": 1}
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


def test_importing_one_module_imports_no_other():
    # The package re-exports nothing, so each name has one import path, its
    # module's, and a module loads only what it imports itself.
    src = os.path.dirname(os.path.dirname(drdplan.__file__))
    code = "import sys, drdplan.rng; print(sorted(m for m in sys.modules if m.startswith('drdplan')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == str(["drdplan", "drdplan.rng"])
    # Only a run with more than one job imports multiprocessing, so no
    # command pays for it at import.
    code = "import sys, drdplan.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def _set_graph(key, value):
    return lambda h: h["graph"].__setitem__(key, value)


# Dataset headers that parse as JSON but break the format: each must exit 3
# through every command that loads a dataset.
_BAD_HEADERS = {
    "path-id-null": lambda h: h["paths"][0].__setitem__(0, None),
    "path-id-true": lambda h: h["paths"][0].__setitem__(0, True),
    "path-id-list": lambda h: h["paths"][0].__setitem__(0, []),
    "path-id-float": lambda h: h["paths"][0].__setitem__(0, 1.0),
    "path-string": lambda h: h["paths"].__setitem__(0, "0,1"),
    "length-scalar": _set_graph("length", 1.0),
    "provenance-list": lambda h: h.__setitem__("provenance", []),
    "eval-cost-short": lambda h: h["graph"]["eval_cost"].pop(),
    "length-short": lambda h: h["graph"]["length"].pop(),
    "length-inexact": lambda h: h["graph"]["length"].__setitem__(0, 0.5),
    "length-nan": lambda h: h["graph"]["length"].__setitem__(0, float("nan")),
    "eval-cost-nan": lambda h: h["graph"]["eval_cost"].__setitem__(0, float("nan")),
    "eval-cost-inf": lambda h: h["graph"]["eval_cost"].__setitem__(0, float("inf")),
    "no-paths": lambda h: h.__setitem__("paths", []),
}


@pytest.mark.parametrize("command", [
    ["compile-tree"],
    ["run", "--policy", "lazysp-set"],
    ["run", "--policy", "bisect"],
], ids=["compile-tree", "run-lazysp-set", "run-bisect"])
@pytest.mark.parametrize("bad", list(_BAD_HEADERS))
def test_header_faults_exit_3_without_traceback(pipeline, tmp_path, capsys, bad, command):
    ds = _edit_header(pipeline["ds"], tmp_path / "d.bin", _BAD_HEADERS[bad])
    argv = [*command, "--dataset", ds, "--out", str(tmp_path / "out")]
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- mutation fuzz ------------------------------------------------------------

_REPLACEMENTS = [None, True, [], {}, "x", -1, 1.5, "truncate"]


def _positions(doc, at=()):
    """Key paths of doc's values: every object member, and the first,
    second and last entry of every array."""
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _positions(v, at + (k,))
    elif isinstance(doc, list):
        for i in sorted({0, 1, len(doc) - 1} & set(range(len(doc)))):
            yield from _positions(doc[i], at + (i,))


def _mutate(doc, at, value):
    """A copy of doc with the value at key path `at` replaced; "truncate"
    drops the last entry of an array and leaves any other value as is."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in at[:-1]:
        parent = parent[k]
    old = parent[at[-1]] if at else doc
    if value == "truncate":
        value = old[:-1] if isinstance(old, list) else old
    if not at:
        return value
    parent[at[-1]] = value
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_artifacts_exit_0_3_or_4(pipeline, tmp_path, capsys, data):
    """One JSON value of the dataset header, the tree or a run file is
    replaced (or an array truncated): every command that reads it exits 0,
    3 or 4, never with a traceback."""
    target = data.draw(st.sampled_from(["dataset", "tree", "runs"]))
    work = tmp_path / f"case{len(os.listdir(tmp_path))}"
    work.mkdir()
    if target == "dataset":
        with open(pipeline["ds"]) as f:
            lines = f.read().splitlines()
        doc = json.loads(lines[0])
    else:
        path = pipeline["tree"] if target == "tree" else os.path.join(pipeline["runs"], "random.json")
        with open(path) as f:
            doc = json.load(f)
    at = data.draw(st.sampled_from(list(_positions(doc))))
    text = json.dumps(_mutate(doc, at, data.draw(st.sampled_from(_REPLACEMENTS))))
    if target == "dataset":
        ds = work / "d.bin"
        ds.write_text("\n".join([text] + lines[1:]) + "\n")
        commands = [["compile-tree", "--dataset", str(ds), "--out", str(work / "t.json")],
                    ["run", "--dataset", str(ds), "--policy", "bisect", "--out", str(work / "r")]]
    elif target == "tree":
        (work / "t.json").write_text(text)
        commands = [["run", "--dataset", pipeline["ds"], "--policy", "direct+bisect",
                     "--tree", str(work / "t.json"), "--out", str(work / "r")]]
    else:
        (work / "runs").mkdir()
        (work / "runs" / "random.json").write_text(text)
        with open(os.path.join(pipeline["runs"], "direct+bisect.json")) as f:
            (work / "runs" / "direct+bisect.json").write_text(f.read())
        commands = [["report", "--runs", str(work / "runs"), "--bootstrap", "50",
                     "--out", str(work / "t.csv")]]
    for argv in commands:
        assert run(argv) in (EXIT_OK, EXIT_DATA, EXIT_CONTRACT)
        assert "Traceback" not in capsys.readouterr().err
