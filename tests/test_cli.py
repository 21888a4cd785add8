import filecmp
import json
from pathlib import Path

import pytest

from mkdmts.cli import main
from mkdmts.ioutil import read_json, write_json, write_matrix


SYNTH_ARGS = [
    "synth", "--seed", "7", "--samples", "5", "--noise", "0.05",
    "--length-min", "30", "--length-max", "40",
]


def _run(args):
    return main([str(a) for a in args])


def test_unknown_flag_is_usage_error(capsys):
    assert _run(["--nope"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert _run(["frobnicate"]) == 1


def test_version_exits_zero(capsys):
    assert _run(["--version"]) == 0
    assert "mkdmts 0.1.0" in capsys.readouterr().out


def test_missing_manifest_is_data_error(tmp_path):
    assert _run(["kernels", "--manifest", tmp_path / "none.jsonl", "--out", tmp_path / "k"]) == 2


def test_synth_determinism(tmp_path):
    assert _run(SYNTH_ARGS + ["--out", tmp_path / "d1"]) == 0
    assert _run(SYNTH_ARGS + ["--out", tmp_path / "d2"]) == 0
    cmp = filecmp.dircmp(tmp_path / "d1", tmp_path / "d2")

    def assert_same(c):
        diffs = [f for f in c.diff_files if f != "run_info.json"]
        assert not diffs and not c.left_only and not c.right_only, (c.left, diffs)
        for sub in c.subdirs.values():
            assert_same(sub)

    assert_same(cmp)


def test_full_pipeline_produces_scores(tmp_path):
    data, kern, model, enc = tmp_path / "data", tmp_path / "kern", tmp_path / "model", tmp_path / "enc"
    assert _run(SYNTH_ARGS + ["--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern, "--bandwidth", "20"]) == 0
    assert _run([
        "train", "--manifest", data / "seen.jsonl", "--kernels", kern,
        "--k", "8", "--tx", "2", "--ta", "2", "--tbeta", "1",
        "--iters", "8", "--tol", "1e-6", "--seed", "7", "--out", model,
    ]) == 0
    assert _run([
        "encode", "--model", model, "--kernels", kern,
        "--seen-manifest", data / "seen.jsonl", "--manifest", data / "unseen.jsonl",
        "--out", enc,
    ]) == 0
    assert _run([
        "cluster", "--enc", enc, "--order", "shuffle:5",
        "--out", tmp_path / "tree.json", "--dot", tmp_path / "tree.dot",
    ]) == 0
    assert _run([
        "eval", "--tree", tmp_path / "tree.json", "--truth", data / "unseen.jsonl",
        "--out", tmp_path / "score.json",
    ]) == 0

    score = read_json(tmp_path / "score.json")
    assert {"ce", "nmi", "num_clusters", "contingency"} <= set(score)
    assert 0.0 <= score["ce"] <= 1.0 and 0.0 <= score["nmi"] <= 1.0
    assert (tmp_path / "tree.dot").read_text().startswith("digraph")
    # effective config captured in each artifact directory
    for d in (data, kern, model, enc):
        info = read_json(d / "run_info.json")
        assert info["tool_version"] == "0.1.0"
        assert "config" in info
    # encode outputs per sequence
    index = read_json(enc / "index.json")["ids"]
    sid = index[0]
    assert (enc / f"{sid}.code.json").exists()
    assert (enc / f"{sid}.R.bin").exists()
    assert (enc / f"{sid}.report.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps({"seed": 3, "samples": 4, "noise": 0.0,
                                    "length_min": 20, "length_max": 24}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(["synth", "--config", cfg_path, "--out", out1]) == 0
    # flag overrides the file
    assert _run(["synth", "--config", cfg_path, "--seed", "4", "--out", out2]) == 0
    info1 = read_json(out1 / "run_info.json")
    info2 = read_json(out2 / "run_info.json")
    assert info1["config"]["seed"] == 3
    assert info2["config"]["seed"] == 4


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert _run(["synth", "--config", cfg_path, "--out", tmp_path / "o"]) == 1


def test_bad_order_spec_is_usage_error(tmp_path):
    enc = tmp_path / "enc"
    enc.mkdir()
    (enc / "index.json").write_text('{"ids": []}')
    assert _run(["cluster", "--enc", enc, "--order", "sideways", "--out", tmp_path / "t.json"]) == 1


@pytest.mark.parametrize("order", ["shuffle:-1", "shuffle:1.5", "shuffle:"])
def test_bad_order_seed_is_one_usage_line(tmp_path, capsys, order):
    enc = tmp_path / "enc"
    enc.mkdir()
    (enc / "index.json").write_text('{"ids": ["a", "b"]}')
    for sid in ("a", "b"):
        write_matrix(enc / f"{sid}.R.bin", [[1.0, 0.0], [0.0, 1.0]])
    assert _run(["cluster", "--enc", enc, "--order", order, "--out", tmp_path / "t.json"]) == 1
    _one_error_line(capsys.readouterr().err, "usage error: ")
    assert not (tmp_path / "t.json").exists()
    # the same encodings cluster under a good seed
    assert _run(["cluster", "--enc", enc, "--order", "shuffle:0", "--out", tmp_path / "t.json"]) == 0


def test_bad_bandwidth_is_usage_error(tmp_path):
    assert _run(["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "k",
                 "--bandwidth", "wide"]) == 1


def test_report_renders_eval_directory(tmp_path, capsys):
    (tmp_path / "score.json").write_text(json.dumps({
        "ce": 0.25, "nmi": 0.5, "num_clusters": 2, "num_classes": 2, "contingency": [[3, 1], [1, 3]],
        "nmi_normalization": "sqrt", "tool_version": "0.1.0"}))
    assert _run(["report", "--run", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "CE 25.00%" in out and "NMI 0.500" in out


def test_train_with_tune_grid(tmp_path):
    data, kern = tmp_path / "data", tmp_path / "kern"
    assert _run(["synth", "--seed", 3, "--seen-classes", 2, "--unseen-classes", 1,
                 "--samples", 6, "--noise", 0.05, "--length-min", 20, "--length-max", 28,
                 "--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern,
                 "--bandwidth", 10]) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": [[2, 1], [4, 2]]}))
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern,
                 "--tbeta", 1, "--iters", 3, "--tol", "1e-5", "--seed", 3,
                 "--tune", grid, "--out", tmp_path / "model"]) == 0
    meta = read_json(tmp_path / "model" / "meta.json")
    assert (meta["k"], meta["t_x"]) in ((2, 1), (4, 2))


def test_report_renders_experiment_directory(tmp_path, capsys):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 2, "dims": 2,
                  "length_range": (20, 26), "samples_per_class": 4,
                  "noise_std": 0.05, "seed": 2},
        "bandwidth": 10.0,
        "train": {"k": 4, "t_x": 2, "t_a": 2, "t_beta": 1,
                  "max_iters": 4, "tol": 1e-6, "seed": 2},
    }
    run_experiment(config, tmp_path)
    assert _run(["report", "--run", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "training loss" in out and "incremental clustering" in out


def test_report_after_the_quick_start_pipeline(tmp_path, capsys):
    from mkdmts.evalx import run_experiment, run_report

    run, data = tmp_path / "run", tmp_path / "run" / "data"
    assert _run(SYNTH_ARGS + ["--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", run / "kernels", "--bandwidth", 20]) == 0
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", run / "kernels", "--k", 8, "--tx", 2,
                 "--ta", 2, "--tbeta", 1, "--iters", 6, "--tol", "1e-6", "--seed", 7, "--out", run / "model"]) == 0
    assert _run(_encode_args(data, run / "kernels", run / "model", run / "enc")) == 0
    assert _run(["cluster", "--enc", run / "enc", "--order", "shuffle:7", "--out", run / "tree.json"]) == 0
    assert _run(["eval", "--tree", run / "tree.json", "--truth", data / "unseen.jsonl", "--out", run / "score.json"]) == 0
    capsys.readouterr()
    assert _run(["report", "--run", run]) == 0
    lines = capsys.readouterr().out.splitlines()

    # run_experiment with the same seeds: the CLI report shows the same numbers, the spectral baseline aside
    experiment = run_experiment({
        "synth": {"seed": 7, "samples_per_class": 5, "length_range": (30, 40), "noise_std": 0.05},
        "bandwidth": 20.0,
        "train": {"k": 8, "t_x": 2, "t_a": 2, "t_beta": 1, "max_iters": 6, "tol": 1e-6, "seed": 7},
        "cluster": {"order_seed": 7},
    }, tmp_path / "experiment")
    text = (tmp_path / "experiment" / "report.txt").read_text()
    assert lines[1].startswith("training loss: ") and lines[2].startswith("mean DRA over unseen sequences: ")
    assert lines[3].startswith("incremental clustering: CE ") and " NMI " in lines[3]
    assert lines[:4] == text.splitlines()[:4]
    assert lines[4] == "spectral baseline: not run"
    cli_report = run_report(run)
    assert cli_report["loss_trace"] == experiment["loss_trace"] and cli_report["dra_mean"] == experiment["dra_mean"]
    assert cli_report["clustering"] == {"incremental": experiment["clustering"]["incremental"]}
    # a run_experiment directory's report is its score.json, and report prints the run's own
    # report.txt line for line, the timings in the order the stages ran
    assert run_report(tmp_path / "experiment") == read_json(tmp_path / "experiment" / "score.json")
    assert _run(["report", "--run", tmp_path / "experiment"]) == 0
    assert capsys.readouterr().out == text


def test_report_prints_stages_without_output_as_not_run(trained, capsys):
    data, _, _ = trained
    capsys.readouterr()
    assert _run(["report", "--run", data.parent]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("training loss: ") and not lines[1].endswith("not run")
    assert lines[2:5] == ["mean DRA over unseen sequences: not run", "incremental clustering: not run",
                          "spectral baseline: not run"]


@pytest.mark.parametrize("setup", ["missing", "empty", "kernel_cache_only"])
def test_report_without_run_output_is_data_error(tmp_path, capsys, setup):
    run = tmp_path / "run"
    if setup != "missing":
        run.mkdir()
    if setup == "kernel_cache_only":
        (run / "kernels").mkdir()
        (run / "kernels" / "meta.json").write_text(json.dumps({"format": 1, "n": 2, "f": 1}))
    assert _run(["report", "--run", run]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "data error: ")
    assert len(captured.err.splitlines()) == 1 and not captured.out


@pytest.mark.parametrize("files,named", [
    ({"model/meta.json": {"loss_trace": []}}, "meta.json"),
    ({"model/meta.json": {"loss_trace": ["high"]}}, "meta.json"),
    ({"enc/index.json": {"ids": []}}, "index.json"),
    ({"enc/index.json": {"ids": ["a"]}, "enc/a.report.json": {"id": "a"}}, "a.report.json"),
    ({"score.json": {"ce": "low", "nmi": 0.5, "num_clusters": 2}}, "score.json"),
], ids=["empty_loss_trace", "loss_trace_of_strings", "index_without_ids", "report_without_dra", "ce_not_a_number"])
def test_report_on_malformed_stage_output_is_data_error(tmp_path, capsys, files, named):
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(json.dumps(content))
    assert _run(["report", "--run", tmp_path]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert named in err


def _write_encodings(enc, ids, rng_seed=0):
    import numpy as np

    from mkdmts.ioutil import write_json, write_matrix

    enc.mkdir(parents=True)
    rng = np.random.default_rng(rng_seed)
    for sid in ids:
        write_matrix(enc / f"{sid}.R.bin", rng.uniform(size=(4, 2)))
    write_json(enc / "index.json", {"ids": list(ids)})


def test_train_out_of_range_config_is_usage_error(tmp_path, capsys):
    data, kern = tmp_path / "data", tmp_path / "kern"
    assert _run(["synth", "--seed", 3, "--seen-classes", 2, "--unseen-classes", 1,
                 "--samples", 2, "--length-min", 8, "--length-max", 10, "--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern, "--bandwidth", 5]) == 0
    capsys.readouterr()
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern,
                 "--k", 0, "--out", tmp_path / "model"]) == 1
    assert "usage error: k must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_cluster_out_of_range_config_is_usage_error(tmp_path, capsys):
    _write_encodings(tmp_path / "enc", ["a", "b"])
    assert _run(["cluster", "--enc", tmp_path / "enc", "--krmv", 2, "--out", tmp_path / "t.json"]) == 1
    assert "usage error: k_rmv must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_cluster_creates_missing_output_directory(tmp_path):
    _write_encodings(tmp_path / "enc", ["a", "b", "c"])
    out = tmp_path / "new" / "deeper" / "tree.json"
    assert _run(["cluster", "--enc", tmp_path / "enc", "--out", out]) == 0
    assert read_json(out)
    assert (out.parent / "run_info.json").exists()


def test_cluster_empty_index_is_data_error(tmp_path, capsys):
    _write_encodings(tmp_path / "enc", [])
    assert _run(["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "t.json"]) == 2
    assert "lists no encoded sequences" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_cluster_index_listing_an_id_twice_is_data_error(tmp_path, capsys):
    _write_encodings(tmp_path / "enc", ["a", "b", "a"])
    assert _run(["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "t.json"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "duplicate sequence id 'a'" in err
    assert not (tmp_path / "t.json").exists()


def test_manifest_mixing_string_and_integer_labels_is_data_error(tmp_path, capsys):
    for i in range(4):
        (tmp_path / f"s{i}.csv").write_text("0.0,1.0\n1.0,2.0\n")
    (tmp_path / "m.jsonl").write_text("".join(
        json.dumps({"id": f"s{i}", "path": f"s{i}.csv", "label": label}) + "\n"
        for i, label in enumerate(["walk", 0, "run", 1])))
    assert _run(["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "k"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "m.jsonl: line 2: 'label' 0 mixes string and integer labels" in err
    assert not (tmp_path / "k").exists()


def _index_escaping_its_directory(run):
    """An encode directory whose index lists "../enc/x", a path that resolves to its own x."""
    _write_encodings(run / "enc", ["x", "y"])
    write_json(run / "enc" / "index.json", {"ids": ["../enc/x", "y"]})
    for sid in ("x", "y"):
        write_json(run / "enc" / f"{sid}.report.json", {"id": sid, "dra": 1.0, "per_dim_error": [0.0], "attribution": []})


def test_cluster_index_id_that_is_not_a_file_name_is_data_error(tmp_path, capsys):
    _index_escaping_its_directory(tmp_path)
    assert _run(["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "t.json"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "index.json: sequence id '../enc/x' is not a safe file name" in err
    assert not (tmp_path / "t.json").exists()


def test_report_index_id_that_is_not_a_file_name_is_data_error(tmp_path, capsys):
    _index_escaping_its_directory(tmp_path)
    assert _run(["report", "--run", tmp_path]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "data error: ")
    assert "sequence id '../enc/x' is not a safe file name" in captured.err and not captured.out


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"k": "abc"}))
    assert _run(["train", "--config", cfg_path, "--manifest", tmp_path / "m.jsonl",
                 "--kernels", tmp_path / "k", "--out", tmp_path / "model"]) == 1
    err = capsys.readouterr().err
    assert "usage error: k must be an integer, got 'abc'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "model").exists()


def _small_model(root):
    """Synthesize, build kernels and train a tiny model under ``root``."""
    data, kern, model = root / "data", root / "kern", root / "model"
    assert _run(["synth", "--seed", 3, "--seen-classes", 2, "--unseen-classes", 1,
                 "--samples", 2, "--length-min", 8, "--length-max", 10, "--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern, "--bandwidth", 5]) == 0
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern,
                 "--k", 2, "--tbeta", 1, "--iters", 2, "--out", model]) == 0
    return data, kern, model


def test_encode_out_of_range_tx_is_usage_error(tmp_path, capsys):
    data, kern, model = _small_model(tmp_path / "w")
    capsys.readouterr()
    assert _run(["encode", "--model", model, "--kernels", kern, "--tx", 0,
                 "--seen-manifest", data / "seen.jsonl", "--manifest", data / "unseen.jsonl",
                 "--out", tmp_path / "enc"]) == 1
    err = capsys.readouterr().err
    assert "usage error: t_x must be at least 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "enc").exists()


def test_encode_rejects_path_traversal_id(tmp_path, capsys):
    data, kern, model = _small_model(tmp_path / "w")
    first = json.loads((data / "unseen.jsonl").read_text().splitlines()[0])
    (data / "evil.jsonl").write_text(json.dumps({"id": "../../escaped", "path": first["path"]}) + "\n")
    capsys.readouterr()
    assert _run(["encode", "--model", model, "--kernels", kern,
                 "--seen-manifest", data / "seen.jsonl", "--manifest", data / "evil.jsonl",
                 "--out", tmp_path / "w" / "enc" / "x"]) == 2
    assert "'../../escaped' is not a safe file name" in capsys.readouterr().err
    assert not list(tmp_path.rglob("escaped*"))


@pytest.mark.parametrize("case", ["synth_under_file", "cluster_onto_directory"])
def test_unwritable_output_is_data_error(tmp_path, capsys, case):
    if case == "synth_under_file":
        (tmp_path / "plain").write_text("")
        args = SYNTH_ARGS + ["--out", tmp_path / "plain" / "data"]
        expected = "cannot create directory"
    else:
        _write_encodings(tmp_path / "enc", ["a", "b"])
        (tmp_path / "tree.json").mkdir()
        args = ["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "tree.json"]
        expected = "cannot write"
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and expected in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 10-sequence seen set (enough for 5-fold tuning), its kernels and a trained model."""
    root = tmp_path_factory.mktemp("trained")
    data, kern, model = root / "data", root / "kern", root / "model"
    assert _run(["synth", "--seed", 3, "--seen-classes", 2, "--unseen-classes", 1,
                 "--samples", 5, "--length-min", 8, "--length-max", 10, "--out", data]) == 0
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern, "--bandwidth", 5]) == 0
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern,
                 "--k", 2, "--tbeta", 1, "--iters", 2, "--out", model]) == 0
    return data, kern, model


def _encode_args(data, kern, model, out):
    return ["encode", "--model", model, "--kernels", kern, "--seen-manifest", data / "seen.jsonl",
            "--manifest", data / "unseen.jsonl", "--out", out]


def _one_error_line(err, prefix):
    """stderr holds one ``prefix`` message line, then at most the usage text."""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert lines[0].startswith(prefix), err
    assert all(line.startswith(("usage:", " ")) for line in lines[1:]), err


def test_synth_defaults_come_from_synth_config(tmp_path):
    from dataclasses import asdict

    from mkdmts.mtsdata import SynthConfig, load_dataset, synth_dataset

    assert _run(["synth", "--out", tmp_path]) == 0
    seen, unseen, _ = synth_dataset(SynthConfig())
    assert load_dataset(tmp_path / "seen.jsonl").hash() == seen.hash()
    assert load_dataset(tmp_path / "unseen.jsonl", role="unseen").hash() == unseen.hash()
    config = read_json(tmp_path / "run_info.json")["config"]
    assert config == json.loads(json.dumps(asdict(SynthConfig())))


def test_run_info_records_resolved_train_config(trained):
    from dataclasses import asdict

    from mkdmts.mkd import TrainConfig

    _, _, model = trained
    config = read_json(model / "run_info.json")["config"]
    assert config == asdict(TrainConfig(k=2, t_beta=1, max_iters=2).resolve(10, 2))
    assert config["t_a"] == 1 and config["t_beta"] == 1


@pytest.mark.parametrize("config", [{"manifest": "seen.jsonl"}, ["seed"]], ids=["other_command_key", "not_an_object"])
def test_config_file_takes_only_the_subcommands_flags(tmp_path, capsys, config):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert _run(["synth", "--config", cfg_path, "--out", tmp_path / "o"]) == 1
    _one_error_line(capsys.readouterr().err, "usage error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", [
    {"pairs": [[2, 1]]},
    {"grid": [["a", 1]]},
    {"grid": [[2, 1, 3]]},
    {"grid": [2]},
    {"grid": []},
    {"grid": [[0, 1]]},
    {"grid": [[2.7, 1]]},
    {"grid": [[2, True]]},
], ids=["no_grid_key", "non_integer", "triple", "not_a_list", "empty", "zero_k", "non_integral", "bool"])
def test_malformed_tune_grid_is_usage_error(trained, tmp_path, capsys, grid):
    data, kern, _ = trained
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    capsys.readouterr()
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern, "--iters", 1,
                 "--tune", tmp_path / "grid.json", "--out", tmp_path / "model"]) == 1
    _one_error_line(capsys.readouterr().err, "usage error: ")
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("command, config, expected", [
    ("cluster", {"order": 5}, "order must be a string, got 5"),
    ("cluster", {"dot": 2}, "dot must be a string, got 2"),
    ("train", {"tune": 5}, "tune must be a string, got 5"),
    ("train", {"k": 2.7}, "k must be an integer, got 2.7"),
    ("train", {"tol": True}, "tol must be a number, got True"),
    ("encode", {"tx": 1.9}, "tx must be an integer, got 1.9"),
    ("kernels", {"bandwidth": True}, "bandwidth must be 'median' or positive and finite, got True"),
    ("synth", {"length_min": 30.5}, "length_min must be an integer, got 30.5"),
    ("synth", {"seed": -1}, "seed must be at least 0"),
])
def test_bad_config_file_value_is_usage_error(trained, tmp_path, capsys, command, config, expected):
    data, kern, model = trained
    out = tmp_path / "out"
    args = {
        "synth": ["--out", out],
        "kernels": ["--manifest", data / "seen.jsonl", "--out", out],
        "train": ["--manifest", data / "seen.jsonl", "--kernels", kern, "--iters", 1, "--out", out],
        "encode": _encode_args(data, kern, model, out)[1:],
        "cluster": ["--enc", tmp_path / "enc", "--out", out],
    }[command]
    if command == "cluster":
        _write_encodings(tmp_path / "enc", ["a", "b"])
    (tmp_path / "c.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert _run([command, "--config", tmp_path / "c.json", *args]) == 1
    err = capsys.readouterr().err
    _one_error_line(err, "usage error: ")
    assert expected in err
    assert not out.exists()


def test_config_integer_for_a_float_flag_is_that_float(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"noise": 0, "samples": 2, "length_min": 8, "length_max": 10}))
    assert _run(["synth", "--config", tmp_path / "c.json", "--out", tmp_path / "d"]) == 0
    info = read_json(tmp_path / "d" / "run_info.json")
    # the flags as given, and the resolved float
    assert info["args"]["noise"] == 0 and isinstance(info["args"]["noise"], int)
    assert info["config"]["noise_std"] == 0.0 and isinstance(info["config"]["noise_std"], float)
    assert info["config"]["length_range"] == [8, 10]


@pytest.mark.parametrize("fault", ["index_without_ids", "tree_node_without_members", "tree_member_listed_twice",
                                   "tree_members_a_string", "model_meta_without_hash",
                                   "model_meta_not_an_object", "kernel_meta_f_zero", "kernel_meta_bandwidths_null",
                                   "kernel_meta_f_float", "kernel_meta_f_bool", "kernel_meta_n_string",
                                   "kernel_meta_n_float"])
def test_malformed_persisted_json_is_data_error(trained, tmp_path, capsys, fault):
    import shutil

    data, kern, model = trained
    if fault == "index_without_ids":
        _write_encodings(tmp_path / "enc", ["a", "b"])
        (tmp_path / "enc" / "index.json").write_text(json.dumps({"sequences": ["a", "b"]}))
        args = ["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "t.json"]
        expected = 'expected {"ids"'
    elif fault == "tree_node_without_members":
        (tmp_path / "t.json").write_text(json.dumps({"roots": [{"id": 0, "children": []}]}))
        args = ["eval", "--tree", tmp_path / "t.json", "--truth", data / "unseen.jsonl", "--out", tmp_path / "s.json"]
        expected = "malformed serialized tree"
    elif fault.startswith("tree_member"):
        # every unseen id under node 0 and the first again under node 1's child, or a string of members
        from mkdmts.mtsdata import load_dataset

        ids = load_dataset(data / "unseen.jsonl", role="unseen").ids()
        roots = ([{"id": 0, "members": ids, "children": []}, {"id": 1, "members": [], "children": [
            {"id": 2, "members": ids[:1], "children": []}]}] if fault == "tree_member_listed_twice"
                 else [{"id": 0, "members": "ab", "children": []}])
        (tmp_path / "t.json").write_text(json.dumps({"roots": roots}))
        args = ["eval", "--tree", tmp_path / "t.json", "--truth", data / "unseen.jsonl", "--out", tmp_path / "s.json"]
        expected = "under two nodes" if fault == "tree_member_listed_twice" else "is not a list"
    elif fault in ("kernel_meta_f_zero", "kernel_meta_bandwidths_null"):
        shutil.copytree(kern, tmp_path / "kern")
        change = {"f": 0} if fault == "kernel_meta_f_zero" else {"bandwidths": None}
        (tmp_path / "kern" / "meta.json").write_text(json.dumps(read_json(kern / "meta.json") | change))
        args = _encode_args(data, tmp_path / "kern", model, tmp_path / "enc")
        expected = "malformed kernel cache metadata"
    elif fault.startswith("kernel_meta"):
        # n and f that are not JSON integers, though int() reads them as counts of this n x 2 cache (f = true, with
        # one-entry lists, as 1 dimension)
        shutil.copytree(kern, tmp_path / "kern")
        meta = read_json(kern / "meta.json")
        change = {"kernel_meta_f_float": {"f": 2.9}, "kernel_meta_n_string": {"n": str(meta["n"])},
                  "kernel_meta_n_float": {"n": meta["n"] + 0.5},
                  "kernel_meta_f_bool": {"f": True, "bandwidths": meta["bandwidths"][:1],
                                         "repair_shift": meta["repair_shift"][:1]}}[fault]
        (tmp_path / "kern" / "meta.json").write_text(json.dumps(meta | change))
        args = ["train", "--manifest", data / "seen.jsonl", "--kernels", tmp_path / "kern", "--k", 2, "--tbeta", 1,
                "--iters", 1, "--out", tmp_path / "model"]
        expected = "malformed kernel cache metadata"
    else:
        shutil.copytree(model, tmp_path / "model")
        meta = read_json(tmp_path / "model" / "meta.json")
        del meta["dataset_hash"]
        damaged, expected = ((meta, "malformed model metadata") if fault == "model_meta_without_hash"
                             else ([meta], "unknown model format None"))
        (tmp_path / "model" / "meta.json").write_text(json.dumps(damaged))
        args = _encode_args(data, kern, tmp_path / "model", tmp_path / "enc")
    capsys.readouterr()
    assert _run(args) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert expected in err


@pytest.mark.parametrize("fault", ["index_is_directory", "config_not_utf8", "manifest_line_not_object",
                                   "manifest_path_is_directory"])
def test_unreadable_input_is_data_error(trained, tmp_path, capsys, fault):
    data, _, _ = trained
    if fault == "index_is_directory":
        (tmp_path / "enc" / "index.json").mkdir(parents=True)
        args = ["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "t.json"]
    elif fault == "config_not_utf8":
        (tmp_path / "synth.json").write_bytes(b'{"seed": "\xff"}')
        args = ["synth", "--config", tmp_path / "synth.json", "--out", tmp_path / "d"]
    else:
        (tmp_path / "seq").mkdir()
        record = 5 if fault == "manifest_line_not_object" else {"id": "a", "path": "seq", "label": 0}
        (tmp_path / "m.jsonl").write_text(json.dumps(record) + "\n")
        args = ["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "k"]
    capsys.readouterr()
    assert _run(args) == 2
    _one_error_line(capsys.readouterr().err, "data error: ")


def test_train_onto_meta_directory_is_data_error(trained, tmp_path, capsys):
    data, kern, _ = trained
    (tmp_path / "model" / "meta.json").mkdir(parents=True)
    capsys.readouterr()
    assert _run(["train", "--manifest", data / "seen.jsonl", "--kernels", kern,
                 "--k", 2, "--tbeta", 1, "--iters", 1, "--out", tmp_path / "model"]) == 2
    _one_error_line(capsys.readouterr().err, "data error: ")


def test_interrupted_encode_rerun_leaves_no_index(trained, tmp_path, monkeypatch, capsys):
    from mkdmts.errors import DataError
    from mkdmts.ioutil import write_matrix

    data, kern, model = trained
    enc = tmp_path / "enc"
    assert _run(_encode_args(data, kern, model, enc)) == 0
    written = []

    def fail_second(path, m):
        if written:
            raise DataError(f"{path}: cannot write (disk full)")
        written.append(path)
        write_matrix(path, m)

    with monkeypatch.context() as patch:
        patch.setattr("mkdmts.evalx.write_matrix", fail_second)
        assert _run(_encode_args(data, kern, model, enc)) == 2
    capsys.readouterr()
    assert _run(["cluster", "--enc", enc, "--out", tmp_path / "t.json"]) == 2
    assert "index.json: file not found" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_encode_onto_index_directory_is_data_error(trained, tmp_path, capsys):
    data, kern, model = trained
    (tmp_path / "enc" / "index.json").mkdir(parents=True)
    capsys.readouterr()
    assert _run(_encode_args(data, kern, model, tmp_path / "enc")) == 2
    _one_error_line(capsys.readouterr().err, "data error: ")


@pytest.mark.parametrize("args,code", [
    (["--version"], 0),
    (["--nope"], 1),
    (["kernels", "--manifest", "missing.jsonl", "--out", "k"], 2),
], ids=["version", "unknown_flag", "missing_manifest"])
def test_process_entry_point_exit_codes(tmp_path, args, code):
    import os
    import subprocess
    import sys

    import mkdmts

    src = str(Path(mkdmts.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "mkdmts.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.startswith("mkdmts 0.1.0") and not proc.stderr
    else:
        _one_error_line(proc.stderr, {1: "usage error: ", 2: "data error: "}[code])


@pytest.mark.parametrize("change", [{"path": 5}, {"label": [1]}, {"label": 1.5}, {"label": True}, {"label": 10**30}],
                         ids=["path_int", "label_list", "label_float", "label_bool", "label_beyond_int64"])
def test_manifest_field_of_wrong_type_is_data_error(trained, tmp_path, capsys, change):
    data, _, _ = trained
    records = [json.loads(line) for line in (data / "seen.jsonl").read_text().splitlines()]
    for rec in records:
        rec["path"] = str(data / rec["path"])
    records[0] |= change
    (tmp_path / "m.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert _run(["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "k", "--bandwidth", 5]) == 2
    _one_error_line(capsys.readouterr().err, "data error: ")
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("name,content", [("score.json", [1]), ("score.json", {"nmi": 0.5})],
                         ids=["score_not_an_object", "eval_without_ce"])
def test_report_on_malformed_run_record_is_data_error(tmp_path, capsys, name, content):
    (tmp_path / name).write_text(json.dumps(content))
    assert _run(["report", "--run", tmp_path]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert name in err


@pytest.mark.parametrize("command,flag,value", [
    ("synth", "--noise", "nan"), ("synth", "--noise", "inf"), ("synth", "--seen-classes", 1),
    ("synth", "--length-min", 5), ("kernels", "--bandwidth", "nan"), ("kernels", "--bandwidth", "inf"),
    ("train", "--tol", "nan"), ("encode", "--threshold", "nan"), ("encode", "--threshold", -0.1),
    ("cluster", "--gamma", "nan"), ("cluster", "--gamma", "inf"), ("cluster", "--dup-eps", "nan"),
])
def test_non_finite_or_out_of_range_value_is_usage_error(trained, tmp_path, capsys, command, flag, value):
    data, kern, model = trained
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--out", out],
        "kernels": ["kernels", "--manifest", data / "seen.jsonl", "--out", out],
        "train": ["train", "--manifest", data / "seen.jsonl", "--kernels", kern, "--k", 2, "--tbeta", 1,
                  "--iters", 2, "--out", out],
        "encode": _encode_args(data, kern, model, out),
        "cluster": ["cluster", "--enc", tmp_path / "enc", "--out", out / "t.json"],
    }[command]
    if command == "cluster":
        _write_encodings(tmp_path / "enc", ["a", "b", "c"])
    capsys.readouterr()
    assert _run(args + [flag, value]) == 1
    _one_error_line(capsys.readouterr().err, "usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("victim", ["kernels", "model", "encoding"])
def test_non_finite_matrix_file_is_data_error(trained, tmp_path, capsys, victim):
    import shutil

    import numpy as np

    from mkdmts.ioutil import read_matrix, write_matrix

    data, kern, model = trained
    shutil.copytree(kern, tmp_path / "kern")
    shutil.copytree(model, tmp_path / "model")
    _write_encodings(tmp_path / "enc", ["a", "b", "c"])
    path = {"kernels": tmp_path / "kern" / "dim000.bin", "model": tmp_path / "model" / "sample_weights.bin",
            "encoding": tmp_path / "enc" / "b.R.bin"}[victim]
    m = read_matrix(path)
    m[0, 0] = np.nan
    write_matrix(path, m)
    out = tmp_path / "out"
    args = {
        "kernels": ["train", "--manifest", data / "seen.jsonl", "--kernels", tmp_path / "kern", "--k", 2,
                    "--tbeta", 1, "--iters", 2, "--out", out],
        "model": _encode_args(data, kern, tmp_path / "model", out),
        "encoding": ["cluster", "--enc", tmp_path / "enc", "--out", out / "t.json"],
    }[victim]
    capsys.readouterr()
    assert _run(args) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert f"{path.name}: non-finite matrix values" in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["negative", "asymmetric"])
def test_impossible_gram_values_are_data_error(trained, tmp_path, capsys, damage):
    # finite values no Gaussian-of-DTW Gram can hold: train and encode refuse them, kernels rebuilds
    import shutil

    from mkdmts.ioutil import read_matrix, write_matrix

    data, kern, model = trained
    shutil.copytree(kern, tmp_path / "kern")
    path = tmp_path / "kern" / "dim000.bin"
    healthy = path.read_bytes()
    m = read_matrix(path)
    if damage == "negative":
        m[:] = -1.0
    else:
        m[0, 1] += 1e-3
    write_matrix(path, m)
    out = tmp_path / "out"
    for args in (["train", "--manifest", data / "seen.jsonl", "--kernels", tmp_path / "kern", "--k", 2,
                  "--tbeta", 1, "--iters", 2, "--out", out], _encode_args(data, tmp_path / "kern", model, out)):
        capsys.readouterr()
        assert _run(args) == 2
        err = capsys.readouterr().err
        _one_error_line(err, "data error: ")
        assert "dimension 0 Gram" in err
        assert not out.exists()
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", tmp_path / "kern", "--bandwidth", 5]) == 0
    assert path.read_bytes() == healthy


@pytest.mark.parametrize("damage,code,expected", [
    ({"t_x": 0}, 2, "t_x must be an integer of at least 1, got 0"),
    ({"t_x": -3}, 2, "t_x must be an integer of at least 1, got -3"),
    ({"t_x": True}, 2, "t_x must be an integer of at least 1, got True"),
    ({"t_x": 2.7}, 2, "t_x must be an integer of at least 1, got 2.7"),
    ({"k": 2.5}, 2, "k must be an integer of at least 1, got 2.5"),
    ("negative_weight", 2, "dictionary weights must be non-negative"),
    ("huge_weights", 3, "atom Gram or atom-data cross values are not finite"),
], ids=["tx_zero", "tx_negative", "tx_bool", "tx_float", "k_float", "negative_weight", "huge_weights"])
def test_damaged_model_is_one_line_error(trained, tmp_path, capsys, damage, code, expected):
    import shutil

    from mkdmts.ioutil import read_matrix, write_matrix

    data, kern, model = trained
    shutil.copytree(model, tmp_path / "model")
    if isinstance(damage, dict):
        meta = read_json(model / "meta.json")
        (tmp_path / "model" / "meta.json").write_text(json.dumps(meta | damage))
    else:
        path = tmp_path / "model" / "sample_weights.bin"
        m = read_matrix(path)
        if damage == "negative_weight":
            m[0, 0] = -1e-3
        else:
            m[:] = 1e300
        write_matrix(path, m)
    out = tmp_path / "enc"
    capsys.readouterr()
    assert _run(_encode_args(data, kern, tmp_path / "model", out)) == code
    err = capsys.readouterr().err
    _one_error_line(err, {2: "data error: ", 3: "numerical error: "}[code])
    assert expected in err
    assert not out.exists()


def test_encode_with_kernels_of_another_bandwidth_is_data_error(trained, tmp_path, capsys):
    data, _, model = trained
    kern50 = tmp_path / "kern50"
    assert _run(["kernels", "--manifest", data / "seen.jsonl", "--out", kern50, "--bandwidth", 50]) == 0
    capsys.readouterr()
    assert _run(_encode_args(data, kern50, model, tmp_path / "enc")) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "bandwidths [5.0, 5.0]" in err and "[50.0, 50.0]" in err
    assert not (tmp_path / "enc").exists()


# Every subcommand's flags, option strings -> (dest, type).  build_parser adds
# the numeric knobs from the cli._*_FLAGS tables; this pins what they produce.
_CLI_SURFACE = {
    "synth": {
        "--config": ("config", None), "--dims": ("dims", "int"), "--length-max": ("length_max", "int"),
        "--length-min": ("length_min", "int"), "--noise": ("noise", "float"), "--out": ("out", None),
        "--samples": ("samples", "int"), "--seed": ("seed", "int"), "--seen-classes": ("seen_classes", "int"),
        "--unseen-classes": ("unseen_classes", "int"), "-v --verbose": ("verbose", None),
    },
    "kernels": {
        "--bandwidth": ("bandwidth", None), "--config": ("config", None), "--manifest": ("manifest", None),
        "--out": ("out", None), "-v --verbose": ("verbose", None),
    },
    "train": {
        "--config": ("config", None), "--iters": ("iters", "int"), "--k": ("k", "int"),
        "--kernels": ("kernels", None), "--manifest": ("manifest", None), "--out": ("out", None),
        "--seed": ("seed", "int"), "--ta": ("ta", "int"), "--tbeta": ("tbeta", "int"), "--tol": ("tol", "float"),
        "--tune": ("tune", None), "--tx": ("tx", "int"), "-v --verbose": ("verbose", None),
    },
    "encode": {
        "--config": ("config", None), "--kernels": ("kernels", None), "--manifest": ("manifest", None),
        "--model": ("model", None), "--out": ("out", None), "--seen-manifest": ("seen_manifest", None),
        "--threshold": ("threshold", "float"), "--tx": ("tx", "int"), "-v --verbose": ("verbose", None),
    },
    "cluster": {
        "--config": ("config", None), "--dot": ("dot", None), "--dup-eps": ("dup_eps", "float"),
        "--enc": ("enc", None), "--gamma": ("gamma", "float"), "--kclust": ("kclust", "float"),
        "--krmv": ("krmv", "float"), "--order": ("order", None), "--out": ("out", None),
        "--split-min": ("split_min", "int"), "-v --verbose": ("verbose", None),
    },
    "eval": {
        "--config": ("config", None), "--out": ("out", None), "--tree": ("tree", None), "--truth": ("truth", None),
        "-v --verbose": ("verbose", None),
    },
    "report": {
        "--config": ("config", None), "--run": ("run", None), "-v --verbose": ("verbose", None),
    },
}


def test_cli_surface_pinned():
    import argparse

    from mkdmts.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {" ".join(a.option_strings): (a.dest, getattr(a.type, "__name__", None))
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }
    assert surface == _CLI_SURFACE


def test_cluster_dot_that_cannot_be_written_leaves_no_tree(tmp_path, capsys):
    _write_encodings(tmp_path / "enc", ["a", "b", "c"])
    out = tmp_path / "t" / "tree.json"
    assert _run(["cluster", "--enc", tmp_path / "enc", "--out", out, "--dot", tmp_path / "nodir" / "tree.dot"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "tree.dot: cannot write" in err
    assert not out.exists() and not (out.parent / "run_info.json").exists()


@pytest.mark.parametrize("root_id,child_id", [([0], 1), ({"a": 0}, 1), (None, 1), (True, 1), (1.0, 1), ("0", 1),
                                              (0, None)],
                         ids=["list", "object", "null", "bool", "float", "string", "child_null"])
def test_eval_node_id_that_is_not_an_integer_is_data_error(trained, tmp_path, capsys, root_id, child_id):
    from mkdmts.mtsdata import load_dataset

    data, _, _ = trained
    ids = load_dataset(data / "unseen.jsonl", role="unseen").ids()
    tree = {"roots": [{"id": root_id, "members": ids[1:], "children": [
        {"id": child_id, "members": ids[:1], "children": []}]}]}
    (tmp_path / "t.json").write_text(json.dumps(tree))
    capsys.readouterr()
    assert _run(["eval", "--tree", tmp_path / "t.json", "--truth", data / "unseen.jsonl",
                 "--out", tmp_path / "s.json"]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "data error: ")
    assert "malformed serialized tree" in err and "is not an integer" in err
    assert not (tmp_path / "s.json").exists()


def _one_printable_data_error(err):
    """stderr holds one printable ``data error:`` line and nothing else."""
    _one_error_line(err, "data error: ")
    assert err.endswith("\n") and len(err.splitlines()) == 1 and err[:-1].isprintable(), repr(err)


@pytest.mark.parametrize("command", ["kernels", "train", "cluster", "encode"])
def test_nul_byte_in_a_path_or_id_is_one_printable_data_error(trained, tmp_path, capsys, command):
    data, kern, model = trained
    if command == "kernels":
        # a manifest record whose sequence path holds a NUL byte
        (tmp_path / "m.jsonl").write_text(json.dumps({"id": "a", "path": "a\u0000.csv", "label": 0}) + "\n")
        args = ["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "out"]
    elif command == "train":
        # a --config file whose tune grid path holds a NUL byte
        (tmp_path / "c.json").write_text(json.dumps({"tune": "grid\u0000.json"}))
        args = ["train", "--config", tmp_path / "c.json", "--manifest", data / "seen.jsonl", "--kernels", kern,
                "--out", tmp_path / "out"]
    elif command == "cluster":
        _write_encodings(tmp_path / "enc", ["a", "b"])
        write_json(tmp_path / "enc" / "index.json", {"ids": ["a\u0000b", "b"]})
        args = ["cluster", "--enc", tmp_path / "enc", "--out", tmp_path / "out" / "t.json"]
    else:
        # an unseen manifest whose sequence id holds a NUL byte
        first = json.loads((data / "unseen.jsonl").read_text().splitlines()[0])
        record = {"id": "x\u0000y", "path": str(data / first["path"])}
        (tmp_path / "m.jsonl").write_text(json.dumps(record) + "\n")
        args = ["encode", "--model", model, "--kernels", kern, "--seen-manifest", data / "seen.jsonl",
                "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "out"]
    capsys.readouterr()
    assert _run(args) == 2
    err = capsys.readouterr().err
    _one_printable_data_error(err)
    if command in ("cluster", "encode"):
        assert "\\x00" in err and "is not a safe file name" in err
    else:
        assert "\\x00" in err and "embedded null byte" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "manifest_line"])
def test_json_nested_beyond_the_parser_limit_is_one_line_data_error(tmp_path, capsys, where):
    deep = "[" * 100000 + "]" * 100000
    if where == "config":
        (tmp_path / "c.json").write_text(deep)
        args = ["synth", "--config", tmp_path / "c.json", "--out", tmp_path / "out"]
    else:
        (tmp_path / "m.jsonl").write_text(deep + "\n")
        args = ["kernels", "--manifest", tmp_path / "m.jsonl", "--out", tmp_path / "out"]
    assert _run(args) == 2
    err = capsys.readouterr().err
    _one_printable_data_error(err)
    assert "invalid JSON (maximum recursion depth exceeded" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", [
    "read_json", "read_matrix", "load_csv", "load_dataset", "load_kernelset", "load_model", "index_ids", "report_part",
    "tune_grid",
])
def test_path_holding_a_newline_is_shown_as_its_repr(trained, tmp_path, capsys, reader):
    data, kern, model = trained
    odd = tmp_path / "nl" / "a\nb"  # every reader below is given a path through this name
    odd.parent.mkdir()
    code, prefix, expected = 2, "data error: ", {
        "read_json": "invalid JSON", "read_matrix": "truncated matrix file", "load_csv": "not a number",
        "load_dataset": "line 1: invalid JSON", "load_kernelset": "unknown kernel cache format",
        "load_model": "unknown model format", "index_ids": "lists no encoded sequences", "report_part": "cannot render",
    }.get(reader)
    if reader == "read_json":
        odd.write_text("not JSON")
        args = ["synth", "--config", odd, "--out", tmp_path / "out"]
    elif reader == "read_matrix":
        _write_encodings(odd, ["a", "b"])
        (odd / "a.R.bin").write_bytes(b"\0" * 8)
        args = ["cluster", "--enc", odd, "--out", tmp_path / "out" / "t.json"]
    elif reader == "load_csv":
        odd.write_text("x,1\n")
        (tmp_path / "nl" / "m.jsonl").write_text(json.dumps({"id": "a", "path": "a\nb", "label": 0}) + "\n")
        args = ["kernels", "--manifest", tmp_path / "nl" / "m.jsonl", "--out", tmp_path / "out"]
    elif reader == "load_dataset":
        odd.write_text("not JSON\n")
        args = ["kernels", "--manifest", odd, "--out", tmp_path / "out"]
    elif reader in ("load_kernelset", "load_model"):
        odd.mkdir()
        write_json(odd / "meta.json", {"format": "other"})
        if reader == "load_kernelset":
            args = ["train", "--manifest", data / "seen.jsonl", "--kernels", odd, "--out", tmp_path / "out"]
        else:
            args = _encode_args(data, kern, odd, tmp_path / "out")
    elif reader == "index_ids":
        _write_encodings(odd, [])
        args = ["cluster", "--enc", odd, "--out", tmp_path / "out" / "t.json"]
    elif reader == "report_part":
        odd.mkdir()
        write_json(odd / "score.json", {"ce": "low", "nmi": 0.5, "num_clusters": 2})
        args = ["report", "--run", odd]
    else:
        write_json(odd, {"grid": []})
        args = ["train", "--manifest", data / "seen.jsonl", "--kernels", kern, "--tune", odd, "--out", tmp_path / "out"]
        code, prefix, expected = 1, "usage error: ", "expected {\"grid\""
    capsys.readouterr()
    assert _run(args) == code
    err = capsys.readouterr().err
    _one_error_line(err, prefix)
    message = err.splitlines()[0]
    assert message.isprintable() and "a\\nb" in message and expected in message, repr(err)
    assert not (tmp_path / "out").exists()
