import builtins
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hatedetect import cli
from hatedetect.classifier import HateClassifier
from hatedetect.corpus import HATE, NON_HATE, load_split_manifests

from conftest import (
    checkpoint_entries,
    edit_zip_field,
    edited_manifest,
    make_keyword_examples,
    make_random_matrix,
    write_entries,
)


def write_dataset(path, n=80, seed=0):
    examples = make_keyword_examples(n, seed=seed)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tweet", "klass"])
        for example in examples:
            writer.writerow([example.text, example.raw_label])


def write_config(directory, name="config.json", **overrides):
    config = {
        "seed": 11,
        "output_dir": str(directory / "run"),
        "datasets": [
            {
                "name": "toy",
                "path": "toy.csv",
                "text_column": "tweet",
                "label_column": "klass",
                "label_mapping": {"flagged": HATE, "clean": NON_HATE},
            }
        ],
        "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True},
        "combine": {"balanced": True, "per_class_cap": None},
        "pipeline": {"stopwords": [], "max_len": 16},
        "cbow": {"window": 3, "dim": 8, "negative": 3, "epochs": 2, "min_count": 1,
                 "subsample": 0.0},
        "model": {"hidden_size": 4, "dense1_size": 4, "batch_size": 16, "epochs": 2,
                  "learning_rate": 0.005, "embeddings_trainable": True},
    }
    config.update(overrides)
    path = directory / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


@pytest.fixture()
def workspace(tmp_path):
    write_dataset(tmp_path / "toy.csv")
    config_path = write_config(tmp_path)
    return tmp_path, config_path


def run_cli(*argv):
    return cli.main(list(argv))


class TestParse:
    def test_embed_nearest(self):
        args = cli.build_parser().parse_args(["embed-nearest", "--word", "fc*", "--k", "10",
                                              "--embeddings", "e.txt"])
        assert args.verb == "embed-nearest"
        assert args.word == "fc*"
        assert args.k == 10

    def test_missing_required_argument(self, capsys):
        assert run_cli("train") == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_verb(self, capsys):
        assert run_cli("frobnicate") == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, tmp_path):
        # main builds its parser once per process; a call leaves no value in it.
        parser = cli._shared_parser()
        absent = str(tmp_path / "absent.txt")
        assert run_cli("embed-nearest", "--word", "w", "--k", "3", "--embeddings", absent) == 2
        assert run_cli("frobnicate") == 2
        assert cli._shared_parser() is parser
        args = parser.parse_args(["embed-nearest", "--word", "w", "--embeddings", "e.txt"])
        assert args.k == 10 and not args.dry_run


class TestPrepare:
    def test_writes_manifests_and_stats(self, workspace, capsys):
        tmp_path, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path)) == 0
        prepared = tmp_path / "run" / "prepared"
        for name in ("train.csv", "validation.csv", "test.csv", "split.json", "stats.json"):
            assert (prepared / name).exists()
        stats = json.loads((prepared / "stats.json").read_text())
        assert stats["combined"]["hate"] == stats["combined"]["nonhate"]
        assert (tmp_path / "run" / "config.json").read_bytes() == config_path.read_bytes()

    def test_dry_run_writes_nothing(self, workspace, capsys):
        tmp_path, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path), "--dry-run") == 0
        assert not (tmp_path / "run").exists()
        assert "dry run" in capsys.readouterr().out

    def test_seed_override_recorded(self, workspace):
        tmp_path, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path), "--seed", "99") == 0
        overrides = json.loads((tmp_path / "run" / "overrides.json").read_text())
        assert overrides == {"seed": 99}

    def test_unchanged_config_and_overrides_are_not_rewritten(self, workspace):
        tmp_path, config_path = workspace
        recorded = [tmp_path / "run" / "config.json", tmp_path / "run" / "overrides.json"]
        assert run_cli("prepare", "--config", str(config_path), "--seed", "99") == 0
        inodes = [os.stat(path).st_ino for path in recorded]
        assert run_cli("prepare", "--config", str(config_path), "--seed", "99") == 0
        assert [os.stat(path).st_ino for path in recorded] == inodes
        # A changed config and changed overrides replace their files.
        config_path.write_text(config_path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert run_cli("prepare", "--config", str(config_path), "--seed", "98") == 0
        for path, inode in zip(recorded, inodes):
            assert os.stat(path).st_ino != inode, path.name
        assert recorded[0].read_bytes() == config_path.read_bytes()
        assert json.loads(recorded[1].read_text()) == {"seed": 98}

    def test_call_without_overrides_removes_the_earlier_record(self, workspace):
        tmp_path, config_path = workspace
        overrides = tmp_path / "run" / "overrides.json"
        assert run_cli("prepare", "--config", str(config_path), "--seed", "99") == 0
        assert json.loads(overrides.read_text()) == {"seed": 99}
        assert run_cli("prepare", "--config", str(config_path)) == 0
        assert not overrides.exists()
        assert json.loads((tmp_path / "run" / "prepared" / "split.json").read_text())["seed"] == 11

    def test_bad_ratios_exit_validation(self, tmp_path, capsys):
        write_dataset(tmp_path / "toy.csv")
        config_path = write_config(tmp_path, split={"ratios": [0.5, 0.5, 0.5]})
        assert run_cli("prepare", "--config", str(config_path)) == 3

    def test_missing_dataset_exit_io(self, tmp_path):
        config_path = write_config(tmp_path)  # toy.csv never written
        assert run_cli("prepare", "--config", str(config_path)) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("model", "hidden_sise", 8),
        ("cbow", "dimm", 5),
        ("pipeline", "stop_words", []),
        ("pipeline", "max_len", "50"),
        ("model", "epochs", True),
        ("cbow", "dim", 8.0),
        ("model", "max_len", 16),  # the pipeline's max_len is the model's
        ("model", "embedding_dim", 8),  # the vector file's width is the model's
        ("model", "pipeline", {}),
        ("model", "sequence_repr", "flatten"),  # "final" is the only representation
        ("split", "ratios", "abc"),
        ("split", "ratios", [0.5, 0.5, 0.5]),
        ("split", "ratios", ["0.6", "0.2", "0.2"]),
        ("split", "stratified", "false"),
        ("split", "stratifed", True),
        ("combine", "per_class_cap", "x"),
        ("combine", "per_class_cap", 2.5),
        ("combine", "per_class_cap", 0),
        ("combine", "balanced", "false"),
        ("pipeline", "stopwords", [1, "a"]),
        ("pipeline", "stopwords", [[1]]),
    ])
    def test_bad_config_key_exit_validation(self, tmp_path, capsys, section, key, value):
        write_dataset(tmp_path / "toy.csv")
        config = json.loads(write_config(tmp_path, name="base.json").read_text())
        config[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("prepare", "--config", str(path)) == 3
        err = capsys.readouterr().err
        assert section in err and key in err
        assert not (tmp_path / "run").exists()

    # Keys outside the dict-valued sections: top-level keys and the entries
    # of the datasets list. A value of None deletes the key.
    @pytest.mark.parametrize("section, key, value", [
        (None, "split", 5),
        (None, "datasets", 5),
        (None, "modle", {"hidden_size": 4}),
        (None, "seed", 1.7),
        (None, "seed", True),
        ("datasets", "path", None),
        ("datasets", "label_colum", "klass"),
        ("datasets", "label_mapping", [1]),
        ("datasets", "label_mapping_file", 5),
        ("datasets", "label_mapping_file", "mapping.json"),  # beside an inline label_mapping
    ])
    def test_bad_config_entry_exit_validation(self, tmp_path, capsys, section, key, value):
        write_dataset(tmp_path / "toy.csv")
        config = json.loads(write_config(tmp_path, name="base.json").read_text())
        entry = config if section is None else config[section][0]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("prepare", "--config", str(path), "--dry-run") == 3
        err = capsys.readouterr().err
        assert (section or key) in err and key in err
        assert run_cli("prepare", "--config", str(path)) == 3
        assert not (tmp_path / "run").exists()

    def test_bad_config_value_names_the_file(self, tmp_path, capsys):
        write_dataset(tmp_path / "toy.csv")
        (tmp_path / "mapping.json").write_text('{"flagged": "hate", "clean": "spam"}')
        path = write_config(tmp_path, model={"hidden_size": "4"})
        assert run_cli("prepare", "--config", str(path), "--dry-run") == 3
        assert f"error: run config {path}: config key model.hidden_size" in capsys.readouterr().err
        path = write_config(tmp_path, datasets=[{
            "name": "toy", "path": "toy.csv", "text_column": "tweet", "label_column": "klass",
            "label_mapping_file": "mapping.json"}])
        assert run_cli("prepare", "--config", str(path), "--dry-run") == 3
        assert (f"error: run config {path}: label mapping file {tmp_path / 'mapping.json'}: "
                "label mapping sends 'clean' to 'spam'") in capsys.readouterr().err

    def test_final_sequence_repr_is_read_and_dropped(self, tmp_path):
        # Run configs may still name the one sequence representation.
        model = json.loads(write_config(tmp_path, name="base.json").read_text())["model"]
        older = write_config(tmp_path, name="older.json",
                             model={**model, "sequence_repr": "final"})
        expected = cli.RunConfig.load(write_config(tmp_path)).model
        assert cli.RunConfig.load(older).model == expected

    @pytest.mark.parametrize("in_file", [True, False])
    def test_label_the_mapping_lacks_names_both_files(self, tmp_path, capsys, in_file):
        write_dataset(tmp_path / "toy.csv")
        (tmp_path / "mapping.json").write_text(f'{{"flagged": "{HATE}"}}')
        entry = {"name": "toy", "path": "toy.csv", "text_column": "tweet", "label_column": "klass"}
        if in_file:
            entry["label_mapping_file"] = "mapping.json"
        else:
            entry["label_mapping"] = {"flagged": HATE}
        path = write_config(tmp_path, datasets=[entry])
        source = tmp_path / "mapping.json" if in_file else path
        assert run_cli("prepare", "--config", str(path), "--dry-run") == 3
        assert re.search(re.escape(f"dataset {tmp_path / 'toy.csv'}:") + r"\d+: unmapped raw label "
                         + re.escape(f"'clean', not in the label mapping of {source}"),
                         capsys.readouterr().err)

    def test_missing_seed_rejected(self, tmp_path):
        write_dataset(tmp_path / "toy.csv")
        path = tmp_path / "config.json"
        config = json.loads(write_config(tmp_path, name="tmp.json").read_text())
        del config["seed"]
        path.write_text(json.dumps(config))
        assert run_cli("prepare", "--config", str(path)) == 3


def run_full_pipeline(config_path):
    assert run_cli("prepare", "--config", str(config_path)) == 0
    assert run_cli("embed-train", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path)) == 0
    assert run_cli("evaluate", "--config", str(config_path)) == 0


def damaged_checkpoint(damage):
    """A probe that damages the trained checkpoint in place by damage(path)."""
    def probe(tmp_path, run_dir, config_path):
        path = run_dir / "models" / "model.ckpt"
        damage(path)
        return ["explain", "--config", str(config_path), "--out", str(run_dir),
                "--text", "w00 scum"], path
    return probe


def doctored_checkpoint(edit):
    """A probe that rewrites the trained checkpoint's manifest by edit(manifest)."""
    return damaged_checkpoint(lambda path: edited_manifest(path, path, edit))


def deflated_checkpoint_entry(name):
    """A probe that deflates one entry of the trained checkpoint."""
    return damaged_checkpoint(
        lambda path: write_entries(path, checkpoint_entries(path), deflated={name}))


def not_utf8_at_line_3(path):
    """Put a 0xff byte, which no UTF-8 text holds, at the start of line 3."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))


def doctored_sidecar(edit):
    """A probe that replaces the prepared split.json by edit(sidecar)."""
    def probe(tmp_path, run_dir, config_path):
        path = run_dir / "prepared" / "split.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["evaluate", "--config", str(config_path), "--out", str(run_dir)], path
    return probe


# JSON nested deeper than the interpreter's recursion limit.
DEEP_JSON = '{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}"


def deep_split_json(tmp_path, run_dir, config_path):
    path = run_dir / "prepared" / "split.json"
    path.write_text(DEEP_JSON)
    return ["evaluate", "--config", str(config_path), "--out", str(run_dir)], path


def deep_checkpoint_manifest(path):
    entries = checkpoint_entries(path)
    entries["manifest.json"] = DEEP_JSON
    write_entries(path, entries)


def short_prediction_row(tmp_path, run_dir, config_path):
    predictions, labels = tmp_path / "p.csv", tmp_path / "l.csv"
    predictions.write_text("id,score\na,0.5\nb\n")
    labels.write_text("id,label\na,hate\nb,nonhate\n")
    return ["evaluate", "--config", str(config_path), "--out", str(run_dir),
            "--predictions", str(predictions), "--labels", str(labels)], predictions


def short_label_row(tmp_path, run_dir, config_path):
    predictions, labels = tmp_path / "p.csv", tmp_path / "l.csv"
    predictions.write_text("id,score\na,0.5\nb,0.2\n")
    labels.write_text("id,label\na,hate\nb\n")
    return ["evaluate", "--config", str(config_path), "--out", str(run_dir),
            "--predictions", str(predictions), "--labels", str(labels)], labels


def vectors_not_utf8(tmp_path, run_dir, config_path):
    path = run_dir / "embeddings" / "vectors.txt"
    not_utf8_at_line_3(path)
    return ["embed-nearest", "--embeddings", str(path), "--word", "w00", "--dry-run"], f"{path}:3"


def dataset_not_utf8(tmp_path, run_dir, config_path):
    dataset = tmp_path / "toy.csv"
    write_dataset(dataset)
    not_utf8_at_line_3(dataset)
    return ["prepare", "--config", str(write_config(tmp_path))], f"{dataset}:3"


def split_csv_not_utf8(tmp_path, run_dir, config_path):
    path = run_dir / "prepared" / "test.csv"
    not_utf8_at_line_3(path)
    return ["evaluate", "--config", str(config_path), "--out", str(run_dir)], f"{path}:3"


def corpus_not_utf8(tmp_path, run_dir, config_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"w01 w02 w03\n\xffw02 w03 w01\n")
    return (["embed-train", "--config", str(config_path), "--out", str(run_dir),
             "--corpus", str(corpus)], f"{corpus}:2: not UTF-8")


def run_config_sequence_repr_flatten(tmp_path, run_dir, config_path):
    model = {**json.loads(config_path.read_text())["model"], "sequence_repr": "flatten"}
    path = write_config(tmp_path, name="flatten.json", model=model)
    return ["train", "--config", str(path), "--out", str(run_dir), "--dry-run"], path


def oversized_dataset_field(tmp_path, run_dir, config_path):
    dataset = tmp_path / "toy.csv"
    write_dataset(dataset)
    with open(dataset, "a", encoding="utf-8") as handle:
        handle.write("x" * (129 * 1024) + ",clean\n")  # over the csv module's 128 KiB limit
    return ["prepare", "--config", str(write_config(tmp_path))], dataset


MALFORMED_INPUTS = {
    "hidden_size_a_string": doctored_checkpoint(
        lambda m: m["model_config"].update(hidden_size="4")),
    "unknown_pipeline_key": doctored_checkpoint(
        lambda m: m["model_config"]["pipeline"].update(stop_words=[])),
    "history_record_missing_keys": doctored_checkpoint(
        lambda m: m["history"]["records"][0].clear()),
    "model_config_not_an_object": doctored_checkpoint(
        lambda m: m.update(model_config=[4, 4])),
    "tensor_shape_not_a_list": doctored_checkpoint(
        lambda m: m["tensors"][0].update(shape=5)),
    "checkpoint_format_1_0": doctored_checkpoint(lambda m: m.update(format_version="1.0")),
    "checkpoint_sequence_repr_flatten": doctored_checkpoint(
        lambda m: m["model_config"].update(sequence_repr="flatten")),
    "run_config_sequence_repr_flatten": run_config_sequence_repr_flatten,
    "checkpoint_params_deflated": deflated_checkpoint_entry("params.bin"),
    "checkpoint_manifest_deflated": deflated_checkpoint_entry("manifest.json"),
    "checkpoint_central_directory_offset_past_its_place": damaged_checkpoint(
        lambda path: edit_zip_field(path, None, 16, "<I", lambda offset: offset + 5000)),
    "checkpoint_manifest_nested_too_deep": damaged_checkpoint(deep_checkpoint_manifest),
    "split_json_not_an_object": doctored_sidecar(lambda sidecar: [sidecar]),
    "split_json_nested_too_deep": deep_split_json,
    "split_json_ratios_not_a_list": doctored_sidecar(lambda sidecar: {**sidecar, "ratios": 0.6}),
    "prediction_row_without_score": short_prediction_row,
    "label_row_without_label": short_label_row,
    "dataset_field_over_128_kib": oversized_dataset_field,
    "vectors_not_utf8": vectors_not_utf8,
    "dataset_not_utf8": dataset_not_utf8,
    "split_csv_not_utf8": split_csv_not_utf8,
    "corpus_not_utf8": corpus_not_utf8,
}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A prepared, embedded and trained run, shared read-only by the probes."""
    tmp_path = tmp_path_factory.mktemp("trained")
    write_dataset(tmp_path / "toy.csv")
    config_path = write_config(tmp_path)
    for verb in ("prepare", "embed-train", "train"):
        assert run_cli(verb, "--config", str(config_path)) == 0
    return tmp_path / "run", config_path


class TestMalformedInputs:
    @pytest.mark.parametrize("probe", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
    def test_exits_validation_naming_the_file(self, trained_run, tmp_path, capsys, probe):
        source, config_path = trained_run
        run_dir = tmp_path / "run"
        shutil.copytree(source, run_dir)
        argv, named = probe(tmp_path, run_dir, config_path)
        capsys.readouterr()
        assert run_cli(*argv) == 3
        assert str(named) in capsys.readouterr().err


class TestLogging:
    def test_cli_logs_progress_to_stderr(self, workspace):
        """Run as a program, the CLI sets up logging itself: the per-epoch
        CBOW lines reach stderr."""
        tmp_path, config_path = workspace
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("w01 w02 w03 w04\nw02 w03 w05 w01\n", encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "hatedetect.cli", "embed-train", "--config", str(config_path),
             "--corpus", str(corpus)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "cbow epoch 0" in done.stderr
        assert "cbow epoch 1" in done.stderr
        assert "trained" in done.stdout


class TestPipeline:
    def test_end_to_end(self, workspace, capsys):
        tmp_path, config_path = workspace
        # The toy model's test scores lie within 0.002 of 0.5; at this
        # threshold some of them change class against 0.5.
        threshold = 0.5005
        config = json.loads(config_path.read_text())
        config["model"]["threshold"] = threshold
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_full_pipeline(config_path)
        run_dir = tmp_path / "run"
        assert (run_dir / "embeddings" / "vectors.txt").exists()
        assert (run_dir / "embeddings" / "training_log.txt").exists()
        assert (run_dir / "models" / "model.ckpt").exists()
        history = json.loads((run_dir / "models" / "history.json").read_text())
        assert list(history) == ["records", "selected_epoch"]
        assert [list(record) for record in history["records"]] == [
            ["epoch", "train_loss", "validation_loss", "validation_weighted_f1"]
        ] * len(history["records"])
        report = json.loads((run_dir / "reports" / "metrics.json").read_text())
        assert 0.0 <= report["weighted"]["f1"] <= 1.0
        # predictions.csv holds the scores the report was computed from
        test = load_split_manifests(run_dir / "prepared").test
        with open(run_dir / "reports" / "predictions.csv", newline="", encoding="utf-8") as handle:
            written = {row["id"]: float(row["score"]) for row in csv.DictReader(handle)}
        scores = HateClassifier.load(run_dir / "models" / "model.ckpt").predict(
            [example.text for example in test])
        assert written == {example.id: float(s) for example, s in zip(test, scores)}
        assert any(0.5 <= s < threshold for s in scores)

        # external scoring of the exported predictions reproduces the report,
        # at the model's threshold
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--config", str(config_path),
            "--predictions", str(run_dir / "reports" / "predictions.csv"),
            "--labels", str(run_dir / "reports" / "labels.csv"),
        ) == 0
        rescored = json.loads((run_dir / "reports" / "metrics.json").read_text())
        assert rescored == report

        # evaluate reads only the test split
        for name in ("train", "validation"):
            (run_dir / "prepared" / f"{name}.csv").unlink()
        assert run_cli("evaluate", "--config", str(config_path)) == 0
        assert json.loads((run_dir / "reports" / "metrics.json").read_text()) == report

    def test_explain_and_nearest(self, workspace, capsys, monkeypatch):
        tmp_path, config_path = workspace
        run_full_pipeline(config_path)
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run_cli(
            "explain", "--config", str(config_path),
            "--text", "w00 scum w01 w02", "--samples", "80",
        ) == 0
        assert (run_dir / "explanations" / "explanation.json").exists()
        assert (run_dir / "explanations" / "explanation.html").exists()

        # the dry run reports what explain reads: at most max_len (16) tokens
        capsys.readouterr()
        long_text = " ".join(f"w{i % 20:02d}" for i in range(40))
        assert run_cli("explain", "--config", str(config_path), "--text", long_text,
                       "--dry-run") == 0
        assert "explain would read 16 tokens" in capsys.readouterr().out

        # a model that scores NaN is refused before anything is written
        written = (run_dir / "explanations" / "explanation.json").read_bytes()
        monkeypatch.setattr(HateClassifier, "predict_tokens",
                            lambda self, sequences: np.full(len(sequences), np.nan))
        assert run_cli(
            "explain", "--config", str(config_path), "--text", "w00 scum", "--samples", "80",
        ) == 3
        assert "non-finite" in capsys.readouterr().err
        assert (run_dir / "explanations" / "explanation.json").read_bytes() == written
        monkeypatch.undo()

        capsys.readouterr()
        assert run_cli(
            "embed-nearest", "--embeddings", str(run_dir / "embeddings" / "vectors.txt"),
            "--word", "scum", "--k", "3",
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(lines) == 3

    def test_sweep_activation_three_rows(self, workspace, capsys):
        tmp_path, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path)) == 0
        assert run_cli("embed-train", "--config", str(config_path)) == 0
        assert run_cli("sweep-activation", "--config", str(config_path)) == 0
        rows = json.loads((tmp_path / "run" / "reports" / "activation_sweep.json").read_text())
        assert sorted(r["activation"] for r in rows) == ["identity", "relu", "sigmoid"]
        table = (tmp_path / "run" / "reports" / "activation_sweep.txt").read_text()
        assert len(table.strip().splitlines()) == 4  # header + 3 rows

    def test_train_takes_width_from_vector_file(self, workspace, capsys):
        # cbow.dim is left at its default (300); the vectors are 16 wide
        tmp_path, _ = workspace
        config = json.loads(write_config(tmp_path, name="base.json").read_text())
        del config["cbow"]["dim"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("prepare", "--config", str(config_path)) == 0
        tokens = sorted({t for e in make_keyword_examples(80) for t in e.text.split()})
        vectors = tmp_path / "run" / "embeddings" / "vectors.txt"
        vectors.parent.mkdir()
        make_random_matrix(tokens, dim=16, seed=0).save_text(vectors)
        capsys.readouterr()
        assert run_cli("train", "--config", str(config_path), "--dry-run") == 0
        assert f"model with {len(tokens) + 2} x 16 embeddings" in capsys.readouterr().out
        assert run_cli("train", "--config", str(config_path)) == 0
        model = HateClassifier.load(tmp_path / "run" / "models" / "model.ckpt")
        assert model.params["embedding"].shape == (len(tokens) + 2, 16)
        assert model.params["fwd_w_in"].shape == (4 * config["model"]["hidden_size"], 16)

    def test_train_frees_the_float64_table_before_training(self, workspace, monkeypatch):
        _, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path)) == 0
        assert run_cli("embed-train", "--config", str(config_path)) == 0
        loaded, alive_in_train = [], []
        load_embeddings, train = cli._load_embeddings, cli.train

        def recording_load(config):
            matrix = load_embeddings(config)
            loaded.append(weakref.ref(matrix))
            return matrix

        def checking_train(model, bundle):
            alive_in_train.append(loaded[0]() is not None)
            return train(model, bundle)

        monkeypatch.setattr(cli, "_load_embeddings", recording_load)
        monkeypatch.setattr(cli, "train", checking_train)
        assert run_cli("train", "--config", str(config_path)) == 0
        assert len(loaded) == 1
        assert alive_in_train == [False]

    def test_train_without_prepare_exit_io(self, workspace):
        _, config_path = workspace
        assert run_cli("train", "--config", str(config_path)) == 2

    def test_evaluate_needs_both_external_files(self, workspace):
        _, config_path = workspace
        assert run_cli("evaluate", "--config", str(config_path),
                       "--predictions", "p.csv") == 3

    def test_embed_nearest_oov_exit_validation(self, workspace):
        tmp_path, config_path = workspace
        assert run_cli("prepare", "--config", str(config_path)) == 0
        assert run_cli("embed-train", "--config", str(config_path)) == 0
        assert run_cli(
            "embed-nearest",
            "--embeddings", str(tmp_path / "run" / "embeddings" / "vectors.txt"),
            "--word", "nosuchword",
        ) == 3


class TestAtomicOutputs:
    def test_every_output_is_replaced_in_one_rename(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        opened = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if any(flag in mode for flag in "wax+"):
                opened.append(Path(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        run_full_pipeline(config_path)
        assert run_cli("explain", "--config", str(config_path), "--seed", "5",
                       "--text", "w00 scum w01", "--samples", "40") == 0
        monkeypatch.undo()
        names = {path.name for path in opened}
        for output in ("config.json", "overrides.json", "train.csv", "split.json", "stats.json",
                       "vectors.txt", "training_log.txt", "model.ckpt", "history.json",
                       "metrics.json", "metrics.txt", "predictions.csv", "labels.csv",
                       "explanation.json", "explanation.html"):
            assert any(name.startswith(f".{output}.") for name in names), output
        temp = re.compile(r"\..+\.\d+-\d+\.tmp")
        assert [path for path in opened if not temp.fullmatch(path.name)] == []
        assert not list((tmp_path / "run").rglob("*.tmp"))


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        outputs = []
        for label in ("first", "second"):
            base = tmp_path / label
            base.mkdir()
            write_dataset(base / "toy.csv")
            config_path = write_config(base)
            run_full_pipeline(config_path)
            run_dir = base / "run"
            outputs.append({
                "train.csv": (run_dir / "prepared" / "train.csv").read_bytes(),
                "vectors.txt": (run_dir / "embeddings" / "vectors.txt").read_bytes(),
                "model.ckpt": (run_dir / "models" / "model.ckpt").read_bytes(),
                "history.json": (run_dir / "models" / "history.json").read_bytes(),
                "metrics.json": (run_dir / "reports" / "metrics.json").read_bytes(),
                "predictions.csv": (run_dir / "reports" / "predictions.csv").read_bytes(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], key


class TestOutputRoot:
    def test_env_var_resolves_relative_output(self, tmp_path, monkeypatch, capsys):
        write_dataset(tmp_path / "toy.csv")
        config_path = write_config(tmp_path, output_dir="relative_run")
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        assert run_cli("prepare", "--config", str(config_path)) == 0
        assert (tmp_path / "root" / "relative_run" / "prepared" / "train.csv").exists()
