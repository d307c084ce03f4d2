"""Command-line surface: config-driven, reproducible pipeline runs.

Verbs: prepare, embed-train, embed-nearest, train, evaluate, explain,
sweep-activation. One JSON config file drives every verb; flags may
override a few keys and the overrides are recorded next to the copied
config. Exit codes: 0 success, 2 I/O, 3 validation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import metrics as metrics_mod
from .classifier import HateClassifier, ModelConfig, train, sweep_dense1_activation
from .corpus import DatasetSpec
from .embed import CbowConfig, EmbeddingMatrix
from .explain import DEFAULT_N_SAMPLES, DEFAULT_TOP_K, explain
from .neural import NumericError
from .textprep import PipelineConfig, preprocess

OUTPUT_ROOT_ENV = "HATEDETECT_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# What a run config may give for each annotated config field, and how that
# is said in an error message.
_JSON_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "frozenset": (list, "a list"),
}


def _section(data: dict, name: str, config_class, **defaults) -> dict:
    """Section `name` of a run config as keywords for config_class, over
    `defaults`. A key that is not a field of config_class, or a value of
    the wrong type, is refused with an error that names both."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be an object")
    annotations = {f.name: f.type for f in fields(config_class)}
    for key, value in section.items():
        if annotations.get(key) not in _JSON_TYPES:
            raise ValueError(f"config section {name!r} has no key {key!r}")
        expected, wanted = _JSON_TYPES[annotations[key]]
        if not isinstance(value, expected) or isinstance(value, bool) != (expected is bool):
            raise ValueError(f"config key {name}.{key} must be {wanted}, got {value!r}")
    return {**defaults, **section}


@dataclass
class RunConfig:
    path: Path
    seed: int
    output_dir: Path
    datasets: list
    ratios: tuple
    stratified: bool
    balanced: bool
    per_class_cap: int | None
    cbow: CbowConfig
    model: ModelConfig
    overrides: dict

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        if "seed" not in data and "seed" not in overrides:
            raise ValueError("config must set an explicit 'seed' (no wall-clock defaults)")
        seed = int(overrides.get("seed", data.get("seed")))
        output_dir = Path(overrides.get("output_dir", data.get("output_dir", "run")))
        if not output_dir.is_absolute():
            output_dir = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / output_dir

        base = path.parent

        def resolve(p):
            p = Path(p)
            return p if p.is_absolute() else base / p

        datasets = []
        for entry in data.get("datasets", []):
            mapping = entry.get("label_mapping")
            if mapping is None and "label_mapping_file" in entry:
                mapping = corpus_mod.read_label_mapping(resolve(entry["label_mapping_file"]))
            if mapping is not None:
                mapping = corpus_mod.validate_mapping(mapping)
            datasets.append(
                DatasetSpec(
                    name=entry["name"],
                    path=str(resolve(entry["path"])),
                    text_column=entry["text_column"],
                    label_column=entry["label_column"],
                    label_mapping=mapping,
                )
            )

        split_cfg = data.get("split", {})
        combine_cfg = data.get("combine", {})

        pipeline = _section(data, "pipeline", PipelineConfig)
        cbow = CbowConfig(**_section(data, "cbow", CbowConfig, seed=seed))
        model = ModelConfig.from_dict(_section(data, "model", ModelConfig, seed=seed,
                                               pipeline=pipeline))

        return cls(
            path=path,
            seed=seed,
            output_dir=output_dir,
            datasets=datasets,
            ratios=tuple(split_cfg.get("ratios", corpus_mod.DEFAULT_RATIOS)),
            stratified=bool(split_cfg.get("stratified", True)),
            balanced=bool(combine_cfg.get("balanced", True)),
            per_class_cap=combine_cfg.get("per_class_cap"),
            cbow=cbow,
            model=model,
            overrides=overrides,
        )

    def subdir(self, name: str) -> Path:
        return self.output_dir / name

    def record(self) -> None:
        """Copy the exact config into the output directory; record overrides."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        target = self.output_dir / "config.json"
        if target.resolve() != self.path.resolve():
            shutil.copyfile(self.path, target)
        if self.overrides:
            with open(self.output_dir / "overrides.json", "w", encoding="utf-8") as handle:
                json.dump(self.overrides, handle, indent=2, sort_keys=True)
                handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatedetect",
        description="Hate-speech classification pipeline: data preparation, "
        "embedding training, classifier training, evaluation, explanation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="run config JSON file")
        p.add_argument("--out", help="override the config's output directory")
        p.add_argument("--seed", type=int, help="override the config's seed")
        p.add_argument("--dry-run", action="store_true", help="validate inputs, write nothing")

    common(sub.add_parser("prepare", help="ingest, collapse, combine, split"))
    p = sub.add_parser("embed-train", help="train CBOW embeddings")
    common(p)
    p.add_argument("--corpus", help="optional text file (one document per line); "
                   "defaults to the prepared training split")
    p = sub.add_parser("embed-nearest", help="cosine nearest neighbors of a word")
    p.add_argument("--embeddings", required=True, help="vector file in text format")
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--dry-run", action="store_true", help="validate inputs, print nothing")
    common(sub.add_parser("train", help="train the classifier on prepared splits"))
    p = sub.add_parser("evaluate", help="score a checkpoint or an external predictions file")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/models/model.ckpt)")
    p.add_argument("--predictions", help="external predictions CSV (id,score)")
    p.add_argument("--labels", help="labels CSV (id,label) for --predictions")
    p = sub.add_parser("explain", help="explain one prediction")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/models/model.ckpt)")
    p.add_argument("--text", required=True, help="text to explain")
    p.add_argument("--samples", type=int, default=DEFAULT_N_SAMPLES)
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    common(sub.add_parser("sweep-activation",
                          help="train once per dense1 activation and compare"))
    return parser


def _load_config(args) -> RunConfig:
    overrides = {"seed": getattr(args, "seed", None), "output_dir": getattr(args, "out", None)}
    return RunConfig.load(args.config, overrides)


def _load_prepared(config: RunConfig):
    return corpus_mod.load_split_manifests(config.subdir("prepared"))


def _load_embeddings(config: RunConfig) -> EmbeddingMatrix:
    return EmbeddingMatrix.load_text(config.subdir("embeddings") / "vectors.txt")


def _checkpoint_path(config: RunConfig, args) -> Path:
    if getattr(args, "checkpoint", None):
        return Path(args.checkpoint)
    return config.subdir("models") / "model.ckpt"


def _cmd_prepare(args) -> int:
    config = _load_config(args)
    if not config.datasets:
        raise ValueError("config lists no datasets to prepare")
    collapsed_sets = []
    dataset_stats = {}
    for spec in config.datasets:
        if spec.label_mapping is None:
            raise ValueError(f"dataset {spec.name!r} has no label mapping")
        examples = corpus_mod.load_dataset(spec.path, spec)
        collapsed, counts = corpus_mod.collapse_labels(examples, spec.label_mapping)
        dataset_stats[spec.name] = counts.to_dict()
        collapsed_sets.append(collapsed)
    if config.balanced:
        combined = corpus_mod.combine_balanced(collapsed_sets, config.seed, config.per_class_cap)
    else:
        combined = [example for part in collapsed_sets for example in part]
    bundle = corpus_mod.split(combined, config.ratios, config.seed, config.stratified)
    if args.dry_run:
        print(f"dry run: {len(combined)} examples would be split "
              f"{[len(p) for p in bundle.parts()]}")
        return EXIT_OK
    config.record()
    prepared = config.subdir("prepared")
    corpus_mod.write_split_manifests(bundle, prepared)
    summary = {"datasets": dataset_stats, "combined": corpus_mod.stats(combined).to_dict()}
    with open(prepared / "stats.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(f"prepared {len(combined)} examples into {prepared}")
    return EXIT_OK


def _cmd_embed_train(args) -> int:
    config = _load_config(args)
    if args.corpus:
        corpus_path = Path(args.corpus)
        if not corpus_path.exists():
            raise FileNotFoundError(f"corpus file not found: {corpus_path}")
        with open(corpus_path, encoding="utf-8") as handle:
            texts = [line.rstrip("\n") for line in handle if line.strip()]
    else:
        texts = [example.text for example in _load_prepared(config).train]
    sequences = [preprocess(text, config.model.pipeline) for text in texts]
    if args.dry_run:
        print(f"dry run: would train {config.cbow.dim}-dim vectors on "
              f"{len(sequences)} documents")
        return EXIT_OK
    matrix, history = embed_mod.train_cbow(sequences, config.cbow)
    config.record()
    out = config.subdir("embeddings")
    out.mkdir(parents=True, exist_ok=True)
    matrix.save_text(out / "vectors.txt")
    embed_mod.write_training_log(history, out / "training_log.txt")
    print(f"trained {len(matrix.vocab)} x {matrix.dim} vectors into {out}")
    return EXIT_OK


def _cmd_embed_nearest(args) -> int:
    matrix = EmbeddingMatrix.load_text(args.embeddings)
    neighbors = embed_mod.nearest(args.word, args.k, matrix)
    if args.dry_run:
        return EXIT_OK
    for token, similarity in neighbors:
        print(f"{token}\t{similarity:.4f}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config(args)
    bundle = _load_prepared(config)
    matrix = _load_embeddings(config)
    model = HateClassifier.build(config.model, matrix)
    if args.dry_run:
        print(f"dry run: model with {len(matrix.vocab)} x {matrix.dim} embeddings, "
              f"h={config.model.hidden_size} validated")
        return EXIT_OK
    history, best = train(model, bundle)
    config.record()
    out = config.subdir("models")
    out.mkdir(parents=True, exist_ok=True)
    best.save(out / "model.ckpt")
    with open(out / "history.json", "w", encoding="utf-8") as handle:
        json.dump(history.to_dict(), handle, indent=2)
        handle.write("\n")
    selected = history.records[history.selected_epoch]
    print(f"trained {config.model.epochs} epochs; selected epoch {selected.epoch} "
          f"(val loss {selected.validation_loss:.4f}, weighted F1 "
          f"{selected.validation_weighted_f1:.4f}); checkpoint in {out}")
    return EXIT_OK


def _write_report(config: RunConfig, report, name: str) -> Path:
    out = config.subdir("reports")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.json", "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    with open(out / f"{name}.txt", "w", encoding="utf-8") as handle:
        handle.write(report.to_text())
    return out


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    external = bool(args.predictions or args.labels)
    if external and not (args.predictions and args.labels):
        raise ValueError("external scoring needs both --predictions and --labels")
    if external:
        if args.dry_run:
            metrics_mod.score_external(args.predictions, args.labels)
            print("dry run: external predictions validated")
            return EXIT_OK
        report = metrics_mod.score_external(args.predictions, args.labels)
        config.record()
        out = _write_report(config, report, "metrics")
    else:
        model = HateClassifier.load(_checkpoint_path(config, args))
        bundle = _load_prepared(config)
        if args.dry_run:
            print(f"dry run: checkpoint and {len(bundle.test)} test examples validated")
            return EXIT_OK
        report = metrics_mod.report(model, bundle.test)
        config.record()
        out = _write_report(config, report, "metrics")
        metrics_mod.write_predictions_csv(
            out / "predictions.csv", [example.id for example in bundle.test], report.scores
        )
        metrics_mod.write_labels_csv(
            out / "labels.csv",
            [example.id for example in bundle.test],
            [example.binary_label for example in bundle.test],
        )
    print(report.to_text())
    return EXIT_OK


def _cmd_explain(args) -> int:
    config = _load_config(args)
    model = HateClassifier.load(_checkpoint_path(config, args))
    seed = args.seed if args.seed is not None else config.seed
    if args.dry_run:
        tokens = preprocess(args.text, model.config.pipeline)
        if not tokens:
            raise ValueError("text preprocesses to zero tokens; nothing to explain")
        print(f"dry run: checkpoint loaded, text has {len(tokens)} tokens")
        return EXIT_OK
    explanation = explain(
        model.predict_tokens,
        args.text,
        n_samples=args.samples,
        top_k=args.top_k,
        seed=seed,
        config=model.config.pipeline,
    )
    config.record()
    out = config.subdir("explanations")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "explanation.json", "w", encoding="utf-8") as handle:
        handle.write(explanation.to_json())
    with open(out / "explanation.html", "w", encoding="utf-8") as handle:
        handle.write(explanation.to_html())
    for token, weight in explanation.token_weights:
        print(f"{token}\t{weight:+.4f}")
    return EXIT_OK


def _cmd_sweep_activation(args) -> int:
    config = _load_config(args)
    bundle = _load_prepared(config)
    matrix = _load_embeddings(config)
    if args.dry_run:
        HateClassifier.build(config.model, matrix)
        print("dry run: sweep inputs validated")
        return EXIT_OK
    results = sweep_dense1_activation(config.model, matrix, bundle)
    config.record()
    out = config.subdir("reports")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for activation, history in results.items():
        record = history.records[history.selected_epoch]
        rows.append(
            {
                "activation": activation,
                "selected_epoch": record.epoch,
                "validation_loss": record.validation_loss,
                "validation_weighted_f1": record.validation_weighted_f1,
            }
        )
    with open(out / "activation_sweep.json", "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    lines = [f"{'activation':<12}{'epoch':>6}{'val_loss':>10}{'weighted_F1':>13}"]
    for row in rows:
        lines.append(
            f"{row['activation']:<12}{row['selected_epoch']:>6}"
            f"{row['validation_loss']:>10.4f}{row['validation_weighted_f1']:>13.4f}"
        )
    table = "\n".join(lines) + "\n"
    with open(out / "activation_sweep.txt", "w", encoding="utf-8") as handle:
        handle.write(table)
    print(table)
    return EXIT_OK


_HANDLERS = {
    "prepare": _cmd_prepare,
    "embed-train": _cmd_embed_train,
    "embed-nearest": _cmd_embed_nearest,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "sweep-activation": _cmd_sweep_activation,
}


def main(argv=None) -> int:
    """Parse argv and run its verb, mapping error families to exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.verb](args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
