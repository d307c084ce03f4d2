"""Command-line surface: config-driven, reproducible pipeline runs.

Verbs: prepare, embed-train, embed-nearest, train, evaluate, explain,
sweep-activation. One JSON config file drives every verb; flags may
override a few keys and the overrides are recorded next to the copied
config. Exit codes: 0 success, 2 I/O, 3 validation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import metrics as metrics_mod
from .atomic import (_check, _section, json_bytes, not_utf8, read_json_object, update_bytes,
                     write_bytes, write_json)
from .classifier import HateClassifier, ModelConfig, train, sweep_dense1_activation
from .corpus import CombineConfig, DatasetSpec, SplitConfig
from .embed import CbowConfig, EmbeddingMatrix
from .explain import DEFAULT_N_SAMPLES, DEFAULT_TOP_K, explain
from .neural import NumericError
from .textprep import PipelineConfig, preprocess

OUTPUT_ROOT_ENV = "HATEDETECT_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# The top-level keys of a run config besides `seed`, with their defaults.
_RUN_CONFIG_DEFAULTS = {"output_dir": "run", "datasets": [], "split": {}, "combine": {},
                        "pipeline": {}, "cbow": {}, "model": {}}


@dataclass
class RunConfig:
    path: Path
    seed: int
    output_dir: Path
    datasets: tuple
    split: SplitConfig
    combine: CombineConfig
    cbow: CbowConfig
    model: ModelConfig
    overrides: dict

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        """The run config in the file at path, with overrides over its
        keys. A value the config may not hold is an error naming the file."""
        path = Path(path)
        data = read_json_object(path, "run config")
        try:
            return cls._parse(path, data, overrides)
        except ValueError as exc:
            raise ValueError(f"run config {path}: {exc}") from None

    @classmethod
    def _parse(cls, path: Path, data: dict, overrides: dict | None) -> "RunConfig":
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        data = {**_RUN_CONFIG_DEFAULTS, **data, **overrides}
        unknown = sorted(data.keys() - _RUN_CONFIG_DEFAULTS.keys() - {"seed"})
        if unknown:
            raise ValueError(f"run config has no key {unknown[0]!r}")
        if "seed" not in data:
            raise ValueError("config must set an explicit 'seed' (no wall-clock defaults)")
        seed = _check(data["seed"], "int", "seed")
        # A relative output_dir is under the output root; a relative dataset
        # or mapping path is beside the config file.
        output_dir = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / _check(
            data["output_dir"], "str", "output_dir")
        datasets = []
        for i, entry in enumerate(_check(data["datasets"], "tuple", "datasets")):
            name = f"datasets[{i}]"
            # A file holding the mapping, in place of a label_mapping in the
            # entry. The spec keeps the path of the file its mapping came
            # from, this one or the run config, to name it in errors.
            mapping_file = path
            if "label_mapping_file" in _check(entry, "dict", name):
                if "label_mapping" in entry:
                    raise ValueError(f"config section {name!r} sets both 'label_mapping' "
                                     "and 'label_mapping_file'")
                mapping_file = path.parent / _check(entry["label_mapping_file"], "str",
                                                    f"{name}.label_mapping_file")
                mapping = read_json_object(mapping_file, "label mapping file")
                try:
                    corpus_mod.validate_mapping(mapping)
                except ValueError as exc:
                    raise ValueError(f"label mapping file {mapping_file}: {exc}") from None
                entry = {**entry, "label_mapping": mapping}
            spec = _section(entry, name, DatasetSpec)
            source = None if spec.label_mapping is None else str(mapping_file)
            datasets.append(replace(spec, path=str(path.parent / spec.path), label_mapping_file=source))

        pipeline = _section(data["pipeline"], "pipeline", PipelineConfig)
        return cls(
            path=path,
            seed=seed,
            output_dir=output_dir,
            datasets=tuple(datasets),
            split=_section(data["split"], "split", SplitConfig),
            combine=_section(data["combine"], "combine", CombineConfig),
            cbow=_section(data["cbow"], "cbow", CbowConfig, seed=seed),
            model=ModelConfig.from_section(data["model"], "model", seed=seed, pipeline=pipeline),
            overrides=overrides,
        )

    def record(self) -> None:
        """Copy the exact config into the output directory; record this
        call's overrides, or remove the record of an earlier call's when it
        has none. A file that already holds the same bytes is left as it is."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        update_bytes(self.output_dir / "config.json", self.path.read_bytes())
        overrides = self.output_dir / "overrides.json"
        if self.overrides:
            update_bytes(overrides, json_bytes(dict(sorted(self.overrides.items()))))
        else:
            overrides.unlink(missing_ok=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatedetect",
        description="Hate-speech classification pipeline: data preparation, "
        "embedding training, classifier training, evaluation, explanation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def common(p):
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


# main's parser, built on first use and shared by every later call: the
# verb's handler is looked up by name, so a call leaves nothing in it.
_shared_parser = functools.cache(build_parser)


def _load_config(args) -> RunConfig:
    overrides = {"seed": getattr(args, "seed", None), "output_dir": getattr(args, "out", None)}
    return RunConfig.load(args.config, overrides)


def _load_prepared(config: RunConfig, parts=corpus_mod.SPLIT_NAMES):
    return corpus_mod.load_split_manifests(config.output_dir / "prepared", parts)


def _load_embeddings(config: RunConfig) -> EmbeddingMatrix:
    return EmbeddingMatrix.load_text(config.output_dir / "embeddings" / "vectors.txt")


def _checkpoint_path(config: RunConfig, args) -> Path:
    if getattr(args, "checkpoint", None):
        return Path(args.checkpoint)
    return config.output_dir / "models" / "model.ckpt"


def _cmd_prepare(args) -> int:
    config = _load_config(args)
    if not config.datasets:
        raise ValueError("config lists no datasets to prepare")
    collapsed_sets = []
    dataset_stats = {}
    for spec in config.datasets:
        if spec.label_mapping is None:
            raise ValueError(f"dataset {spec.name!r} has no label mapping")
        examples = corpus_mod.load_dataset(spec)
        collapsed, counts = corpus_mod.collapse_labels(examples, spec.label_mapping)
        dataset_stats[spec.name] = counts.to_dict()
        collapsed_sets.append(collapsed)
    if config.combine.balanced:
        combined = corpus_mod.combine_balanced(collapsed_sets, config.seed,
                                               config.combine.per_class_cap)
    else:
        combined = [example for part in collapsed_sets for example in part]
    bundle = corpus_mod.split(combined, config.split.ratios, config.seed, config.split.stratified)
    if args.dry_run:
        print(f"dry run: {len(combined)} examples would be split "
              f"{[len(p) for p in bundle.parts()]}")
        return EXIT_OK
    config.record()
    prepared = config.output_dir / "prepared"
    corpus_mod.write_split_manifests(bundle, prepared)
    summary = {"datasets": dataset_stats, "combined": corpus_mod.stats(combined).to_dict()}
    write_json(prepared / "stats.json", summary)
    print(f"prepared {len(combined)} examples into {prepared}")
    return EXIT_OK


def _cmd_embed_train(args) -> int:
    config = _load_config(args)
    if args.corpus:
        corpus_path = Path(args.corpus)
        if not corpus_path.exists():
            raise FileNotFoundError(f"corpus file not found: {corpus_path}")
        try:
            with open(corpus_path, encoding="utf-8") as handle:
                texts = [line.rstrip("\n") for line in handle if line.strip()]
        except UnicodeDecodeError:
            raise not_utf8(corpus_path) from None
    else:
        texts = [example.text for example in _load_prepared(config, ("train",)).train]
    sequences = [preprocess(text, config.model.pipeline) for text in texts]
    if args.dry_run:
        print(f"dry run: would train {config.cbow.dim}-dim vectors on "
              f"{len(sequences)} documents")
        return EXIT_OK
    matrix, history = embed_mod.train_cbow(sequences, config.cbow)
    config.record()
    out = config.output_dir / "embeddings"
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
    # The float64 matrix is dropped once the model holds its float32 copy.
    model = HateClassifier.build(config.model, _load_embeddings(config))
    if args.dry_run:
        v, dim = model.params["embedding"].shape
        print(f"dry run: model with {v} x {dim} embeddings, "
              f"h={config.model.hidden_size} validated")
        return EXIT_OK
    history, best = train(model, bundle)
    config.record()
    out = config.output_dir / "models"
    out.mkdir(parents=True, exist_ok=True)
    best.save(out / "model.ckpt")
    write_json(out / "history.json", history.to_dict())
    selected = history.records[history.selected_epoch]
    print(f"trained {config.model.epochs} epochs; selected epoch {selected.epoch} "
          f"(val loss {selected.validation_loss:.4f}, weighted F1 "
          f"{selected.validation_weighted_f1:.4f}); checkpoint in {out}")
    return EXIT_OK


def _write_report(config: RunConfig, report, name: str) -> Path:
    out = config.output_dir / "reports"
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"{name}.json", report.to_dict())
    write_bytes(out / f"{name}.txt", report.to_text().encode())
    return out


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    external = bool(args.predictions or args.labels)
    if external and not (args.predictions and args.labels):
        raise ValueError("external scoring needs both --predictions and --labels")
    if external:
        report = metrics_mod.score_external(args.predictions, args.labels,
                                            config.model.threshold)
        if args.dry_run:
            print("dry run: external predictions validated")
            return EXIT_OK
        config.record()
        out = _write_report(config, report, "metrics")
    else:
        model = HateClassifier.load(_checkpoint_path(config, args))
        bundle = _load_prepared(config, ("test",))
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
    if args.dry_run:
        tokens = preprocess(args.text, model.config.pipeline, limit=model.config.pipeline.max_len)
        if not tokens:
            raise ValueError("text preprocesses to zero tokens; nothing to explain")
        print(f"dry run: checkpoint loaded, explain would read {len(tokens)} tokens")
        return EXIT_OK
    explanation = explain(
        model.predict_tokens,
        args.text,
        n_samples=args.samples,
        top_k=args.top_k,
        seed=config.seed,
        config=model.config.pipeline,
    )
    config.record()
    out = config.output_dir / "explanations"
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "explanation.json", explanation.to_dict())
    write_bytes(out / "explanation.html", explanation.to_html().encode())
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
    out = config.output_dir / "reports"
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
    write_json(out / "activation_sweep.json", rows)
    lines = [f"{'activation':<12}{'epoch':>6}{'val_loss':>10}{'weighted_F1':>13}"]
    for row in rows:
        lines.append(
            f"{row['activation']:<12}{row['selected_epoch']:>6}"
            f"{row['validation_loss']:>10.4f}{row['validation_weighted_f1']:>13.4f}"
        )
    table = "\n".join(lines) + "\n"
    write_bytes(out / "activation_sweep.txt", table.encode())
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


@contextlib.contextmanager
def _stderr_logging():
    """INFO records to the current stderr for one verb, unless the root
    logger already has a handler: a program that calls main keeps its own
    logging. The handler goes when the verb returns, so a later call in
    the same process logs to its own stderr."""
    root = logging.getLogger()
    if root.handlers:
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def main(argv=None) -> int:
    """Parse argv and run its verb, mapping error families to exit codes.
    Log records at INFO and above go to stderr."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _stderr_logging():
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
