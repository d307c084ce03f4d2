"""The three workloads: seeded inputs, set-up, a closed measured loop with
one client, and the correctness gates.

The gated timings come from the fastest of many short operations in a run:
an `embed-train` call, a training step, an `evaluate` call, an `explain`
call. On a shared host other guests slow a process by up to a half for
seconds at a time, which moves the median of a run; the fastest operation
in a run is what the code costs when they leave the CPU alone, and it
stays put. The medians are printed beside it.

Every verb goes through ``hatedetect.cli.main`` in process. Verb calls,
explain requests and correctness checks each count as one operation; a
failed call or gate counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from hatedetect import classifier, cli
from hatedetect.classifier import HateClassifier
from hatedetect.corpus import load_split_manifests
from hatedetect.neural import bce
from hatedetect.textprep import default_stopwords, preprocess


@dataclass(frozen=True)
class Scale:
    vocab_types: int
    dim: int
    hidden: int
    dense1: int
    batch: int
    corpus_lines: int  # embed-train corpus
    cbow_epochs: int
    tweet_rows: int  # Davidson-shaped CSV of tweets; 60/20/20 of its balanced subset
    long_rows: int  # Davidson-shaped CSV of long texts; the evaluate split is 20% of it
    model_epochs: int
    learning_rate: float
    setup_repeats: int  # at least this many set-ups, and for at least setup_seconds
    setup_seconds: float
    val_f1_floor: float
    test_f1_floor: float


# The paper shape: d=300, h=128, dense1 64, B=256, max_len 50. The CBOW
# corpus is small enough that an embed-train call takes under a second, so
# a run holds dozens of them. About 10k tweet rows give ~2k training
# examples, 8 steps per epoch. Over seeds 0-40 the selected epoch's
# validation F1 ranged 0.926-0.997; over seeds 1-20 the test F1 on about 200
# long texts ranged 0.743-1.0. The floors sit below both and far above
# chance (0.5). Set-up runs at least 5 times and for at least 2 s, which is
# dozens of cbow_corpus's set-ups of tens of milliseconds, split between the
# start and the end of a measure; like the other timings, setup_s is the
# fastest of them.
FULL = Scale(vocab_types=20000, dim=300, hidden=128, dense1=64, batch=256,
             corpus_lines=1200, cbow_epochs=2, tweet_rows=10200, long_rows=3000,
             model_epochs=2, learning_rate=1e-3, setup_repeats=5, setup_seconds=2.0,
             val_f1_floor=0.85, test_f1_floor=0.65)
# Small enough to run all three workloads in seconds; for the smoke test.
TINY = Scale(vocab_types=500, dim=16, hidden=8, dense1=8, batch=32,
             corpus_lines=300, cbow_epochs=2, tweet_rows=1500, long_rows=600,
             model_epochs=4, learning_rate=1e-2, setup_repeats=2, setup_seconds=0.0,
             val_f1_floor=0.6, test_f1_floor=0.5)
SCALES = {"full": FULL, "tiny": TINY}


def median(values):
    return statistics.median(values) if values else math.nan


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile). With 10 samples or fewer there is none, and the
    maximum is reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else math.nan), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Client:
    """One closed-loop client: each verb call waits for the previous one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.walls = {}  # request id -> wall seconds of a successful call
        self._request = 0

    def call(self, *argv):
        """Run one verb through cli.main; wall seconds, or None on failure."""
        self.attempted += 1
        self._request += 1
        if self.tracer is not None:
            self.tracer.request = self._request
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main([str(a) for a in argv])
        except Exception:  # a crash in one call must not end the run
            code, out = "exception", io.StringIO(traceback.format_exc())
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.request = None
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {out.getvalue().strip()[-400:]}")
            return None
        self.walls[self._request] = wall
        return wall

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"gate failed: {what}")
        return ok


def loop(seconds: float, minimum: int, op) -> list:
    """Closed loop: call op until `seconds` have passed and it has run at
    least `minimum` times; the successful results."""
    results = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < minimum or time.perf_counter() < deadline:
        attempts += 1
        result = op()
        if result is not None:
            results.append(result)
    return results


def metric(value, unit, n, alias, **extra):
    return {"value": value, "unit": unit, "n": n, "alias": alias, **extra}


def timed_metrics(work: float, times: list, what: str, throughput_alias: str) -> dict:
    """Throughput (work per second) and latency of the fastest of `times`,
    the gated pair; the median and tail are printed only."""
    n = len(times)
    fastest = min(times) if times else math.nan
    p_tail, pct = tail(times)
    return {
        "throughput_best_per_s": metric(work / fastest, "1/s", n, f"{throughput_alias}, fastest {what}"),
        "latency_best_s": metric(fastest, "s", n, f"fastest {what}"),
        "throughput_p50_per_s": metric(median([work / t for t in times]), "1/s", n, throughput_alias),
        "latency_p50_s": metric(median(times), "s", n, f"{what}_p50_s"),
        "latency_tail_s": metric(p_tail, "s", n, f"{what}_tail_s", percentile=pct),
    }


@contextmanager
def step_times(batch: int):
    """Times each training step of a full batch (`loss_and_grads` through
    `adam_step`), by wrapping the two names where `classifier.train` looks
    them up; yields the list the step times are appended to."""
    loss_and_grads, adam_step = classifier.loss_and_grads, classifier.adam_step
    times, started = [], []

    def timed_loss_and_grads(params, token_ids, *args):
        started.append((token_ids.shape[0], time.perf_counter()))
        return loss_and_grads(params, token_ids, *args)

    def timed_adam_step(*args):
        result = adam_step(*args)
        rows, start = started.pop()
        if rows == batch:  # an epoch's last, partial batch is cheaper
            times.append(time.perf_counter() - start)
        return result

    classifier.loss_and_grads, classifier.adam_step = timed_loss_and_grads, timed_adam_step
    try:
        yield times
    finally:
        classifier.loss_and_grads, classifier.adam_step = loss_and_grads, adam_step


class Workload:
    """Inputs live under `work`; prepare() builds them once (untimed), then
    measure() may run several times (untraced, then traced).

    prepare() and measure() may run in different processes: what measure()
    needs beyond the files under `work` is kept in `state`, which is JSON.
    """

    name = ""

    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work
        self.config = work / "config.json"
        self.out = work / "run"
        self.state = {}

    def write_config(self, dataset: Path):
        mapping = self.work / "label_mapping.json"
        gen.write_label_mapping(mapping)
        s = self.scale
        gen.write_run_config(
            self.config, seed=self.seed, output_dir=self.out, dataset=dataset, mapping=mapping,
            cbow={"window": 5, "dim": s.dim, "negative": 5, "epochs": s.cbow_epochs},
            model={"hidden_size": s.hidden, "dense1_size": s.dense1, "dense1_activation": "identity",
                   "sequence_repr": "final", "batch_size": s.batch, "epochs": s.model_epochs,
                   "learning_rate": s.learning_rate},
        )

    def vocabulary(self):
        return gen.Vocabulary(self.seed, self.scale.vocab_types, default_stopwords())

    def setup(self, client: Client, seconds: float, minimum: int) -> list:
        """`prepare` plus the timed verb's --dry-run (loads config, splits,
        vectors or checkpoint), repeated; wall times."""
        def once():
            first = client.call("prepare", "--config", self.config)
            second = client.call(*self.dry_run_argv())
            return None if first is None or second is None else first + second
        return loop(seconds, minimum, once)

    def measure(self, seconds: float, client: Client) -> dict:
        # Half the set-ups before the measured loop and half after it: a
        # burst on the shared host can slow every set-up in one second.
        s = self.scale
        setup = self.setup(client, s.setup_seconds / 2, (s.setup_repeats + 1) // 2)
        results = self.run(seconds, client)
        setup += self.setup(client, s.setup_seconds / 2, s.setup_repeats // 2)
        results["setup_s"] = metric(min(setup, default=math.nan), "s", len(setup), "fastest set-up",
                                    samples=setup)
        results["setup_p50_s"] = metric(median(setup), "s", len(setup), "median set-up")
        return results


class CbowCorpus(Workload):
    name = "cbow_corpus"

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.corpus = work / "corpus.txt"

    def prepare(self, client):
        rng = np.random.default_rng([self.seed, 2])
        vocab = self.vocabulary()
        dataset = self.work / "davidson.csv"  # only set-up's prepare reads it
        gen.write_davidson_csv(dataset, rng, 2000, lambda r, hate: gen.tweet(r, vocab, hate))
        self.write_config(dataset)
        gen.write_corpus(self.corpus, rng, vocab, self.scale.corpus_lines)
        with open(self.corpus, encoding="utf-8") as handle:
            self.state["tokens"] = sum(len(preprocess(line.rstrip("\n"))) for line in handle if line.strip())

    def dry_run_argv(self):
        return ("embed-train", "--config", self.config, "--corpus", self.corpus, "--dry-run")

    def run(self, seconds, client):
        log_path = self.out / "embeddings" / "training_log.txt"
        objectives = []

        def op():
            wall = client.call("embed-train", "--config", self.config, "--corpus", self.corpus)
            if wall is None:
                return None
            with open(log_path, encoding="utf-8") as handle:
                history = [float(line.split(",")[1]) for line in handle.readlines()[1:]]
            falls = all(math.isfinite(v) for v in history) and all(
                later < earlier for earlier, later in zip(history, history[1:]))
            client.check(len(history) >= 2 and falls, f"CBOW objective finite and falling: {history}")
            objectives.append(history[-1])
            return wall

        walls = loop(seconds, 1, op)
        token_epochs = self.state["tokens"] * self.scale.cbow_epochs
        return {
            **timed_metrics(token_epochs, walls, "embed_train", "cbow_tokens_per_s"),
            "model_loss": metric(median(objectives), "nats", len(objectives), "cbow_objective"),
        }


class TrainTweets(Workload):
    name = "train_tweets"

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.checksums = []  # of every model.ckpt the process writes

    def prepare(self, client):
        rng = np.random.default_rng([self.seed, 2])
        vocab = self.vocabulary()
        dataset = self.work / "davidson.csv"
        gen.write_davidson_csv(dataset, rng, self.scale.tweet_rows, lambda r, hate: gen.tweet(r, vocab, hate))
        self.write_config(dataset)
        vectors = self.out / "embeddings" / "vectors.txt"
        vectors.parent.mkdir(parents=True, exist_ok=True)
        gen.write_vectors(vectors, rng, vocab.all_tokens(), self.scale.dim)

    def dry_run_argv(self):
        return ("train", "--config", self.config, "--dry-run")

    def run(self, seconds, client):
        models = self.out / "models"
        n_train = len(load_split_manifests(self.out / "prepared").train)
        val_losses = []

        def op():
            wall = client.call("train", "--config", self.config)
            if wall is None:
                return None
            self.checksums.append(sha256(models / "model.ckpt"))
            client.check(len(set(self.checksums)) == 1,
                         "same-seed train runs give byte-identical model.ckpt")
            history = json.loads((models / "history.json").read_text(encoding="utf-8"))
            selected = history["records"][history["selected_epoch"]]
            client.check(selected["validation_weighted_f1"] >= self.scale.val_f1_floor,
                         f"validation weighted F1 {selected['validation_weighted_f1']:.4f} "
                         f">= {self.scale.val_f1_floor}")
            val_losses.append(selected["validation_loss"])
            return wall

        # Two calls at least, so reproducibility is always checked.
        with step_times(self.scale.batch) as steps:
            walls = loop(seconds, 2 if not self.checksums else 1, op)
        examples = n_train * self.scale.model_epochs
        return {
            **timed_metrics(self.scale.batch, steps, "train_step", "batch / step"),
            "train_call_p50_s": metric(median(walls), "s", len(walls), "median train call"),
            "train_call_examples_per_s": metric(median([examples / w for w in walls]), "1/s", len(walls),
                                                "train_examples_per_s: examples x epochs / train call, median"),
            "model_loss": metric(median(val_losses), "nats", len(val_losses), "val_loss"),
        }


class ServeMixed(Workload):
    name = "serve_mixed"
    evaluate_share = 0.5  # of the measured time; explain requests get the rest
    n_explain_texts = 64

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        # The checkpoint is trained on tweets, untimed, in a run directory of its own.
        self.trainer = TrainTweets(seed, scale, work / "checkpoint")
        self.checkpoint = self.trainer.out / "models" / "model.ckpt"

    def prepare(self, client):
        rng = np.random.default_rng([self.seed, 3])
        vocab = self.vocabulary()
        trainer = self.trainer
        trainer.work.mkdir()
        trainer.prepare(client)
        client.call("prepare", "--config", trainer.config)
        client.call("train", "--config", trainer.config)
        # Evaluate on long texts: their own dataset, prepared by set-up.
        dataset = self.work / "long.csv"
        gen.write_davidson_csv(dataset, rng, self.scale.long_rows,
                               lambda r, hate: gen.long_text(r, vocab, hate, max_len=50))
        self.write_config(dataset)
        self.state["explain_texts"] = [(gen.tweet(rng, vocab, hate=i % 2 == 0), i % 2 == 0)
                                       for i in range(self.n_explain_texts)]

    def dry_run_argv(self):
        return ("evaluate", "--config", self.config, "--checkpoint", self.checkpoint, "--dry-run")

    def run(self, seconds, client):
        reports = self.out / "reports"
        test = load_split_manifests(self.out / "prepared").test
        f1s = []

        def evaluate():
            wall = client.call("evaluate", "--config", self.config, "--checkpoint", self.checkpoint)
            if wall is None:
                return None
            f1 = json.loads((reports / "metrics.json").read_text(encoding="utf-8"))["weighted"]["f1"]
            client.check(f1 >= self.scale.test_f1_floor,
                         f"test weighted F1 {f1:.4f} >= {self.scale.test_f1_floor}")
            f1s.append(f1)
            return wall

        requests = itertools.cycle(self.state["explain_texts"])

        def explain():
            text, hate = next(requests)
            wall = client.call("explain", "--config", self.config, "--checkpoint", self.checkpoint,
                               "--text", text)
            if wall is None:
                return None
            if hate:
                path = self.out / "explanations" / "explanation.json"
                token, weight = json.loads(path.read_text(encoding="utf-8"))["token_weights"][0]
                client.check(token in gen.TRIGGERS and weight > 0,
                             f"explanation of {text!r} ranks a trigger first with positive weight "
                             f"(got {token} {weight:+.4f})")
            return wall

        evaluate_walls = loop(seconds * self.evaluate_share, 1, evaluate)
        explain_walls = loop(seconds * (1 - self.evaluate_share), 1, explain)

        scores, labels = self.check_predictions(client, reports, test)
        evaluates = timed_metrics(len(test), evaluate_walls, "evaluate", "evaluate_texts_per_s")
        explains = timed_metrics(1, explain_walls, "explain", "explain_per_s")
        return {
            **{k: v for k, v in evaluates.items() if k.startswith("throughput")},
            **{k: v for k, v in explains.items() if k.startswith("latency")},
            "model_loss": metric(bce(scores, labels), "nats", len(labels), "test_loss"),
            "test_weighted_f1": metric(median(f1s), "ratio", len(f1s), "test_weighted_f1"),
        }

    def check_predictions(self, client, reports, test):
        """predictions.csv must equal in-process predict on the test texts."""
        with open(reports / "predictions.csv", newline="", encoding="utf-8") as handle:
            written = {row["id"]: float(row["score"]) for row in csv.DictReader(handle)}
        model = HateClassifier.load(self.checkpoint)
        scores = model.predict([example.text for example in test])
        expected = {example.id: float(score) for example, score in zip(test, scores)}
        client.check(written == expected, "predictions.csv matches in-process predict")
        labels = [1.0 if example.binary_label == "hate" else 0.0 for example in test]
        return [expected[example.id] for example in test], labels


WORKLOADS = {w.name: w for w in (CbowCorpus, TrainTweets, ServeMixed)}
