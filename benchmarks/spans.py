"""Span tracing from outside the package.

Wrappers around the public functions of each hatedetect module record
spans in memory: name, start, end, parent span and the verb invocation
(request id) they belong to. Each wrapper is installed where its caller
looks the name up -- a module global such as ``neural.lstm_forward``, an
import site such as ``classifier.adam_step`` or ``cli.train``, a class
attribute, or the CLI's verb table -- so the package runs unmodified.
Counters recorded at the same boundaries give the ratios.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

from hatedetect import classifier, cli, corpus, embed, metrics, neural

# The package re-exports the function explain under the submodule's name.
explain = importlib.import_module("hatedetect.explain")

# Verbs the workloads run, with the name their root span carries.
VERBS = {"prepare": "prepare", "embed-train": "embed_train", "train": "train",
         "evaluate": "evaluate", "explain": "explain"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request]
        self.counts = defaultdict(int)
        self.request = None  # the verb call in progress
        self._stack = []
        self._patches = []
        self._param_version = 0  # bumped by every Adam step
        self._row_keys = set()

    def wrap(self, name, fn, count=None):
        """Time every call of fn as a span; name may be a function of the
        call's arguments. count(args, result) runs after the span closes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:  # outside any verb call: the benchmark's own checks
                return fn(*args, **kwargs)
            record = [name(args) if callable(name) else name, 0.0, 0.0,
                      stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, count)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, count))
            else:
                replacement = self.wrap(name, original, count)
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self):
        HC = classifier.HateClassifier
        for verb, label in VERBS.items():
            self.patch(cli._HANDLERS, verb, _verb_span_name(label))
        self.patch(corpus, "load_dataset", "corpus.load_dataset")
        self.patch(corpus, "collapse_labels", "corpus.collapse_labels")
        self.patch(corpus, "combine_balanced", "corpus.combine_balanced")
        self.patch(corpus, "split", "corpus.split")
        self.patch(corpus, "write_split_manifests", "corpus.write_split_manifests")
        self.patch(corpus, "load_split_manifests", "corpus.load_split_manifests")
        for module in (cli, classifier, explain):
            self.patch(module, "preprocess", "textprep.preprocess")
        self.patch(classifier, "encode", "textprep.encode", self._count_pads)
        self.patch(embed, "train_cbow", "embed.train_cbow", self._count_cbow_tokens)
        self.patch(embed, "build_vocab", "embed.build_vocab")
        self.patch(embed.EmbeddingMatrix, "save_text", "embed.save_text")
        self.patch(embed.EmbeddingMatrix, "load_text", "embed.load_text")
        self.patch(neural, "lstm_forward", "neural.lstm_forward", self._count_lstm_forward)
        self.patch(neural, "lstm_backward", "neural.lstm_backward", self._count_lstm_backward)
        self.patch(neural, "dense_forward", "neural.dense")
        self.patch(neural, "dense_backward", "neural.dense")
        self.patch(neural, "bce", "neural.bce")
        self.patch(classifier, "adam_step", "neural.adam_step", self._bump_params)
        self.patch(cli, "train", "classifier.train")
        self.patch(classifier, "loss_and_grads", "classifier.loss_and_grads")
        self.patch(classifier, "forward_probs", "classifier.forward_probs", self._count_rows)
        self.patch(classifier, "prf", "metrics.prf")
        for attr in ("build", "load", "save", "encode_texts", "predict", "predict_encoded"):
            self.patch(HC, attr, f"classifier.{attr}")
        self.patch(metrics, "report", "metrics.report")
        self.patch(metrics, "roc_auc", "metrics.roc_auc")
        self.patch(metrics, "prf", "metrics.prf")
        self.patch(metrics, "write_predictions_csv", "metrics.write_csv")
        self.patch(metrics, "write_labels_csv", "metrics.write_csv")
        self.patch(cli, "explain", "explain.explain")
        self.patch(explain, "perturb", "explain.perturb", self._count_distinct_texts)
        self.patch(explain, "fit_local", "explain.fit_local")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # Counters. Each receives the wrapped call's positional arguments and result.

    def _count_pads(self, args, ids):
        self.counts["textprep.pad_positions"] += int(np.count_nonzero(ids == 0))
        self.counts["textprep.encoded_positions"] += ids.size

    def _count_cbow_tokens(self, args, result):
        sentences, config = args[0], args[1]
        self.counts["embed.token_epochs"] += sum(len(s) for s in sentences) * config.epochs

    def _count_lstm_forward(self, args, result):
        batch, length, d = np.shape(args[0])
        h = args[1].hidden_size
        self.counts["neural.lstm_positions"] += batch * length
        # Computed, not measured: the two GEMMs per step, 2*B*4h*(d+h) FLOPs.
        self.counts["neural.lstm_forward_flops"] += 2 * batch * length * 4 * h * (d + h)

    def _count_lstm_backward(self, args, result):
        batch, length, d = np.shape(args[1][0])
        h = args[2].hidden_size
        # Computed: four GEMMs per step (d_w_in, d_w_rec, d_inputs, dh_next).
        self.counts["neural.lstm_backward_flops"] += 4 * batch * length * 4 * h * (d + h)

    def _bump_params(self, args, result):
        self._param_version += 1

    def _count_rows(self, args, probs):
        token_ids = args[1]
        self.counts["classifier.rows_forwarded"] += token_ids.shape[0]
        # A row is redundant when the same request already forwarded it
        # under the same parameters.
        key = (self.request, self._param_version)
        self._row_keys.update((key, row.tobytes()) for row in token_ids)
        self.counts["classifier.distinct_rows"] = len(self._row_keys)

    def _count_distinct_texts(self, args, result):
        texts = result[1]
        self.counts["explain.samples"] += len(texts)
        self.counts["explain.distinct_texts"] += len(set(texts))

    # Analysis.

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def timed_requests(self):
        """Requests whose verb call is measured: not `prepare`, not a dry run."""
        return {request for name, _, _, parent, request in self.spans
                if parent < 0 and name != "cli.prepare" and not name.endswith(".dry_run")}

    def ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")


def _verb_span_name(label):
    return lambda args: f"cli.{label}" + (".dry_run" if args[0].dry_run else "")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the recorded spans and counters.

    Times are means per call unless the name says otherwise; a layer the
    workload never reaches reads 0. The trace.* entries are filled in by
    the caller, which holds the untraced run to compare against.
    """
    selfs = tracer.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), self_time in zip(tracer.spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_time

    def mean(*names, scale=1.0):
        return scale * _ratio(sum(total[n] for n in names), sum(calls[n] for n in names))

    lstm_in_step = validation = explain_predict = 0.0
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        if name.startswith("neural.lstm_") and "classifier.loss_and_grads" in tracer.ancestors(index):
            lstm_in_step += selfs[index]
        elif parent >= 0 and tracer.spans[parent][0] == "classifier.train" and name in (
                "classifier.predict_encoded", "neural.bce", "metrics.prf"):
            validation += end - start
        elif name == "classifier.predict" and parent >= 0 and tracer.spans[parent][0] == "explain.explain":
            explain_predict += end - start
    roots = [n for n in calls if n.startswith("cli.")]
    verbs = sum(calls[n] for n in roots)
    timed = tracer.timed_requests()
    timed_verbs = len(timed)
    timed_preprocess = sum(1 for name, _, _, _, request in tracer.spans
                           if name == "textprep.preprocess" and request in timed)
    counts = tracer.counts
    steps = calls["classifier.loss_and_grads"]
    return {
        "corpus.load_s": mean("corpus.load_dataset"),
        "corpus.split_s": _ratio(total["corpus.collapse_labels"] + total["corpus.combine_balanced"]
                                 + total["corpus.split"], calls["cli.prepare"]),
        "corpus.manifest_io_s": mean("corpus.write_split_manifests", "corpus.load_split_manifests"),
        "textprep.preprocess_us": mean("textprep.preprocess", scale=1e6),
        "textprep.calls": _ratio(timed_preprocess, timed_verbs),
        "textprep.pad_share": _ratio(counts["textprep.pad_positions"], counts["textprep.encoded_positions"]),
        "embed.train_cbow_s": mean("embed.train_cbow"),
        "embed.cbow_us_per_token": 1e6 * _ratio(total["embed.train_cbow"], counts["embed.token_epochs"]),
        "embed.build_vocab_s": mean("embed.build_vocab"),
        "embed.save_text_s": mean("embed.save_text"),
        "embed.load_text_s": mean("embed.load_text"),
        "neural.lstm_forward_ms": mean("neural.lstm_forward", scale=1e3),
        "neural.lstm_backward_ms": mean("neural.lstm_backward", scale=1e3),
        "neural.lstm_forward_gflops": 1e-9 * _ratio(counts["neural.lstm_forward_flops"],
                                                    total["neural.lstm_forward"]),
        "neural.lstm_backward_gflops": 1e-9 * _ratio(counts["neural.lstm_backward_flops"],
                                                     total["neural.lstm_backward"]),
        "neural.lstm_positions": _ratio(counts["neural.lstm_positions"], timed_verbs),
        "neural.dense_ms": mean("neural.dense", scale=1e3),
        "neural.bce_ms": mean("neural.bce", scale=1e3),
        "neural.adam_step_ms": mean("neural.adam_step", scale=1e3),
        "neural.lstm_step_share": _ratio(lstm_in_step, total["classifier.loss_and_grads"]),
        "classifier.step_ms": 1e3 * _ratio(total["classifier.loss_and_grads"] + total["neural.adam_step"], steps),
        "classifier.validation_s": _ratio(validation, calls["classifier.train"]),
        "classifier.save_s": mean("classifier.save"),
        "classifier.forward_rows_per_s": _ratio(counts["classifier.rows_forwarded"],
                                                total["classifier.forward_probs"]),
        "classifier.encode_texts_ms": mean("classifier.encode_texts", scale=1e3),
        "classifier.rows_forwarded": _ratio(counts["classifier.rows_forwarded"], timed_verbs),
        "classifier.redundant_row_share": _ratio(
            counts["classifier.rows_forwarded"] - counts["classifier.distinct_rows"],
            counts["classifier.rows_forwarded"]),
        "classifier.load_s": mean("classifier.load"),
        "metrics.report_self_s": _ratio(own["metrics.report"], calls["metrics.report"]),
        "metrics.roc_auc_ms": mean("metrics.roc_auc", scale=1e3),
        "metrics.write_csv_ms": mean("metrics.write_csv", scale=1e3),
        "metrics.prf_ms": mean("metrics.prf", scale=1e3),
        "explain.perturb_ms": mean("explain.perturb", scale=1e3),
        "explain.fit_local_ms": mean("explain.fit_local", scale=1e3),
        "explain.predictor_share": _ratio(explain_predict, total["explain.explain"]),
        "explain.distinct_text_share": _ratio(counts["explain.distinct_texts"], counts["explain.samples"]),
        "cli.prepare_s": mean("cli.prepare"),
        "cli.embed_train_s": mean("cli.embed_train"),
        "cli.train_s": mean("cli.train"),
        "cli.evaluate_s": mean("cli.evaluate"),
        "cli.explain_s": mean("cli.explain"),
        "cli.self_s": _ratio(sum(own[n] for n in roots), verbs),
    }


def covered_by_request(tracer: Tracer) -> dict:
    """Time of each request that some layer span covers: the self times of
    every span below the verb's root span. The rest of the verb call's wall
    time is the root's own self time plus argument parsing and dispatch."""
    sums = defaultdict(float)
    for (_, _, _, parent, request), self_time in zip(tracer.spans, tracer.self_times()):
        if parent >= 0:
            sums[request] += self_time
    return sums
