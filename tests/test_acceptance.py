"""Acceptance suite: every release criterion with its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion. Criteria that need the original public datasets skip with
an explanatory line unless HATEDETECT_DATA points at a directory holding
them (see README for the expected files).
"""

import csv
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hatedetect import classifier as classifier_mod
from hatedetect.classifier import HateClassifier, ModelConfig, train
from hatedetect.corpus import (
    HATE,
    NON_HATE,
    DatasetSpec,
    collapse_labels,
    combine_balanced,
    load_dataset,
    split,
    stats,
)
from hatedetect.embed import CbowConfig, train_cbow
from hatedetect.explain import explain
from hatedetect.metrics import PER_CLASS, WEIGHTED, prf, report, roc_auc
from hatedetect.textprep import PipelineConfig, expand_contractions, preprocess, sequence_lengths

from conftest import make_keyword_examples
from oracles import batch_loss, brute_force_auc, brute_force_prf, cosine, finite_diff_grad

H, N = HATE, NON_HATE


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name} ({time.perf_counter() - started:.1f}s)")


def random_prediction_set(rng, max_n=64):
    n = int(rng.integers(2, max_n + 1))
    scores = np.round(rng.random(n), 2)
    actual = [H if rng.random() < 0.5 else N for _ in range(n)]
    actual[0], actual[1] = H, N  # both classes present
    predicted = [H if s >= 0.5 else N for s in scores]
    return scores, predicted, actual


def test_criterion_1_metric_oracle_equivalence():
    with criterion("1 metric oracle equivalence (200 random sets, 1e-9)"):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(200):
            scores, predicted, actual = random_prediction_set(rng)
            oracle = brute_force_prf(predicted, actual)
            per_class = prf((predicted, actual), PER_CLASS)
            weighted = prf((predicted, actual), WEIGHTED)
            for label in (H, N):
                for key, value in zip(("precision", "recall", "f1"), per_class[label]):
                    assert abs(value - oracle[label][key]) < 1e-9
            for key, value in zip(("precision", "recall", "f1"), weighted):
                assert abs(value - oracle["weighted"][key]) < 1e-9
            assert abs(roc_auc(scores, actual) - brute_force_auc(scores, actual)) < 1e-9
        assert time.perf_counter() - started < 10.0


def test_criterion_2_gradient_verification():
    with criterion("2 full-model gradients vs central finite differences (<1e-4)"):
        started = time.perf_counter()
        d, h, length, batch, vocab_size = 8, 5, 7, 3, 12
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            config = ModelConfig(
                hidden_size=h,
                dense1_size=4,
                embeddings_trainable=(trial % 2 == 0),
                dense1_activation=("identity", "relu", "sigmoid")[trial % 3],
                seed=trial,
                pipeline=PipelineConfig(max_len=length),
            )
            table = rng.normal(0.0, 0.3, (vocab_size, d))
            table[0] = 0.0
            params = classifier_mod.init_params(config, table, dtype=np.float64)
            # Every fifth batch is right-padded to mixed lengths, shorter than
            # max_len and one of them all PAD (id 0), so the oracle checks the
            # packed scan's length handling and the batch trim.
            padded = trial % 5 == 0
            token_ids = rng.integers(int(padded), vocab_size, (batch, length))
            if padded:
                lengths = np.array([length - 2, 2, 0])
                token_ids[np.arange(length) >= lengths[:, None]] = 0
                assert np.array_equal(sequence_lengths(token_ids), lengths)
                # The all-PAD row has zero features, so with dense1's zero
                # initial bias it would sit on ReLU's kink, where finite
                # differences see half the slope.
                params["dense1_bias"] += rng.normal(0.0, 0.3, params["dense1_bias"].shape)
            labels = rng.integers(0, 2, batch).astype(np.float64)
            _, analytic = classifier_mod.loss_and_grads(params, token_ids, labels, config)
            numeric = finite_diff_grad(
                lambda p: batch_loss(p, token_ids, labels, config),
                params,
                step=1e-5,
            )
            for name in analytic:
                a, b = analytic[name], numeric[name]
                # denominator floored at 1e-6: absolute FD noise (~1e-11)
                # on near-zero entries must not drown the comparison
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
                assert np.max(np.abs(a - b) / denom) < 1e-4, name
        assert time.perf_counter() - started < 120.0


def two_topic_corpus(seed=7, sentences=2000, vocab_per_topic=50):
    rng = np.random.default_rng(seed)
    topics = (
        [f"a{i:02d}" for i in range(vocab_per_topic)],
        [f"b{i:02d}" for i in range(vocab_per_topic)],
    )
    corpus = []
    for i in range(sentences):
        words = topics[i % 2]
        length = int(rng.integers(8, 13))
        corpus.append([words[j] for j in rng.integers(0, vocab_per_topic, length)])
    return corpus, topics


def test_criterion_3_cbow_sanity():
    with criterion("3 CBOW two-topic sanity (cosine gap >= 0.2, objective non-increasing)"):
        started = time.perf_counter()
        corpus, (topic_a, topic_b) = two_topic_corpus()
        config = CbowConfig(
            window=5, dim=16, negative=5, epochs=5, min_count=1, subsample=0.0, seed=7
        )
        matrix, history = train_cbow(corpus, config)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))
        vectors, vocab = matrix.vectors, matrix.vocab
        index_a = [vocab.index[t] for t in topic_a]
        index_b = [vocab.index[t] for t in topic_b]

        def mean_cosine(left, right, skip_self):
            values = []
            for x in left:
                for y in right:
                    if skip_self and x >= y:
                        continue
                    values.append(cosine(vectors[x], vectors[y]))
            return float(np.mean(values))

        intra = 0.5 * (mean_cosine(index_a, index_a, True) + mean_cosine(index_b, index_b, True))
        inter = mean_cosine(index_a, index_b, False)
        assert intra - inter >= 0.2
        assert time.perf_counter() - started < 60.0


def keyword_pipeline_run(examples, seed=5):
    pipeline = PipelineConfig(stopwords=frozenset(), max_len=20)
    bundle = split(examples, (0.6, 0.2, 0.2), seed=seed)
    sequences = [preprocess(e.text, pipeline) for e in bundle.train]
    embed_config = CbowConfig(
        window=5, dim=16, negative=5, epochs=3, min_count=1, subsample=0.0, seed=seed
    )
    matrix, _ = train_cbow(sequences, embed_config)
    model_config = ModelConfig(
        hidden_size=16,
        dense1_size=8,
        batch_size=32,
        epochs=10,
        learning_rate=3e-3,
        embeddings_trainable=True,
        seed=seed,
        pipeline=pipeline,
    )
    model = HateClassifier.build(model_config, matrix)
    history, best = train(model, bundle)
    return bundle, history, best


def test_criterion_4a_synthetic_end_to_end(keyword_examples):
    with criterion("4a synthetic keyword pipeline (held-out weighted F1 >= 0.95)"):
        started = time.perf_counter()
        bundle, history, best = keyword_pipeline_run(keyword_examples)
        assert len(history.records) == 10
        result = report(best, bundle.test)
        assert result.weighted.f1 >= 0.95
        assert time.perf_counter() - started < 300.0


DATA_ENV = "HATEDETECT_DATA"

DATASET_PROFILES = {
    # file name, text column, label column, mapping, (hate, nonhate) counts
    "davidson.csv": ("tweet", "class", {"0": H, "1": H, "2": N}, (20620, 4163)),
    "waseem_emnlp.csv": (
        "text",
        "label",
        {"racism": H, "sexism": H, "both": H, "neither": N},
        (1059, 5850),
    ),
    "waseem_naacl.csv": (
        "text",
        "label",
        {"racist": H, "sexist": H, "neither": N},
        (5406, 11501),
    ),
}
DOCUMENTED_COMBINED_PER_CLASS = 16260  # below the computable minority count (21514)


def test_criterion_4b_davidson_directional():
    data_dir = os.environ.get(DATA_ENV)
    path = Path(data_dir or "") / "davidson.csv"
    if not data_dir or not path.exists():
        print("ACCEPTANCE SKIP: 4b davidson directional check "
              f"(set {DATA_ENV} and provide davidson.csv to run)")
        pytest.skip(f"{DATA_ENV} not set or davidson.csv absent")
    with criterion("4b davidson directional check (held-out weighted F1 >= 0.88)"):
        started = time.perf_counter()
        text_col, label_col, mapping, _ = DATASET_PROFILES["davidson.csv"]
        spec = DatasetSpec("davidson", str(path), text_col, label_col)
        collapsed, _ = collapse_labels(load_dataset(spec), mapping)
        pipeline = PipelineConfig(max_len=30)
        bundle = split(collapsed, (0.6, 0.2, 0.2), seed=13)
        sequences = [preprocess(e.text, pipeline) for e in bundle.train]
        embed_config = CbowConfig(window=5, dim=100, negative=5, epochs=3, min_count=2, seed=13)
        matrix, _ = train_cbow(sequences, embed_config)
        model_config = ModelConfig(
            hidden_size=64,
            dense1_size=32,
            batch_size=256,
            epochs=5,
            learning_rate=1e-3,
            embeddings_trainable=True,
            seed=13,
            pipeline=pipeline,
        )
        model = HateClassifier.build(model_config, matrix)
        _, best = train(model, bundle)
        result = report(best, bundle.test)
        assert result.weighted.f1 >= 0.88
        assert time.perf_counter() - started < 1800.0


def write_profile_fixture(path, text_col, label_col, mapping, counts):
    """Synthetic file with exactly the documented per-class row counts."""
    hate_labels = sorted(raw for raw, binary in mapping.items() if binary == H)
    nonhate_labels = sorted(raw for raw, binary in mapping.items() if binary == N)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([text_col, label_col])
        row = 0
        for count, labels in ((counts[0], hate_labels), (counts[1], nonhate_labels)):
            for i in range(count):
                writer.writerow([f"text {row}", labels[i % len(labels)]])
                row += 1


def test_criterion_5_dataset_plumbing(tmp_path):
    with criterion("5 dataset plumbing (documented counts, expansion, exact balance)"):
        assert expand_contractions("can't") == "can not"

        collapsed_sets = []
        # documented per-class counts are authoritative; the total is their
        # sum (the published 16,910 total for the third profile disagrees
        # with its own per-class counts, 5,406 + 11,501 = 16,907 -- see
        # README data notes)
        expected_totals = {"davidson.csv": 24783, "waseem_emnlp.csv": 6909,
                           "waseem_naacl.csv": 16907}
        data_dir = os.environ.get(DATA_ENV)
        using_original = False
        for name, (text_col, label_col, mapping, counts) in DATASET_PROFILES.items():
            original = Path(data_dir or "") / name
            if data_dir and original.exists():
                path = original
                using_original = True
            else:
                path = tmp_path / name
                write_profile_fixture(path, text_col, label_col, mapping, counts)
            spec = DatasetSpec(name.split(".")[0], str(path), text_col, label_col)
            examples = load_dataset(spec)
            collapsed, class_counts = collapse_labels(examples, mapping)
            assert (class_counts.hate, class_counts.nonhate) == counts, name
            assert class_counts.total == sum(counts) == expected_totals[name]
            assert stats(collapsed).to_dict() == class_counts.to_dict()
            collapsed_sets.append(collapsed)
        if not using_original:
            print("ACCEPTANCE NOTE: 5 ran on generated fixtures with the documented "
                  f"counts; set {DATA_ENV} to verify against the original files")

        minority = min(
            sum(stats(part).hate for part in collapsed_sets),
            sum(stats(part).nonhate for part in collapsed_sets),
        )
        assert minority == 21514
        balanced = combine_balanced(collapsed_sets, seed=0)
        balanced_counts = stats(balanced)
        assert balanced_counts.hate == balanced_counts.nonhate == minority

        # the documented combined size is not derivable from the source
        # counts; the per-class cap reproduces it on request
        capped = combine_balanced(collapsed_sets, seed=0,
                                  per_class_cap=DOCUMENTED_COMBINED_PER_CLASS)
        capped_counts = stats(capped)
        assert capped_counts.hate == capped_counts.nonhate == DOCUMENTED_COMBINED_PER_CLASS
        assert capped_counts.total == 32520


def test_criterion_6_lime_fidelity():
    with criterion("6 local-explanation fidelity (keyword top-1 >= 95/100)"):
        started = time.perf_counter()
        pipeline = PipelineConfig(stopwords=frozenset())

        def keyword_predictor(sequences):
            return np.array(
                [1.0 / (1.0 + np.exp(-(4.0 * ("scum" in s) - 2.0))) for s in sequences]
            )

        hits = 0
        for seed in range(100):
            explanation = explain(
                keyword_predictor,
                "you scum people ruin everything here",
                n_samples=200,
                top_k=3,
                seed=seed,
                config=pipeline,
            )
            token, weight = explanation.token_weights[0]
            hits += token == "scum" and weight > 0
        assert hits >= 95

        constant = explain(
            lambda sequences: np.full(len(sequences), 0.3),
            "nothing to see here at all",
            n_samples=200,
            seed=0,
            config=pipeline,
        )
        assert all(abs(w) < 1e-6 for _, w in constant.token_weights)
        assert time.perf_counter() - started < 60.0


def test_criterion_7_reproducibility_and_persistence(tmp_path):
    with criterion("7 reproducibility and persistence (bitwise)"):
        corpus, _ = two_topic_corpus(seed=3, sentences=150, vocab_per_topic=12)
        embed_config = CbowConfig(
            window=3, dim=8, negative=3, epochs=2, min_count=1, subsample=0.0, seed=21
        )
        first_matrix, _ = train_cbow(corpus, embed_config)
        second_matrix, _ = train_cbow(corpus, embed_config)
        assert np.array_equal(first_matrix.vectors, second_matrix.vectors)
        first_matrix.save_text(tmp_path / "a.txt")
        second_matrix.save_text(tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

        examples = make_keyword_examples(200, seed=2)
        first_bundle, _, first_best = keyword_pipeline_run_small(examples)
        second_bundle, _, second_best = keyword_pipeline_run_small(examples)
        first_best.save(tmp_path / "a.ckpt")
        second_best.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

        first_report = report(first_best, first_bundle.test)
        second_report = report(second_best, second_bundle.test)
        assert first_report == second_report

        texts = [e.text for e in first_bundle.test]
        before = first_best.predict(texts)
        loaded = HateClassifier.load(tmp_path / "a.ckpt")
        assert np.array_equal(before, loaded.predict(texts))


def keyword_pipeline_run_small(examples, seed=9):
    pipeline = PipelineConfig(stopwords=frozenset(), max_len=20)
    bundle = split(examples, seed=seed)
    sequences = [preprocess(e.text, pipeline) for e in bundle.train]
    matrix, _ = train_cbow(
        sequences,
        CbowConfig(window=3, dim=8, negative=3, epochs=2, min_count=1, subsample=0.0, seed=seed),
    )
    config = ModelConfig(
        hidden_size=6,
        dense1_size=4,
        batch_size=32,
        epochs=2,
        learning_rate=3e-3,
        embeddings_trainable=True,
        seed=seed,
        pipeline=pipeline,
    )
    model = HateClassifier.build(config, matrix)
    _, best = train(model, bundle)
    return bundle, model, best


def test_criterion_8_auc_properties():
    with criterion("8 AUC transform invariance and complement identity (1e-12)"):
        rng = np.random.default_rng(88)
        for _ in range(100):
            scores, _, actual = random_prediction_set(rng)
            base = roc_auc(scores, actual)
            assert abs(base - roc_auc(scores**3, actual)) < 1e-12
            inverted = [N if label == H else H for label in actual]
            assert abs(base + roc_auc(scores, inverted) - 1.0) < 1e-12
