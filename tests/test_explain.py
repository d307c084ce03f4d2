import itertools

import numpy as np
import pytest

from hatedetect.atomic import write_json
from hatedetect.classifier import HateClassifier, ModelConfig
from hatedetect.explain import (
    DEFAULT_KERNEL_WIDTH,
    InterpretableInstance,
    explain,
    fit_local,
    kernel_weights,
    perturb,
)
from hatedetect.textprep import PipelineConfig, preprocess

from conftest import make_random_matrix, traced_peak

PLAIN = PipelineConfig(stopwords=frozenset())


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def keyword_predictor(word, gain=4.0, offset=-2.0):
    def predict(sequences):
        return np.array([sigmoid(gain * (word in s) + offset) for s in sequences])

    return predict


def kept_tokens(instance, mask):
    """Oracle: the instance tokens whose feature the mask keeps, in order."""
    keep = {f for f, bit in zip(instance.features, mask) if bit}
    return tuple(t for t in instance.tokens if t in keep)


def tiny_model(pipeline, words, seed=0):
    config = ModelConfig(hidden_size=6, dense1_size=4,
                         batch_size=16, seed=seed, pipeline=pipeline)
    return HateClassifier.build(config, make_random_matrix(words, dim=8, seed=seed))


class TestInstance:
    def test_distinct_features_in_first_appearance_order(self):
        instance = InterpretableInstance.from_tokens(["b", "a", "b", "c", "a"])
        assert instance.features == ("b", "a", "c")

    def test_all_ones_mask_reconstructs(self):
        instance = InterpretableInstance.from_tokens(["x", "y", "x"])
        masks, sequences = perturb(instance, 2, seed=0)
        assert masks[0].tolist() == [1, 1]
        assert sequences[0] == ("x", "y", "x")

    def test_masking_drops_every_occurrence(self):
        instance = InterpretableInstance.from_tokens(["x", "y", "x", "z"])
        masks, sequences = perturb(instance, 100, seed=0)
        dropped_x = [s for m, s in zip(masks.tolist(), sequences) if m == [0, 1, 1]]
        assert dropped_x and all(s == ("y", "z") for s in dropped_x)


class TestPerturb:
    def test_single_feature_exhaustive(self):
        instance = InterpretableInstance.from_tokens(["only"])
        masks, sequences = perturb(instance, 2, seed=0)
        assert masks.tolist() == [[1], [0]]
        assert sequences == [("only",), ()]

    def test_first_sample_is_original(self):
        instance = InterpretableInstance.from_tokens(["a", "b", "c", "b"])
        masks, sequences = perturb(instance, 10, seed=3)
        assert masks[0].tolist() == [1, 1, 1]
        assert sequences[0] == ("a", "b", "c", "b")

    def test_sequences_keep_unmasked_tokens_in_order(self):
        instance = InterpretableInstance.from_tokens(["x", "y", "x", "z", "y"])
        masks, sequences = perturb(instance, 300, seed=4)
        assert len(sequences) == 300
        for mask, sequence in zip(masks, sequences):
            assert sequence == kept_tokens(instance, mask)

    def test_equal_masks_share_one_sequence(self):
        instance = InterpretableInstance.from_tokens(list("abcd"))
        masks, sequences = perturb(instance, 200, seed=6)
        first = {}
        for mask, sequence in zip(map(tuple, masks.tolist()), sequences):
            assert first.setdefault(mask, sequence) is sequence
        assert len(first) == len({id(s) for s in sequences})

    def test_removed_subsets_uniform(self):
        # sizes uniform over 1..F, and given a size every subset equally likely
        n_features, n_samples = 4, 24001
        instance = InterpretableInstance.from_tokens(list("abcd"))
        masks, _ = perturb(instance, n_samples, seed=11)
        removed = 1 - masks[1:]
        sizes = removed.sum(axis=1)
        for size in range(1, n_features + 1):
            assert np.mean(sizes == size) == pytest.approx(1 / n_features, abs=0.015)
        pairs = removed[sizes == 2]
        for subset in itertools.combinations(range(n_features), 2):
            share = np.mean(pairs[:, list(subset)].sum(axis=1) == 2)
            assert share == pytest.approx(1 / 6, abs=0.025)

    def test_deterministic_per_seed(self):
        instance = InterpretableInstance.from_tokens(list("abcdef"))
        first, first_sequences = perturb(instance, 20, seed=9)
        second, second_sequences = perturb(instance, 20, seed=9)
        assert np.array_equal(first, second)
        assert first_sequences == second_sequences

    def test_each_perturbed_sample_removes_something(self):
        instance = InterpretableInstance.from_tokens(list("abcde"))
        masks, _ = perturb(instance, 50, seed=1)
        assert np.all(masks[1:].sum(axis=1) < 5)

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError):
            perturb(InterpretableInstance.from_tokens([]), 5, seed=0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            perturb(InterpretableInstance.from_tokens(["a"]), 1, seed=0)


class TestKernel:
    def test_all_ones(self):
        assert kernel_weights([[1, 1, 1]])[0] == 1.0

    def test_all_zero(self):
        assert kernel_weights([[0, 0, 0]], kernel_width=25.0)[0] == pytest.approx(
            np.exp(-1.0 / 625.0), abs=1e-12
        )

    def test_non_increasing_along_nested_chain(self):
        mask = [1] * 8
        previous = kernel_weights([mask])[0]
        for i in range(8):
            mask[i] = 0
            current = kernel_weights([mask])[0]
            assert current <= previous + 1e-15
            previous = current

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            kernel_weights([[]])
        with pytest.raises(ValueError):
            kernel_weights([])

    def test_rows_match_cosine_distance(self):
        rng = np.random.default_rng(0)
        masks = (rng.random((20, 6)) < 0.5).astype(int)
        batch = kernel_weights(masks)
        ones = np.ones(6)
        for row, weight in zip(masks, batch):
            norm = np.linalg.norm(row)
            distance = 1.0 if norm == 0 else 1.0 - row @ ones / (norm * np.linalg.norm(ones))
            expected = np.exp(-(distance**2) / DEFAULT_KERNEL_WIDTH**2)
            assert weight == pytest.approx(expected, abs=1e-15)
            assert kernel_weights(row[None])[0] == weight


class TestFitLocal:
    def test_constant_probabilities_zero_coefficients(self):
        rng = np.random.default_rng(1)
        masks = (rng.random((30, 4)) < 0.5).astype(int)
        masks[0] = 1
        weights = kernel_weights(masks)
        explanation = fit_local(masks, weights, np.full(30, 0.37), top_k=4)
        assert all(abs(w) < 1e-8 for _, w in explanation.token_weights)
        assert explanation.intercept == pytest.approx(0.37, abs=1e-8)

    def test_linear_in_one_feature(self):
        rng = np.random.default_rng(2)
        masks = (rng.random((40, 3)) < 0.5).astype(int)
        masks[0] = 1
        probabilities = 0.2 + 0.6 * masks[:, 1]
        explanation = fit_local(masks, kernel_weights(masks), probabilities, top_k=3,
                                feature_names=("a", "b", "c"))
        top_token, top_weight = explanation.token_weights[0]
        assert top_token == "b"
        assert top_weight > 0.0

    def test_matches_closed_form_on_tiny_design(self):
        # independent oracle: normal equations assembled by hand loops and
        # solved with an explicit inverse
        masks = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=float)
        weights = np.array([1.0, 0.9, 0.8, 0.7])
        probabilities = np.array([0.9, 0.7, 0.4, 0.2])
        ridge = 1.0
        design = np.array([[1.0, *row] for row in masks])
        normal = np.zeros((3, 3))
        moment = np.zeros(3)
        for row, weight, target in zip(design, weights, probabilities):
            for i in range(3):
                moment[i] += weight * row[i] * target
                for j in range(3):
                    normal[i, j] += weight * row[i] * row[j]
        normal[1, 1] += ridge
        normal[2, 2] += ridge
        expected = np.linalg.inv(normal) @ moment
        explanation = fit_local(masks, weights, probabilities, top_k=2,
                                feature_names=("u", "v"), ridge=ridge)
        fitted = dict(explanation.token_weights)
        assert fitted["u"] == pytest.approx(expected[1], abs=1e-10)
        assert fitted["v"] == pytest.approx(expected[2], abs=1e-10)
        assert explanation.intercept == pytest.approx(expected[0], abs=1e-10)

    def test_top_k_clamps(self):
        masks = np.array([[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
        explanation = fit_local(masks, np.ones(4), np.array([0.5, 0.4, 0.6, 0.5]), top_k=10)
        assert len(explanation.token_weights) == 3

    def test_degenerate_design_rejected(self):
        masks = np.ones((5, 3))
        with pytest.raises(ValueError, match="degenerate"):
            fit_local(masks, np.ones(5), np.full(5, 0.5), top_k=2)


class TestExplain:
    def test_constant_predictor_near_zero_weights(self):
        explanation = explain(
            lambda sequences: np.full(len(sequences), 0.42),
            "one two three four five",
            n_samples=150,
            seed=0,
            config=PLAIN,
        )
        assert all(abs(w) < 1e-6 for _, w in explanation.token_weights)

    def test_keyword_predictor_top_feature(self):
        hits = 0
        for seed in range(10):
            explanation = explain(
                keyword_predictor("scum"),
                "you scum people ruin everything here",
                n_samples=200,
                seed=seed,
                config=PLAIN,
            )
            token, weight = explanation.token_weights[0]
            hits += token == "scum" and weight > 0
        assert hits >= 9

    def test_replay_identical(self):
        predict = keyword_predictor("vermin")
        kwargs = dict(n_samples=120, top_k=4, seed=17, config=PLAIN)
        first = explain(predict, "the vermin are back again", **kwargs)
        second = explain(predict, "the vermin are back again", **kwargs)
        assert first == second
        assert first.seed == 17
        assert first.n_samples == 120

    def test_reported_tokens_subset_of_instance(self):
        explanation = explain(
            keyword_predictor("trash"), "take the trash out now", n_samples=100,
            seed=2, config=PLAIN,
        )
        assert {t for t, _ in explanation.token_weights} <= set(explanation.tokens)

    def test_monotone_predictor_nonnegative_coefficient(self):
        rng = np.random.default_rng(5)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        for trial in range(50):
            target = words[trial % len(words)]
            gain = float(rng.uniform(0.5, 5.0))
            offset = float(rng.uniform(-2.0, 0.0))
            explanation = explain(
                keyword_predictor(target, gain, offset),
                " ".join(words),
                n_samples=120,
                top_k=len(words),
                seed=trial,
                config=PLAIN,
            )
            assert dict(explanation.token_weights)[target] >= 0.0

    def test_each_distinct_sequence_scored_once(self):
        keyword = keyword_predictor("scum")
        calls = []

        def predict(sequences):
            calls.append(list(sequences))
            return keyword(sequences)

        explanation = explain(predict, "scum and villainy", n_samples=60, seed=0, config=PLAIN)
        instance = InterpretableInstance.from_tokens(["scum", "and", "villainy"])
        masks, sequences = perturb(instance, 60, 0)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(set(sequences))
        assert len(calls[0]) == len(set(calls[0]))
        expected = fit_local(masks, kernel_weights(masks), keyword(sequences),
                             feature_names=instance.features)
        assert explanation.token_weights == expected.token_weights
        assert explanation.intercept == expected.intercept

    def test_text_predictor_through_adapter(self):
        def text_predict(texts):
            return np.array([sigmoid(4.0 * ("scum" in t.split()) - 2.0) for t in texts])

        kwargs = dict(n_samples=80, seed=5, config=PLAIN)
        adapted = explain(lambda seqs: text_predict([" ".join(s) for s in seqs]),
                          "you scum people ruin everything", **kwargs)
        direct = explain(keyword_predictor("scum"), "you scum people ruin everything", **kwargs)
        assert adapted == direct

    def test_predictor_output_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            explain(lambda sequences: np.zeros(len(sequences) + 1), "a b c", n_samples=10, seed=0,
                    config=PLAIN)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        def predict(sequences):
            scores = np.full(len(sequences), 0.5)
            scores[-1] = bad
            return scores

        with pytest.raises(ValueError, match="non-finite"):
            explain(predict, "a b c", n_samples=10, seed=0, config=PLAIN)

    def test_zero_token_text_rejected(self):
        with pytest.raises(ValueError, match="zero tokens"):
            explain(lambda sequences: np.zeros(len(sequences)), "!!! ...", n_samples=10, seed=0)

    def test_html_rendering(self):
        explanation = explain(
            keyword_predictor("scum"), "scum and villainy", n_samples=60, seed=0, config=PLAIN
        )
        page = explanation.to_html()
        assert page.startswith("<!DOCTYPE html>")
        assert "scum" in page
        assert "rgba(255, 127, 14" in page  # positive hue present

    def test_json_rendering(self, tmp_path):
        import json

        explanation = explain(
            keyword_predictor("scum"), "scum and villainy", n_samples=60, seed=0, config=PLAIN
        )
        write_json(tmp_path / "explanation.json", explanation.to_dict())
        parsed = json.loads((tmp_path / "explanation.json").read_text(encoding="utf-8"))
        assert parsed["seed"] == 0
        assert parsed["n_samples"] == 60
        assert parsed["token_weights"]


class TestModelPredictor:
    def test_token_scores_equal_text_scores_bitwise(self):
        # Under the default pipeline a sample's joined text preprocesses back
        # to its tokens, so predict_tokens scores what predict would.
        pipeline = PipelineConfig(max_len=12)
        texts = [
            "You SCUM people can't ruin https://t.co/x everything, @them #here",
            "vermin   vermin\u2028and naïve trash won’t go",
            "filth",
        ]
        tokens = sorted({t for text in texts for t in preprocess(text, pipeline)})
        model = tiny_model(pipeline, tokens[::2])  # the rest are out of vocabulary
        for text in texts:
            instance = InterpretableInstance.from_tokens(preprocess(text, pipeline))
            n_features = len(instance.features)
            masks = np.array(list(itertools.product((0, 1), repeat=n_features))[-64:])
            sequences = [kept_tokens(instance, mask) for mask in masks]
            by_tokens = model.predict_tokens(sequences)
            by_text = model.predict([" ".join(s) for s in sequences])
            assert by_tokens.tobytes() == by_text.tobytes()
            assert by_tokens[-1] == model.predict([text])[0]

    def test_all_ones_sample_scores_like_predict(self):
        # Lowercasing "İ" emits U+0307, which opens a word boundary, so the
        # joined tokens re-preprocess differently when punctuation is kept.
        # Sample 0 must still score the model's own tokens.
        pipeline = PipelineConfig(strip_punctuation=False, stopwords=frozenset(), max_len=12)
        text = "İwon't stop"
        tokens = preprocess(text, pipeline)
        assert tokens == ["i\u0307won't", "stop"]
        assert preprocess(" ".join(tokens), pipeline) == ["i\u0307will", "not", "stop"]
        model = tiny_model(pipeline, [*tokens, "i\u0307will", "not"])
        scored = {}

        def predict(sequences):
            scores = model.predict_tokens(sequences)
            scored.update(zip(sequences, scores.tolist()))
            return scores

        explain(predict, text, n_samples=20, seed=0, config=pipeline)
        assert scored[tuple(tokens)] == model.predict([text])[0]

    def test_long_text_costs_only_its_first_max_len_tokens(self):
        # A ~100k-token text (about 0.5 MB) with 1,000 distinct tokens. The
        # model reads the first max_len tokens, and neither predict nor
        # explain, preprocessing included, may pay for the rest: they peak
        # at about 25 kB and 135 kB, where a whole-text preprocess takes 6.6 MB.
        pipeline = PipelineConfig(stopwords=frozenset(), max_len=50)
        words = [f"w{i}" for i in range(1000)]
        model = tiny_model(pipeline, words[:50])
        text = " ".join(words[i % len(words)] for i in range(100_000))
        head = " ".join(words[:50])
        probs, peak = traced_peak(lambda: model.predict([text]))
        assert peak < 0.1e6
        assert probs.tobytes() == model.predict([head]).tobytes()
        explanation, peak = traced_peak(
            lambda: explain(model.predict_tokens, text, n_samples=20, seed=0, config=pipeline)
        )
        assert peak < 0.4e6
        assert explanation.tokens == tuple(words[:50])
        assert explanation == explain(
            model.predict_tokens, head, n_samples=20, seed=0, config=pipeline
        )
