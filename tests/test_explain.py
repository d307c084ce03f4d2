import numpy as np
import pytest

from hatedetect.explain import (
    DEFAULT_KERNEL_WIDTH,
    InterpretableInstance,
    explain,
    fit_local,
    kernel_weights,
    perturb,
)
from hatedetect.textprep import PipelineConfig

PLAIN = PipelineConfig(stopwords=frozenset())


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def keyword_predictor(word, gain=4.0, offset=-2.0):
    def predict(texts):
        return np.array([sigmoid(gain * (word in t.split()) + offset) for t in texts])

    return predict


class TestInstance:
    def test_distinct_features_in_first_appearance_order(self):
        instance = InterpretableInstance.from_tokens(["b", "a", "b", "c", "a"])
        assert instance.features == ("b", "a", "c")

    def test_all_ones_mask_reconstructs(self):
        instance = InterpretableInstance.from_tokens(["x", "y", "x"])
        assert instance.text_for_mask([1, 1]) == "x y x"

    def test_masking_drops_every_occurrence(self):
        instance = InterpretableInstance.from_tokens(["x", "y", "x", "z"])
        assert instance.text_for_mask([0, 1, 1]) == "y z"


class TestPerturb:
    def test_single_feature_exhaustive(self):
        instance = InterpretableInstance.from_tokens(["only"])
        masks, texts = perturb(instance, 2, seed=0)
        assert masks.tolist() == [[1], [0]]
        assert texts == ["only", ""]

    def test_first_sample_is_original(self):
        instance = InterpretableInstance.from_tokens(["a", "b", "c", "b"])
        masks, texts = perturb(instance, 10, seed=3)
        assert masks[0].tolist() == [1, 1, 1]
        assert texts[0] == "a b c b"

    def test_deterministic_per_seed(self):
        instance = InterpretableInstance.from_tokens(list("abcdef"))
        first, _ = perturb(instance, 20, seed=9)
        second, _ = perturb(instance, 20, seed=9)
        assert np.array_equal(first, second)

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
            lambda texts: np.full(len(texts), 0.42),
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

    def test_each_distinct_text_scored_once(self):
        keyword = keyword_predictor("scum")
        calls = []

        def predict(texts):
            calls.append(list(texts))
            return keyword(texts)

        explanation = explain(predict, "scum and villainy", n_samples=60, seed=0, config=PLAIN)
        instance = InterpretableInstance.from_tokens(["scum", "and", "villainy"])
        masks, texts = perturb(instance, 60, 0)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(set(texts))
        expected = fit_local(masks, kernel_weights(masks), keyword(texts),
                             feature_names=instance.features)
        assert explanation.token_weights == expected.token_weights
        assert explanation.intercept == expected.intercept

    def test_predictor_output_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            explain(lambda texts: np.zeros(len(texts) + 1), "a b c", n_samples=10, seed=0,
                    config=PLAIN)

    def test_zero_token_text_rejected(self):
        with pytest.raises(ValueError, match="zero tokens"):
            explain(lambda texts: np.zeros(len(texts)), "!!! ...", n_samples=10, seed=0)

    def test_html_rendering(self):
        explanation = explain(
            keyword_predictor("scum"), "scum and villainy", n_samples=60, seed=0, config=PLAIN
        )
        page = explanation.to_html()
        assert page.startswith("<!DOCTYPE html>")
        assert "scum" in page
        assert "rgba(255, 127, 14" in page  # positive hue present

    def test_json_rendering(self):
        import json

        explanation = explain(
            keyword_predictor("scum"), "scum and villainy", n_samples=60, seed=0, config=PLAIN
        )
        parsed = json.loads(explanation.to_json())
        assert parsed["seed"] == 0
        assert parsed["n_samples"] == 60
        assert parsed["token_weights"]
