import json

import numpy as np
import pytest

from hatedetect.atomic import write_json
from hatedetect.corpus import HATE, NON_HATE, LabeledExample
from hatedetect.metrics import (
    PER_CLASS,
    WEIGHTED,
    ConfusionMatrix,
    _midranks,
    confusion,
    evaluate_predictions,
    prf,
    report,
    roc_auc,
    score_external,
    write_labels_csv,
    write_predictions_csv,
)

from oracles import brute_force_auc, brute_force_prf, midranks

H, N = HATE, NON_HATE


def random_label_set(rng, n):
    """Random scores and labels with both classes present; ties likely."""
    scores = np.round(rng.random(n), 2)
    labels = [H if rng.random() < 0.5 else N for _ in range(n)]
    labels[0], labels[1] = H, N
    return scores, labels


class TestConfusion:
    def test_hand_counted(self):
        cm = confusion([H, H, N, N], [H, N, N, N])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 2)

    def test_perfect(self):
        cm = confusion([H, N, H], [H, N, H])
        assert cm.fp == 0 and cm.fn == 0

    def test_fully_inverted(self):
        cm = confusion([N, H, N], [H, N, H])
        assert cm.tp == 0 and cm.tn == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([H], [H, N])

    def test_non_binary_label(self):
        with pytest.raises(ValueError, match="maybe"):
            confusion([H, "maybe"], [H, N])

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            predicted = [H if rng.random() < 0.5 else N for _ in range(n)]
            actual = [H if rng.random() < 0.5 else N for _ in range(n)]
            assert confusion(predicted, actual).total == n


class TestPrf:
    def test_hand_case(self):
        predicted, actual = [H, H, N, N], [H, N, N, N]
        per_class = prf((predicted, actual), PER_CLASS)
        assert per_class[H].f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert per_class[N].f1 == pytest.approx(0.8, abs=1e-12)
        weighted = prf((predicted, actual), WEIGHTED)
        assert weighted.f1 == pytest.approx((1 * (2.0 / 3.0) + 3 * 0.8) / 4, abs=1e-12)
        assert weighted.f1 == pytest.approx(0.76667, abs=5e-6)

    def test_all_correct(self):
        scores = prf(([H, N, H], [H, N, H]), WEIGHTED)
        assert scores == (1.0, 1.0, 1.0)

    def test_zero_denominator_convention(self):
        # no predicted hate and no actual hate
        per_class = prf(([N, N], [N, N]), PER_CLASS)
        assert per_class[H] == (0.0, 0.0, 0.0)
        weighted = prf(([N, N], [N, N]), WEIGHTED)
        assert weighted == per_class[N]

    def test_accepts_confusion_matrix(self):
        cm = ConfusionMatrix(tp=1, fp=1, fn=0, tn=2)
        assert prf(cm, WEIGHTED) == prf(([H, H, N, N], [H, N, N, N]), WEIGHTED)

    def test_unknown_averaging(self):
        with pytest.raises(ValueError):
            prf(([H], [H]), "macro")

    def test_weighted_equals_support_weighted_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            predicted = [H if rng.random() < 0.4 else N for _ in range(n)]
            actual = [H if rng.random() < 0.5 else N for _ in range(n)]
            per_class = prf((predicted, actual), PER_CLASS)
            weighted = prf((predicted, actual), WEIGHTED)
            support_h = sum(1 for a in actual if a == H)
            support_n = n - support_h
            for i in range(3):
                expected = (support_h * per_class[H][i] + support_n * per_class[N][i]) / n
                assert abs(weighted[i] - expected) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            predicted = [H if rng.random() < 0.5 else N for _ in range(n)]
            actual = [H if rng.random() < 0.5 else N for _ in range(n)]
            oracle = brute_force_prf(predicted, actual)
            per_class = prf((predicted, actual), PER_CLASS)
            weighted = prf((predicted, actual), WEIGHTED)
            for label in (H, N):
                assert abs(per_class[label].precision - oracle[label]["precision"]) < 1e-12
                assert abs(per_class[label].recall - oracle[label]["recall"]) < 1e-12
                assert abs(per_class[label].f1 - oracle[label]["f1"]) < 1e-12
            assert abs(weighted.f1 - oracle["weighted"]["f1"]) < 1e-12


class TestRocAuc:
    def test_fully_concordant(self):
        assert roc_auc([0.9, 0.8, 0.4, 0.35], [H, H, N, N]) == 1.0

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            scores, labels = random_label_set(rng, int(rng.integers(2, 40)))
            inverted = [N if label == H else H for label in labels]
            assert abs(roc_auc(scores, labels) + roc_auc(scores, inverted) - 1.0) < 1e-12

    def test_all_ties(self):
        assert roc_auc([0.7, 0.7, 0.7], [H, N, H]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            roc_auc([0.1, 0.9], [H, H])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc([0.5], [H, N])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="2 of 4 scores are not finite"):
            roc_auc([np.nan, 0.2, np.nan, 0.9], [H, N, N, H])
        with pytest.raises(ValueError, match="1 of 2"):
            roc_auc([np.inf, 0.2], [H, N])

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, labels = random_label_set(rng, int(rng.integers(2, 40)))
            assert abs(roc_auc(scores, labels) - roc_auc(scores**3, labels)) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores, labels = random_label_set(rng, int(rng.integers(2, 64)))
            assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-9

    def test_midranks_match_loop_reference(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 7, 64, 301):
            values = rng.integers(-3, max(1, n // 3), n) / 4.0  # mostly ties
            assert _midranks(values).tolist() == midranks(values.tolist())
        infinite = [np.inf, 0.5, -np.inf, np.inf]
        assert _midranks(np.array(infinite)).tolist() == midranks(infinite) == [3.5, 2.0, 1.0, 3.5]


class FakeModel:
    """Duck-typed stand-in: fixed score per text."""

    def __init__(self, score_of, threshold=0.5):
        self.score_of = score_of
        self.threshold = threshold

    def predict(self, texts):
        return np.array([self.score_of(t) for t in texts])


def labeled(texts_and_labels):
    return [
        LabeledExample(id=f"e:{i}", text=text, raw_label="r", binary_label=label)
        for i, (text, label) in enumerate(texts_and_labels)
    ]


class TestReport:
    def test_perfect_model(self):
        examples = labeled([("bad", H), ("fine", N), ("worse", H), ("ok", N)])
        model = FakeModel(lambda t: 0.9 if t in ("bad", "worse") else 0.1)
        result = report(model, examples)
        assert result.weighted.f1 == 1.0
        assert result.auc == 1.0
        assert result.accuracy == 1.0

    def test_constant_half_scorer(self):
        # with the >= rule everything is predicted hate: recall(hate)=1 and
        # precision(hate) equals the hate prevalence
        examples = labeled([("a", H), ("b", N), ("c", N), ("d", N)])
        result = report(FakeModel(lambda t: 0.5), examples)
        assert result.per_class[H].recall == 1.0
        assert result.per_class[H].precision == pytest.approx(0.25)

    def test_single_class_split_drops_auc(self, caplog):
        examples = labeled([("a", H), ("b", H)])
        with caplog.at_level("WARNING"):
            result = report(FakeModel(lambda t: 0.9), examples)
        assert result.auc is None
        assert result.weighted.f1 == 1.0
        assert "AUC" in caplog.text

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            report(FakeModel(lambda t: 0.5), [])

    def test_each_text_scored_once_and_thresholded(self):
        calls = []

        class CountingModel(FakeModel):
            def predict(self, texts):
                calls.append(list(texts))
                return super().predict(texts)

        examples = labeled([("a", H), ("b", N), ("c", H), ("d", N)])
        scores = {"a": 0.9, "b": 0.6, "c": 0.7, "d": 0.1}
        model = CountingModel(scores.get, threshold=0.65)
        result = report(model, examples)
        assert calls == [["a", "b", "c", "d"]]
        assert result.scores.tolist() == [0.9, 0.6, 0.7, 0.1]
        assert result.confusion_matrix.to_dict() == {"tp": 2, "fp": 0, "fn": 0, "tn": 2}
        assert report(model, examples, threshold=0.5).confusion_matrix.fp == 1

    def test_renderings(self, tmp_path):
        examples = labeled([("a", H), ("b", N)])
        result = report(FakeModel(lambda t: 0.9 if t == "a" else 0.2), examples)
        write_json(tmp_path / "metrics.json", result.to_dict())
        parsed = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
        assert parsed["confusion_matrix"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        # metrics.json's key order; the scores stay out of it
        assert list(parsed) == ["per_class", "weighted", "accuracy", "auc", "supports",
                                "confusion_matrix"]
        assert [list(s) for s in (*parsed["per_class"].values(), parsed["weighted"])] == [
            ["precision", "recall", "f1"]] * 3
        text = result.to_text()
        assert "weighted-F1" in text and "confusion matrix" in text


class TestScoreExternal:
    def test_roundtrip_matches_internal_report(self, tmp_path):
        examples = labeled(
            [("aa", H), ("bb", N), ("cc", H), ("dd", N), ("ee", H), ("ff", N)]
        )
        model = FakeModel(lambda t: {"aa": 0.91, "bb": 0.4, "cc": 0.77, "dd": 0.5,
                                     "ee": 0.12, "ff": 0.03}[t])
        internal = report(model, examples)
        ids = [e.id for e in examples]
        write_predictions_csv(tmp_path / "p.csv", ids, model.predict([e.text for e in examples]))
        write_labels_csv(tmp_path / "l.csv", ids, [e.binary_label for e in examples])
        external = score_external(tmp_path / "p.csv", tmp_path / "l.csv")
        assert external == internal

    def test_unknown_id(self, tmp_path):
        write_predictions_csv(tmp_path / "p.csv", ["a", "b"], [0.1, 0.9])
        write_labels_csv(tmp_path / "l.csv", ["a", "zzz"], [H, N])
        with pytest.raises(ValueError, match="align"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    def test_score_out_of_range(self, tmp_path):
        write_predictions_csv(tmp_path / "p.csv", ["a", "b"], [0.1, 1.3])
        write_labels_csv(tmp_path / "l.csv", ["a", "b"], [H, N])
        with pytest.raises(ValueError, match="range"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    def test_missing_file(self, tmp_path):
        write_labels_csv(tmp_path / "l.csv", ["a"], [H])
        with pytest.raises(FileNotFoundError):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    def test_bom_header_and_crlf(self, tmp_path):
        (tmp_path / "p.csv").write_bytes("\ufeffid,score\r\na,0.9\r\nb,0.2\r\n".encode("utf-8"))
        (tmp_path / "l.csv").write_bytes(
            "\ufeffid,label\r\na,hate\r\nb,nonhate\r\n".encode("utf-8"))
        write_predictions_csv(tmp_path / "p2.csv", ["a", "b"], [0.9, 0.2])
        write_labels_csv(tmp_path / "l2.csv", ["a", "b"], [H, N])
        expected = score_external(tmp_path / "p2.csv", tmp_path / "l2.csv")
        assert score_external(tmp_path / "p.csv", tmp_path / "l.csv") == expected

    @pytest.mark.parametrize("row", ["b", "b,", "b,high", "b,0.5x"])
    def test_score_that_is_not_a_number_names_file_and_id(self, tmp_path, row):
        # a short row's score reads as ""
        (tmp_path / "p.csv").write_text(f"id,score\na,0.5\n{row}\n")
        write_labels_csv(tmp_path / "l.csv", ["a", "b"], [H, N])
        with pytest.raises(ValueError, match=r"p\.csv: score .* for id 'b' is not a number"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    @pytest.mark.parametrize("row", ["b", "b,", "b,Hate", "b,spam"])
    def test_label_outside_the_two_classes_names_file_and_id(self, tmp_path, row):
        # a short row's label reads as ""
        write_predictions_csv(tmp_path / "p.csv", ["a", "b"], [0.5, 0.2])
        (tmp_path / "l.csv").write_text(f"id,label\na,hate\n{row}\n")
        with pytest.raises(ValueError, match=r"l\.csv: label .* for id 'b' is not one of"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    def test_duplicate_id_and_no_rows(self, tmp_path):
        (tmp_path / "p.csv").write_text("id,score\na,0.5\na,0.6\n")
        (tmp_path / "l.csv").write_text("id,label\n")
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")
        write_predictions_csv(tmp_path / "p.csv", ["a"], [0.5])
        with pytest.raises(ValueError, match="no data rows"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")

    def test_bad_header(self, tmp_path):
        (tmp_path / "p.csv").write_text("identifier,value\na,0.5\n")
        write_labels_csv(tmp_path / "l.csv", ["a"], [H])
        with pytest.raises(ValueError, match="column"):
            score_external(tmp_path / "p.csv", tmp_path / "l.csv")


class TestEvaluatePredictions:
    def test_metric_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            scores, labels = random_label_set(rng, n)
            predicted = [H if s >= 0.5 else N for s in scores]
            result = evaluate_predictions(scores, predicted, labels)
            values = [result.accuracy, result.weighted.f1, result.weighted.precision,
                      result.weighted.recall]
            values += [result.per_class[c][i] for c in (H, N) for i in range(3)]
            if result.auc is not None:
                values.append(result.auc)
            assert all(0.0 <= v <= 1.0 for v in values)
            low = min(result.per_class[H].f1, result.per_class[N].f1)
            high = max(result.per_class[H].f1, result.per_class[N].f1)
            assert low - 1e-12 <= result.weighted.f1 <= high + 1e-12
