import gc
import hashlib
import json
import math
import mmap
import os
import re
import struct
import sys
import threading
import time
import zipfile
import zlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hatedetect import classifier, neural
from hatedetect.classifier import (
    HateClassifier,
    ModelConfig,
    TrainHistory,
    forward_probs,
    init_params,
    loss_and_grads,
    train,
)
from hatedetect.corpus import HATE, NON_HATE, split
from hatedetect.embed import Vocabulary
from hatedetect.metrics import threshold_labels
from hatedetect.neural import AdamState, adam_step
from hatedetect.textprep import PipelineConfig

from conftest import (
    FILLER_TOKENS,
    TRIGGER_TOKENS,
    checkpoint_entries,
    edit_zip_field,
    edited_manifest,
    make_keyword_examples,
    make_random_matrix,
    traced_peak,
    write_entries,
)
from oracles import batch_loss


def small_config(**overrides):
    defaults = dict(
        hidden_size=6,
        dense1_size=4,
        batch_size=16,
        epochs=2,
        learning_rate=3e-3,
        seed=0,
        pipeline=PipelineConfig(stopwords=frozenset(), max_len=12),
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def small_model(seed=0, **overrides):
    config = small_config(seed=seed, **overrides)
    matrix = make_random_matrix([f"tok{i}" for i in range(10)], dim=8, seed=seed)
    return HateClassifier.build(config, matrix)


class TestBuild:
    def test_parameter_shapes_from_layer_arithmetic(self):
        config = ModelConfig(
            hidden_size=128,
            dense1_size=64,
            pipeline=PipelineConfig(max_len=50),
        )
        matrix = make_random_matrix(["a", "b", "c"], dim=300, seed=0)
        model = HateClassifier.build(config, matrix)
        for direction in ("fwd", "bwd"):
            assert model.params[f"{direction}_w_in"].shape == (512, 300)
            assert model.params[f"{direction}_w_rec"].shape == (512, 128)
            assert model.params[f"{direction}_bias"].shape == (512,)
        assert model.params["dense1_weights"].shape == (64, 256)
        assert model.params["dense2_weights"].shape == (1, 64)
        assert model.params["embedding"].shape == (5, 300)

    def test_equal_seed_equal_initial_weights(self):
        first = small_model(seed=4)
        second = small_model(seed=4)
        for name in first.params:
            assert np.array_equal(first.params[name], second.params[name])

    def test_different_seed_differs(self):
        first = small_model(seed=4)
        second = small_model(seed=5)
        assert not np.array_equal(first.params["fwd_w_in"], second.params["fwd_w_in"])


class TestPredict:
    def test_zeroed_output_layer_gives_exactly_half(self):
        model = small_model()
        model.params["dense2_weights"][:] = 0.0
        model.params["dense2_bias"][:] = 0.0
        probs = model.predict(["tok1 tok2", "", "unseen words"])
        assert np.all(probs == 0.5)

    def test_repeatable(self):
        model = small_model()
        a = model.predict(["tok1 tok2 tok3"])
        b = model.predict(["tok1 tok2 tok3"])
        assert np.array_equal(a, b)

    def test_batch_size_independent(self):
        model = small_model(seed=9)
        texts = [f"tok{i % 10} tok{(i + 3) % 10} tok{(i + 7) % 10}" for i in range(256)]
        batched = model.predict(texts)
        single = np.array([model.predict([t])[0] for t in texts[:16]])
        assert np.max(np.abs(batched[:16] - single)) < 1e-6

    def test_open_interval(self):
        model = small_model()
        probs = model.predict(["tok1", "tok2 tok3 tok4"])
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_empty_input(self):
        assert small_model().predict([]).shape == (0,)

    def test_features_are_the_final_states_of_both_directions(self):
        # The paper's model: the BiLSTM's last hidden state in each
        # direction, side by side, feed the dense layer and the sigmoid.
        model = small_model(seed=6)
        assert model.config.dense1_activation == "identity"
        p = {name: tensor.astype(np.float64) for name, tensor in model.params.items()}
        assert p["dense1_weights"].shape == (4, 2 * 6)
        texts = ["tok1 tok2 tok3", "tok3", "", "tok4 unseen tok5 tok6"]
        token_ids = model.encode_texts(texts)

        def last_state(direction, sequence):
            w_in, w_rec, bias = (p[f"{direction}_{name}"] for name in ("w_in", "w_rec", "bias"))
            h = np.zeros(w_rec.shape[1])
            c = np.zeros_like(h)
            for x in sequence:
                z = w_in @ x + w_rec @ h + bias
                i, f, g, o = np.split(z, 4)
                c = c / (1 + np.exp(-f)) + np.tanh(g) / (1 + np.exp(-i))
                h = np.tanh(c) / (1 + np.exp(-o))
            return h

        expected = []
        for row in token_ids:
            sequence = p["embedding"][row[row != 0]]
            features = np.concatenate((last_state("fwd", sequence),
                                       last_state("bwd", sequence[::-1])))
            hidden = p["dense1_weights"] @ features + p["dense1_bias"]
            logit = p["dense2_weights"] @ hidden + p["dense2_bias"]
            expected.append(1 / (1 + np.exp(-logit[0])))
        assert np.allclose(model.predict(texts), expected, rtol=0, atol=1e-6)


class TestClassify:
    def with_fixed_probability(self, p):
        model = small_model()
        model.params["dense1_weights"][:] = 0.0
        model.params["dense1_bias"][:] = 0.0
        model.params["dense2_weights"][:] = 0.0
        model.params["dense2_bias"][:] = math.log(p / (1.0 - p))
        return model

    def test_boundary_is_hate(self):
        model = self.with_fixed_probability(0.5)
        assert model.predict(["whatever"])[0] == 0.5
        assert threshold_labels(model.predict(["whatever"]), model.threshold) == [HATE]

    def test_below_threshold(self):
        model = self.with_fixed_probability(0.49)
        assert threshold_labels(model.predict(["x"]), model.threshold) == [NON_HATE]

    def test_high_threshold(self):
        model = self.with_fixed_probability(0.8)
        assert threshold_labels(model.predict(["x"]), 0.9) == [NON_HATE]
        assert threshold_labels(model.predict(["x"]), 0.5) == [HATE]

    def test_threshold_validation(self):
        model = small_model()
        with pytest.raises(ValueError):
            threshold_labels(model.predict(["x"]), 1.0)

    def test_raising_threshold_never_adds_hate(self):
        model = small_model(seed=2)
        texts = [f"tok{i % 10} tok{(i * 3) % 10}" for i in range(40)]
        previous_hate = None
        for threshold in (0.2, 0.4, 0.6, 0.8):
            hate_ids = {
                i for i, label in enumerate(threshold_labels(model.predict(texts), threshold))
                if label == HATE
            }
            if previous_hate is not None:
                assert hate_ids <= previous_hate
            previous_hate = hate_ids


@pytest.fixture(scope="module")
def trained_setup():
    examples = make_keyword_examples(600, seed=8)
    pipeline = PipelineConfig(stopwords=frozenset(), max_len=20)
    matrix = make_random_matrix(
        list(FILLER_TOKENS) + list(TRIGGER_TOKENS), dim=8, seed=1
    )
    config = ModelConfig(
        hidden_size=8,
        dense1_size=6,
        batch_size=32,
        epochs=10,
        learning_rate=5e-3,
        embeddings_trainable=True,
        seed=3,
        pipeline=pipeline,
    )
    bundle = split(examples, seed=3)
    model = HateClassifier.build(config, matrix)
    history, best = train(model, bundle)
    return bundle, config, matrix, history, best


class TestTrain:
    def test_history_length_matches_epochs(self, trained_setup):
        _, config, _, history, _ = trained_setup
        assert len(history.records) == config.epochs
        assert [r.epoch for r in history.records] == list(range(config.epochs))

    def test_learns_separable_data(self, trained_setup):
        bundle, _, _, history, best = trained_setup
        assert history.records[-1].validation_weighted_f1 >= 0.98
        texts = [e.text for e in bundle.test]
        predicted = threshold_labels(best.predict(texts), best.threshold)
        actual = [e.binary_label for e in bundle.test]
        accuracy = sum(p == a for p, a in zip(predicted, actual)) / len(actual)
        assert accuracy >= 0.98

    def test_selected_epoch_minimizes_validation_loss(self, trained_setup):
        _, _, _, history, _ = trained_setup
        losses = [r.validation_loss for r in history.records]
        assert losses[history.selected_epoch] == min(losses)

    def test_identical_seeds_identical_checkpoints(self, tmp_path, trained_setup):
        bundle, config, matrix, _, first_best = trained_setup
        model = HateClassifier.build(config, matrix)
        _, second_best = train(model, bundle)
        for name in first_best.params:
            assert np.array_equal(first_best.params[name], second_best.params[name])
        first_best.save(tmp_path / "a.ckpt")
        second_best.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_frozen_embeddings_unchanged(self):
        examples = make_keyword_examples(120, seed=1)
        matrix = make_random_matrix(list(FILLER_TOKENS) + list(TRIGGER_TOKENS), dim=8, seed=2)
        config = small_config(epochs=1, embeddings_trainable=False,
                              pipeline=PipelineConfig(stopwords=frozenset(), max_len=20))
        model = HateClassifier.build(config, matrix)
        before = model.params["embedding"].copy()
        _, best = train(model, split(examples, seed=0))
        assert np.array_equal(model.params["embedding"], before)
        # best shares the frozen table and owns copies of the trained tensors
        assert best.params["embedding"] is model.params["embedding"]
        assert not any(np.shares_memory(best.params[n], model.params[n])
                       for n in model.params if n != "embedding")

    def test_first_batch_loss_decreases_after_one_step(self):
        examples = make_keyword_examples(64, seed=6)
        for seed in range(10):
            config = small_config(seed=seed,
                                  pipeline=PipelineConfig(stopwords=frozenset(), max_len=20))
            matrix = make_random_matrix(
                list(FILLER_TOKENS) + list(TRIGGER_TOKENS), dim=8, seed=seed
            )
            model = HateClassifier.build(config, matrix)
            token_ids = model.encode_texts([e.text for e in examples])
            labels = np.array(
                [1.0 if e.binary_label == HATE else 0.0 for e in examples], dtype=np.float32
            )
            before = batch_loss(model.params, token_ids, labels, model.config)
            loss, grads = loss_and_grads(model.params, token_ids, labels, model.config)
            adam_step(model.params, grads, AdamState(learning_rate=model.config.learning_rate))
            after = batch_loss(model.params, token_ids, labels, model.config)
            assert after < before

    def test_empty_training_split_rejected(self, trained_setup):
        bundle, config, matrix, _, _ = trained_setup
        model = HateClassifier.build(config, matrix)
        empty = type(bundle)(
            train=[], validation=bundle.validation, test=bundle.test,
            ratios=bundle.ratios, seed=bundle.seed, stratified=bundle.stratified,
        )
        with pytest.raises(ValueError, match="training"):
            train(model, empty)

    def test_split_that_was_not_loaded_is_named_as_such(self, trained_setup):
        bundle, config, matrix, _, _ = trained_setup
        model = HateClassifier.build(config, matrix)
        for part in ("train", "validation"):
            partial = replace(bundle, **{part: None})
            with pytest.raises(ValueError, match="split was not loaded"):
                train(model, partial)


class TestLengthAware:
    """Padding must not change a score: the recurrence stops at each text's
    last token."""

    TEXTS = ["w01 scum w02 w03", "w04 w05", "vermin", "w06 w07 w08 w09 w10 w11 trash w12"]
    LONG = " ".join(FILLER_TOKENS[i % 40] for i in range(50))

    @staticmethod
    def with_max_len(model, max_len):
        pipeline = replace(model.config.pipeline, max_len=max_len)
        config = replace(model.config, pipeline=pipeline)
        return HateClassifier(config, model.vocab, model.params)

    def test_same_probability_at_any_max_len(self, trained_setup):
        _, _, _, _, best = trained_setup
        short = self.with_max_len(best, 20).predict(self.TEXTS)
        long = self.with_max_len(best, 50).predict(self.TEXTS)
        assert np.max(np.abs(short - long)) < 1e-6

    def test_texts_truncated_at_the_pipeline_max_len(self, trained_setup):
        _, _, _, _, best = trained_setup
        model = self.with_max_len(best, 5)
        assert model.encode_texts(["w01"]).shape == (1, 5)
        head = "w01 scum w02 w03 w04"
        assert model.predict([head + " vermin trash"])[0] == model.predict([head])[0]

    def test_same_probability_alone_and_beside_a_long_text(self, trained_setup):
        _, _, _, _, best = trained_setup
        model = self.with_max_len(best, 50)
        batched = model.predict([self.LONG, *self.TEXTS])[1:]
        alone = np.array([model.predict([text])[0] for text in self.TEXTS])
        assert np.max(np.abs(batched - alone)) < 1e-6

    def test_texts_without_tokens_get_finite_probabilities(self, trained_setup):
        _, _, _, _, best = trained_setup
        probs = best.predict(["", "!!!", "w01 scum"])
        assert np.all(np.isfinite(probs))
        assert np.all((probs > 0.0) & (probs < 1.0))
        assert probs[0] == probs[1]

    def test_permuting_rows_permutes_probabilities(self, trained_setup):
        _, _, _, _, best = trained_setup
        texts = [self.LONG, "", *self.TEXTS, "w13 w14 w15 w16", "scum"]
        order = np.random.default_rng(0).permutation(len(texts))
        probs = best.predict(texts)
        permuted = best.predict([texts[i] for i in order])
        assert np.max(np.abs(permuted - probs[order])) < 1e-6


class TestLstmCallShapes:
    """The traced benchmark wraps neural.lstm_forward/lstm_backward and
    reads their call shapes: the forward's first argument is the padded
    (B, L, d) batch, the cache's first entry is that same array, and the
    cell parameters expose hidden_size."""

    def test_training_step_calls(self, monkeypatch):
        model = small_model(seed=1)
        token_ids = model.encode_texts(["tok1 tok2 tok3", "tok4", "", "tok5 tok6"])
        labels = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.float32)
        forward_inputs, backward_caches = [], []
        lstm_forward, lstm_backward = neural.lstm_forward, neural.lstm_backward

        def traced_forward(*args, **kwargs):
            forward_inputs.append((args[0], args[1].hidden_size))
            return lstm_forward(*args, **kwargs)

        def traced_backward(*args, **kwargs):
            backward_caches.append((args[1], args[2].hidden_size))
            return lstm_backward(*args, **kwargs)

        monkeypatch.setattr(neural, "lstm_forward", traced_forward)
        monkeypatch.setattr(neural, "lstm_backward", traced_backward)
        loss_and_grads(model.params, token_ids, labels, model.config)
        assert len(forward_inputs) == len(backward_caches) == 2
        longest = 3  # the batch is trimmed to its longest row
        for (inputs, hidden), (cache, cache_hidden) in zip(forward_inputs, backward_caches):
            assert np.shape(inputs) == (4, longest, model.params["embedding"].shape[1])
            assert hidden == cache_hidden == model.config.hidden_size
            assert cache[0] is inputs

    @pytest.mark.parametrize("entry", ["predict", "predict_encoded"])
    def test_forward_only_calls(self, monkeypatch, entry):
        model = small_model(seed=1)
        texts = ["tok1 tok2 tok3", "tok4", "", "tok5 tok6"]
        token_ids = model.encode_texts(texts)
        forward_calls, probs_calls = [], []
        lstm_forward, probs = neural.lstm_forward, classifier.forward_probs

        def traced_forward(*args, **kwargs):
            forward_calls.append((args[0], args[1].hidden_size, args[2]))
            return lstm_forward(*args, **kwargs)

        def traced_probs(*args, **kwargs):
            probs_calls.append(args[1])
            return probs(*args, **kwargs)

        monkeypatch.setattr(neural, "lstm_forward", traced_forward)
        monkeypatch.setattr(classifier, "forward_probs", traced_probs)
        result = model.predict(texts) if entry == "predict" else model.predict_encoded(token_ids)
        assert result.shape == (4,)
        assert len(probs_calls) == 1
        assert np.array_equal(probs_calls[0], token_ids)  # (B, L), untrimmed
        assert len(forward_calls) == 2
        longest = 3  # the batch is trimmed to its longest row
        for inputs, hidden, keep_cache in forward_calls:
            assert np.shape(inputs) == (4, longest, model.params["embedding"].shape[1])
            assert hidden == model.config.hidden_size
            assert keep_cache is False


def paper_shape_model():
    config = ModelConfig(hidden_size=128, dense1_size=64, batch_size=256, seed=0,
                         pipeline=PipelineConfig(stopwords=frozenset(), max_len=50))
    rng = np.random.default_rng(0)
    table = rng.normal(0, 0.1, (20_000, 300)).astype(np.float32)
    table[0] = 0.0
    return config, init_params(config, table), rng


class TestForwardMemory:
    def test_paper_shape_batch_peak_is_bounded(self):
        """A forward-only 256x50 batch at d=300, h=128 holds, per direction,
        one block's distinct table rows and their projection, one step's
        gates and each row's final state: no (B, L, d) embedding gather,
        no block of gates, no (B, L, h) state array. The ids are uniform
        over the vocabulary, so almost every position is a distinct row.
        Over 60 runs the peak was 19.0-21.5 MB; the bound is 1.05 times
        the largest."""
        config, params, rng = paper_shape_model()
        token_ids = rng.integers(2, 20_000, (256, 50))
        probs, peak = traced_peak(lambda: forward_probs(params, token_ids, config))
        assert probs.shape == (256,)
        assert peak < 22.5e6


class TestStepMemory:
    def test_training_step_peak_is_bounded(self):
        """One training step at B=256, lengths 8..22, d=300, h=128, with the
        two directions' scans running at once: no (B, L, d) embedding
        gather, no (B, L, h) state or state gradient array, and each
        lstm_backward frees its (P, h) arrays before its weight gradients.
        Over 60 runs the peak was 58.6-59.9 MB; the bound is 1.05 times
        the largest."""
        config, params, rng = paper_shape_model()
        token_ids = rng.integers(2, 20_000, (256, 50))
        lengths = rng.integers(8, 23, 256)
        token_ids[np.arange(50) >= lengths[:, None]] = 0
        labels = (rng.random(256) < 0.5).astype(np.float32)
        (loss, grads), peak = traced_peak(lambda: loss_and_grads(params, token_ids, labels, config))
        assert np.isfinite(loss) and grads["fwd_w_in"].shape == (512, 300)
        assert peak < 62.5e6


CHECKPOINT_ENTRIES = ["params.bin", "manifest.json", "vocabulary.txt", "vocabulary_counts.bin"]


def _duplicate_token(entries):
    tokens = entries["vocabulary.txt"].split(b"\n")
    tokens[3] = tokens[2]
    entries["vocabulary.txt"] = b"\n".join(tokens)
    return entries


class TestCheckpoint:
    def test_roundtrip_predictions_bitwise(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        texts = ["scum w00 w01", "w02 w03", "", "vermin trash"]
        before = best.predict(texts)
        path = tmp_path / "model.ckpt"
        best.save(path)
        loaded = HateClassifier.load(path)
        after = loaded.predict(texts)
        assert np.array_equal(before, after)
        assert loaded.config == best.config
        assert loaded.history == best.history

    def test_truncated_file_is_corrupt(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        data = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt"):
            HateClassifier.load(tmp_path / "cut.ckpt")

    def test_garbage_file_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(ValueError, match="corrupt"):
            HateClassifier.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            HateClassifier.load(tmp_path / "absent.ckpt")

    def test_newer_major_version_refused(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        with zipfile.ZipFile(path) as archive:
            manifest = json.loads(archive.read("manifest.json"))
            blob = archive.read("params.bin")
        manifest["format_version"] = "2.0"
        doctored = tmp_path / "future.ckpt"
        with zipfile.ZipFile(doctored, "w") as archive:
            archive.writestr("manifest.json", json.dumps(manifest))
            archive.writestr("params.bin", blob)
        with pytest.raises(ValueError, match="newer"):
            HateClassifier.load(doctored)

    def test_flipped_byte_in_params_is_corrupt(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("params.bin")
        # local header: 30 fixed bytes, then the name and the extra field
        header = info.header_offset
        name_len, extra_len = struct.unpack("<HH", data[header + 26 : header + 30])
        start = header + 30 + name_len + extra_len
        data[start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt checkpoint") as caught:
            HateClassifier.load(path)
        assert "CRC-32" in str(caught.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["model_config"].update(hidden_size="4"),
         "model_config.hidden_size must be an integer"),
        (lambda m: m["model_config"].update(hiden_size=4), "no key 'hiden_size'"),
        (lambda m: m["model_config"]["pipeline"].update(stop_words=[]), "no key 'stop_words'"),
        (lambda m: m["model_config"].update(pipeline=[]), "model_config.pipeline must be an object"),
        (lambda m: m.update(model_config=[1]), "model_config must be an object"),
        (lambda m: m["history"]["records"][0].pop("train_loss"), "missing key 'train_loss'"),
        (lambda m: m["history"].update(selected_epoch="0"), "selected_epoch must be an integer"),
        (lambda m: m["tensors"][0].update(shape=5), r"tensors\[0\]\.shape must be a list"),
        (lambda m: m["tensors"][0].update(shape=[2.0, 3]), r"tensors\[0\]\.shape must be an integer"),
        (lambda m: m["tensors"][0].update(shape=[-2, -3]), "negative size"),
        (lambda m: m["tensors"][0].update(name=7), r"tensors\[0\]\.name must be a string"),
        (lambda m: m["tensors"].append(5), r"tensors\[11\] must be an object"),
        (lambda m: m.pop("format_version"), "bad format version"),
    ])
    def test_corrupt_manifest_refused_with_its_path(self, tmp_path, trained_setup, edit, message):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        doctored = tmp_path / "doctored.ckpt"
        edited_manifest(path, doctored, edit)
        with pytest.raises(ValueError, match=message) as caught:
            HateClassifier.load(doctored)
        assert f"corrupt checkpoint file {doctored}" in str(caught.value)

    def test_manifest_holding_the_final_sequence_repr_loads_the_same_model(self, tmp_path,
                                                                            trained_setup):
        # Format 1.1 manifests written before sequence_repr was retired
        # hold "sequence_repr": "final" after dense1_activation.
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        assert "sequence_repr" not in json.loads(checkpoint_entries(path)["manifest.json"])

        def add_key(manifest):
            config = manifest["model_config"]
            at = list(config).index("dense1_activation") + 1
            items = list(config.items())
            config.clear()
            config.update(items[:at] + [("sequence_repr", "final")] + items[at:])

        older = tmp_path / "older.ckpt"
        edited_manifest(path, older, add_key)
        texts = ["scum w00 w01", "w02 w03", "", "vermin trash"]
        loaded, loaded_older = HateClassifier.load(path), HateClassifier.load(older)
        assert loaded_older.config == loaded.config == best.config
        assert loaded_older.predict(texts).tobytes() == loaded.predict(texts).tobytes()
        assert loaded_older.predict(texts).tobytes() == best.predict(texts).tobytes()

    def test_manifest_that_is_not_an_object_is_corrupt(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", "[1, 2]")
            archive.writestr("params.bin", b"")
        with pytest.raises(ValueError, match="corrupt checkpoint file"):
            HateClassifier.load(path)

    @staticmethod
    def doctored(tmp_path, model, edit):
        """model's checkpoint with its tensor list and params.bin rewritten
        by edit(tensors, blob) -> blob."""
        path = tmp_path / "model.ckpt"
        model.save(path)
        entries = checkpoint_entries(path)
        manifest = json.loads(entries["manifest.json"])
        entries["params.bin"] = edit(manifest["tensors"], entries["params.bin"])
        entries["manifest.json"] = json.dumps(manifest)
        doctored = tmp_path / "doctored.ckpt"
        write_entries(doctored, entries)
        return doctored

    def test_tensors_stored_in_layout_order(self, tmp_path):
        best = small_model(seed=2)

        def reverse(tensors, blob):
            tensors.reverse()
            return b"".join(
                best.params[entry["name"]].astype("<f4").tobytes() for entry in tensors
            )

        loaded = HateClassifier.load(self.doctored(tmp_path, best, reverse))
        assert list(loaded.params) == list(best.params)
        for name, tensor in best.params.items():
            assert loaded.params[name].tobytes() == tensor.tobytes()
        loaded.save(tmp_path / "again.ckpt")
        best.save(tmp_path / "model.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()

    def test_missing_tensor_refused(self, tmp_path):
        def drop_last(tensors, blob):
            assert tensors.pop() == {"name": "dense2_bias", "shape": [1]}
            return blob[:-4]

        path = self.doctored(tmp_path, small_model(), drop_last)
        with pytest.raises(ValueError, match=re.escape(f"corrupt checkpoint file {path}: checkpoint "
                                                       "inconsistency: missing tensor 'dense2_bias'")):
            HateClassifier.load(path)

    @pytest.mark.parametrize("name, message", [
        ("dense3_bias", r"unexpected tensors \['dense3_bias'\]"),
        ("dense2_bias", "tensor 'dense2_bias' stored twice"),
    ])
    def test_extra_tensor_refused(self, tmp_path, name, message):
        def add(tensors, blob):
            tensors.append({"name": name, "shape": [1]})
            return blob + bytes(4)

        path = self.doctored(tmp_path, small_model(), add)
        with pytest.raises(ValueError, match=re.escape(f"corrupt checkpoint file {path}: "
                                                       "checkpoint inconsistency: ") + message):
            HateClassifier.load(path)

    def test_misshapen_tensor_refused(self, tmp_path):
        def transpose(tensors, blob):
            entry = next(e for e in tensors if e["name"] == "dense2_weights")
            entry["shape"].reverse()  # same size, so params.bin still fits
            return blob

        path = self.doctored(tmp_path, small_model(), transpose)
        with pytest.raises(ValueError, match=re.escape(f"corrupt checkpoint file {path}: ")
                           + r"checkpoint inconsistency: dense2_weights has shape \(4, 1\), expected \(1, 4\)"):
            HateClassifier.load(path)

    def test_vocabulary_embedding_mismatch_rejected(self):
        model = small_model()
        params = {n: t.copy() for n, t in model.params.items()}
        params["embedding"] = params["embedding"][:-1]
        with pytest.raises(ValueError, match="inconsistency"):
            HateClassifier(model.config, model.vocab, params)

    def test_saved_entries_are_stored_in_order_and_load_bitwise(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == CHECKPOINT_ENTRIES
            for info in archive.infolist():  # load refuses any other entry
                assert (info.compress_type, info.flag_bits) == (zipfile.ZIP_STORED, 0), info
            assert "vocabulary" not in json.loads(archive.read("manifest.json"))
        loaded = HateClassifier.load(path)
        assert (loaded.config, loaded.history) == (best.config, best.history)
        assert loaded.vocab.tokens == best.vocab.tokens
        assert loaded.vocab.counts == best.vocab.counts
        for name, tensor in best.params.items():
            assert loaded.params[name].tobytes() == tensor.tobytes()
        texts = ["scum w00 w01", "w02 w03", "", "vermin trash"]
        assert loaded.predict(texts).tobytes() == best.predict(texts).tobytes()

    def test_format_1_0_refused(self, tmp_path):
        # Format 1.0 kept the vocabulary as two lists in the manifest.
        path = tmp_path / "model.ckpt"
        model = small_model()
        model.save(path)
        entries = checkpoint_entries(path)
        manifest = json.loads(entries.pop("manifest.json"))
        manifest.update(format_version="1.0", vocabulary=list(model.vocab.tokens),
                        vocabulary_counts=list(model.vocab.counts))
        write_entries(path, {"manifest.json": json.dumps(manifest),
                             "params.bin": entries["params.bin"]})
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: bad format version '1.0'")) as caught:
            HateClassifier.load(path)
        assert "older files are no longer read" in str(caught.value)

    @pytest.mark.parametrize("name", CHECKPOINT_ENTRIES)
    def test_deflated_entry_refused(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        write_entries(path, checkpoint_entries(path), deflated={name})
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: {name} is not a stored, unencrypted entry "
                "(method 8, flags 0x0)")):
            HateClassifier.load(path)

    def test_odd_tokens_round_trip(self, tmp_path):
        tokens = ["\r", "a\rb", " ", "\x85", "\u2028", "naïve", "日本語", "", "\t\v\f"]
        model = HateClassifier.build(small_config(), make_random_matrix(tokens, dim=8))
        model.save(tmp_path / "model.ckpt")
        loaded = HateClassifier.load(tmp_path / "model.ckpt")
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.vocab.counts == model.vocab.counts

    def test_token_with_newline_refused_naming_its_index(self, tmp_path):
        model = small_model()
        tokens = list(model.vocab.tokens)
        tokens[5] = "two\nlines"
        model.vocab = Vocabulary(tokens, model.vocab.counts)
        with pytest.raises(ValueError, match=r"vocabulary token 5 contains a newline: 'two\\nlines'"):
            model.save(tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda e: e.pop("vocabulary.txt"), "no item named 'vocabulary.txt'"),
        (lambda e: e.pop("vocabulary_counts.bin"), "no item named 'vocabulary_counts.bin'"),
        (lambda e: e.update({"vocabulary.txt": e["vocabulary.txt"] + b"\nextra"}),
         "tokens and counts length mismatch"),
        (lambda e: e.update({"vocabulary_counts.bin": e["vocabulary_counts.bin"][:-1]}),
         "vocabulary_counts.bin holds 95 bytes, not a multiple of 8"),
        (_duplicate_token, "duplicate token in vocabulary"),
        (lambda e: e.update({"vocabulary.txt": b"\xff" + e["vocabulary.txt"]}), "can't decode"),
    ])
    def test_corrupt_vocabulary_entries_refused_with_its_path(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        entries = checkpoint_entries(path)
        edit(entries)
        write_entries(path, entries)
        with pytest.raises(ValueError, match=message) as caught:
            HateClassifier.load(path)
        assert f"corrupt checkpoint file {path}" in str(caught.value)

    def test_duplicate_vocabulary_token_names_it_and_both_indices(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = small_model()
        model.save(path)
        write_entries(path, _duplicate_token(checkpoint_entries(path)))
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: duplicate token in vocabulary: "
                f"{model.vocab.tokens[2]!r} at indices 2 and 3")):
            HateClassifier.load(path)

    @pytest.mark.parametrize("offset, message", [
        (0, "Bad magic number for file header"),
        (30, "File name in directory 'params.bin' and header b'qarams.bin' differ"),
    ])
    def test_bad_local_header_of_mapped_params_is_corrupt(self, tmp_path, offset, message):
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        data = bytearray(path.read_bytes())
        data[offset] += 1
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"corrupt checkpoint file {path}: {message}")):
            HateClassifier.load(path)

    @pytest.mark.parametrize("name", CHECKPOINT_ENTRIES)
    @pytest.mark.parametrize("field, edit, message", [
        (10, lambda method: 99, "{name} is not a stored, unencrypted entry (method 99, flags 0x0)"),
        (8, lambda flags: flags | 1,
         "{name} is not a stored, unencrypted entry (method 0, flags 0x1)"),
        (6, lambda version: 64, "zip file version 6.4"),  # the version needed to extract
    ], ids=["method_99", "encrypted", "version_needed_6.4"])
    def test_bad_central_directory_field_is_corrupt(self, tmp_path, name, field, edit, message):
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        edit_zip_field(path, name, field, "<H", edit)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: " + message.format(name=name))):
            HateClassifier.load(path)

    def test_shifted_central_directory_offset_is_corrupt(self, tmp_path):
        # Every local header offset is read 5,000 bytes too low, before the file.
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        edit_zip_field(path, None, 16, "<I", lambda offset: offset + 5000)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: local header of manifest.json at offset -")):
            HateClassifier.load(path)


class TestMappedLoad:
    """A stored params.bin is mapped copy-on-write, not read into memory."""

    def test_tensors_are_aligned_writable_views_of_one_mapping(self, tmp_path):
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        loaded = HateClassifier.load(path)
        bases = {id(tensor.base) for tensor in loaded.params.values()}
        assert len(bases) == 1
        flat = loaded.params["embedding"].base  # np.frombuffer's array over the mapping
        assert not flat.flags.owndata and isinstance(flat.base.obj, mmap.mmap)
        for tensor in loaded.params.values():
            assert tensor.flags.aligned and tensor.flags.writeable

    def test_writing_a_loaded_tensor_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = small_model()
        model.save(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        loaded = HateClassifier.load(path)
        for tensor in loaded.params.values():
            tensor += 1.0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        del loaded
        gc.collect()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        again = HateClassifier.load(path)
        for name, tensor in model.params.items():
            assert again.params[name].tobytes() == tensor.tobytes()

    def test_predictions_unchanged_when_save_replaces_the_path(self, tmp_path, trained_setup):
        _, _, _, _, best = trained_setup
        path = tmp_path / "model.ckpt"
        best.save(path)
        loaded = HateClassifier.load(path)
        texts = ["scum w00 w01", "w02 w03", "", "vermin trash"]
        before = loaded.predict(texts).tobytes()
        loaded.save(path)
        assert loaded.predict(texts).tobytes() == before
        small_model(seed=3).save(path)
        assert loaded.predict(texts).tobytes() == before
        assert HateClassifier.load(path).params["embedding"].shape != best.params["embedding"].shape

    def test_repeated_loads_hold_no_descriptors(self, tmp_path):
        descriptors = Path("/proc/self/fd")
        if not descriptors.is_dir():
            pytest.skip("needs /proc/self/fd")
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        loaded = HateClassifier.load(path)  # one live mapping holds one descriptor
        before = len(os.listdir(descriptors))
        for _ in range(300):
            loaded = HateClassifier.load(path)
        assert len(os.listdir(descriptors)) == before

    @pytest.mark.parametrize("damage, message", [
        (lambda path: edit_zip_field(path, "vocabulary_counts.bin", 10, "<H", lambda method: 99),
         "vocabulary_counts.bin is not a stored"),
        (lambda path: edited_manifest(path, path, lambda m: m["tensors"][-2]["shape"].reverse()),
         "dense2_weights has shape"),
        (lambda path: write_entries(path, _duplicate_token(checkpoint_entries(path))),
         "duplicate token in vocabulary"),
    ], ids=["refused_before_the_tensors", "refused_after_the_tensors", "refused_on_the_worker"])
    def test_refused_loads_hold_no_descriptors(self, tmp_path, damage, message):
        descriptors = Path("/proc/self/fd")
        if not descriptors.is_dir():
            pytest.skip("needs /proc/self/fd")
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        damage(path)
        before = len(os.listdir(descriptors))
        for _ in range(300):
            try:
                HateClassifier.load(path)
            except ValueError as exc:
                assert f"corrupt checkpoint file {path}" in str(exc) and message in str(exc)
            else:
                raise AssertionError("the damaged checkpoint loaded")
        assert len(os.listdir(descriptors)) == before


def one_cpu(monkeypatch):
    """As on a machine with one CPU: no worker thread, everything inline."""
    monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(neural, "_worker", None)
    assert neural._worker_thread() is None


class TestOverlappedCheck:
    """load computes params.bin's CRC-32 in the caller while the worker
    parses the other entries; the checks and their errors are a serial
    load's."""

    @staticmethod
    def crc_calls(monkeypatch, delay=0.0):
        """(bytes checked, thread, finished) for every CRC load computes;
        a CRC over more than 1 KiB sleeps delay seconds first."""
        calls = []

        def crc32(data):
            if len(data) > 1024:
                time.sleep(delay)
            crc = zlib.crc32(data)
            calls.append((len(data), threading.current_thread(), time.perf_counter()))
            return crc

        monkeypatch.setattr(classifier, "zlib", SimpleNamespace(crc32=crc32))
        return calls

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_flipped_byte_in_params_is_refused(self, tmp_path, monkeypatch, cpus):
        if cpus == 1:
            one_cpu(monkeypatch)
        elif neural._worker_thread() is None:
            pytest.skip("one CPU: load runs inline")
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        data = bytearray(path.read_bytes())
        data[40 + 4 * 50] ^= 0x01  # params.bin's data starts at byte 40
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {path}: Bad CRC-32 for file 'params.bin'")):
            HateClassifier.load(path)

    def test_params_checked_in_the_caller_the_rest_on_the_worker(self, tmp_path, monkeypatch):
        if neural._worker_thread() is None:
            pytest.skip("one CPU: load runs inline")
        path = tmp_path / "model.ckpt"
        model = small_model()
        model.save(path)
        calls = self.crc_calls(monkeypatch)
        HateClassifier.load(path)
        params_bytes = 4 * sum(tensor.size for tensor in model.params.values())
        with zipfile.ZipFile(path) as archive:
            sizes = sorted(info.file_size for info in archive.infolist())
        assert sorted(size for size, _, _ in calls) == sizes  # each entry once
        caller = threading.current_thread()
        for size, thread, _ in calls:
            assert (thread is caller) == (size == params_bytes), size

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_parse_error_waits_for_the_check(self, tmp_path, monkeypatch, cpus):
        if cpus == 1:
            one_cpu(monkeypatch)
        elif neural._worker_thread() is None:
            pytest.skip("one CPU: load runs inline")
        path, damaged = tmp_path / "model.ckpt", tmp_path / "damaged.ckpt"
        model = small_model()
        model.save(path)
        write_entries(damaged, _duplicate_token(checkpoint_entries(path)))
        calls = self.crc_calls(monkeypatch, delay=0.05)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt checkpoint file {damaged}: duplicate token in vocabulary")):
            HateClassifier.load(damaged)
        refused = time.perf_counter()
        params_checks = [(thread, done) for size, thread, done in calls if size > 1024]
        assert len(params_checks) == 1
        thread, done = params_checks[0]
        assert thread is threading.current_thread() and done < refused
        loaded = HateClassifier.load(path)
        for name, tensor in model.params.items():
            assert loaded.params[name].tobytes() == tensor.tobytes()

    def test_concurrent_loads_share_the_worker(self, tmp_path):
        # More caller threads than cores hand their parses to the one
        # worker, switching often; every load gets its own file's tensors
        # or its own file's error.
        models = [small_model(seed=seed) for seed in range(4)]
        paths = [tmp_path / f"model{seed}.ckpt" for seed in range(4)]
        for model, path in zip(models, paths):
            model.save(path)
        damaged = tmp_path / "damaged.ckpt"
        write_entries(damaged, _duplicate_token(checkpoint_entries(paths[0])))
        wrong = []

        def caller(k):
            for _ in range(20):
                try:
                    loaded = HateClassifier.load(paths[k] if k < 4 else damaged)
                except ValueError as exc:
                    if k < 4 or f"{damaged}: duplicate token" not in str(exc):
                        wrong.append((k, str(exc)))
                    continue
                if k == 4 or any(loaded.params[name].tobytes() != tensor.tobytes()
                                 for name, tensor in models[k].params.items()):
                    wrong.append((k, "tensors"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestModelConfig:
    def test_roundtrip(self):
        config = small_config(hidden_size=5, threshold=0.7)
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(threshold=0.0)
        with pytest.raises(ValueError):
            small_config(hidden_size=0)
        with pytest.raises(ValueError):
            small_config(dense1_activation="softmax")
        with pytest.raises(TypeError, match="sequence_repr"):
            small_config(sequence_repr="mean")
        data = {**small_config().to_dict(), "sequence_repr": "mean"}
        with pytest.raises(ValueError, match="model_config.sequence_repr must be \"final\""):
            ModelConfig.from_dict(data)

    def test_dict_keys_are_pinned(self, trained_setup):
        # checkpoint manifests and history.json must keep these keys in this order
        assert list(ModelConfig().to_dict()) == [
            "hidden_size", "dense1_size", "dense1_activation", "embeddings_trainable",
            "batch_size", "epochs", "learning_rate", "threshold", "seed",
            "pipeline",
        ]
        assert list(PipelineConfig().to_dict()) == [
            "lowercase", "expand_contractions", "strip_punctuation", "stopwords", "max_len",
        ]
        _, _, _, history, _ = trained_setup
        data = history.to_dict()
        assert list(data) == ["records", "selected_epoch"]
        for record in data["records"]:
            assert list(record) == [
                "epoch", "train_loss", "validation_loss", "validation_weighted_f1"
            ]

    def test_history_roundtrip(self, trained_setup):
        _, _, _, history, _ = trained_setup
        assert TrainHistory.from_dict(history.to_dict()) == history

    def test_unknown_key_refused(self):
        # An unknown key is refused, as in a run config's model section,
        # not dropped: a checkpoint holding one was not written by this code.
        data = {**small_config().to_dict(), "dropout": 0.5}
        with pytest.raises(ValueError, match="section 'model_config' has no key 'dropout'"):
            ModelConfig.from_dict(data)

    @pytest.mark.parametrize("key", ["embedding_dim", "max_len"])
    def test_format_1_0_keys_are_refused(self, key):
        data = {**small_config().to_dict(), key: 9}
        with pytest.raises(ValueError, match=f"section 'model_config' has no key '{key}'"):
            ModelConfig.from_dict(data)

    def test_history_record_types_checked(self, trained_setup):
        _, _, _, history, _ = trained_setup
        data = history.to_dict()
        data["records"][0]["epoch"] = "0"
        with pytest.raises(ValueError, match=r"history\.records\[0\]\.epoch must be an integer"):
            TrainHistory.from_dict(data)
