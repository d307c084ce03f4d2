import os
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from hatedetect.atomic import atomic_write
from hatedetect.classifier import HateClassifier, ModelConfig
from hatedetect.embed import EmbeddingMatrix, Vocabulary
from hatedetect.textprep import PAD_TOKEN, UNK_TOKEN, PipelineConfig

from conftest import make_random_matrix


def test_clean_exit_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write("new")
        assert path.read_text() == "old"  # unchanged until the rename
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_exception_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as handle:
            handle.write(b"partial")
            raise RuntimeError("killed")
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_save_text_failing_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "vectors.txt"
    make_random_matrix(["a", "b"], dim=3, seed=1).save_text(path)
    before = path.read_bytes()
    # the last token is not a string, so writing its line raises after the others
    vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN, "c", "d", 7], [0] * 5)
    vectors = np.ones((5, 3))
    vectors[0] = 0.0
    with pytest.raises(TypeError):
        EmbeddingMatrix(vectors, vocab).save_text(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["vectors.txt"]


def test_checkpoint_save_failing_mid_write_keeps_previous_file(tmp_path, monkeypatch):
    config = ModelConfig(hidden_size=3, dense1_size=2,
                         pipeline=PipelineConfig(stopwords=frozenset(), max_len=6))
    model = HateClassifier.build(config, make_random_matrix(["a", "b"], dim=4, seed=1))
    path = tmp_path / "model.ckpt"
    model.save(path)
    before = path.read_bytes()
    real_write = zipfile._ZipWriteFile.write
    written = []

    def disk_full_after_first_write(self, data):
        if written:
            raise OSError("no space left on device")
        written.append(data)
        return real_write(self, data)

    monkeypatch.setattr(zipfile._ZipWriteFile, "write", disk_full_after_first_write)
    with pytest.raises(OSError):
        other = make_random_matrix(["a", "b"], dim=4, seed=2)
        HateClassifier.build(replace(config, seed=1), other).save(path)
    assert written  # the failure came after part of the archive was written
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
