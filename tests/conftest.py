import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from hatedetect.corpus import HATE, NON_HATE, LabeledExample
from hatedetect.embed import EmbeddingMatrix, Vocabulary
from hatedetect.textprep import PAD_TOKEN, UNK_TOKEN, PipelineConfig

TRIGGER_TOKENS = ("scum", "vermin", "trash", "filth", "parasite")
FILLER_TOKENS = tuple(f"w{i:02d}" for i in range(40))


def traced_peak(run):
    """run()'s result and the peak bytes it allocated, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_keyword_examples(n: int, seed: int = 5):
    """Synthetic texts labeled hate iff one of the trigger tokens occurs."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        length = int(rng.integers(8, 15))
        words = [FILLER_TOKENS[j] for j in rng.integers(0, len(FILLER_TOKENS), length)]
        is_hate = i % 2 == 0
        if is_hate:
            for _ in range(int(rng.integers(1, 3))):
                position = int(rng.integers(0, len(words) + 1))
                words.insert(position, TRIGGER_TOKENS[int(rng.integers(0, len(TRIGGER_TOKENS)))])
        examples.append(
            LabeledExample(
                id=f"synthetic:{i}",
                text=" ".join(words),
                raw_label="flagged" if is_hate else "clean",
                binary_label=HATE if is_hate else NON_HATE,
            )
        )
    return examples


def make_vocab(tokens) -> Vocabulary:
    tokens = list(tokens)
    return Vocabulary([PAD_TOKEN, UNK_TOKEN, *tokens], [0, 0, *([1] * len(tokens))])


def make_random_matrix(tokens, dim: int, seed: int = 0) -> EmbeddingMatrix:
    vocab = make_vocab(tokens)
    rng = np.random.default_rng(seed)
    vectors = rng.normal(0.0, 0.3, (len(vocab), dim))
    vectors[0] = 0.0
    return EmbeddingMatrix(vectors, vocab)


def checkpoint_entries(path) -> dict:
    """Every entry of a checkpoint archive: {name: bytes}, in archive order."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def write_entries(path, entries: dict) -> None:
    """An archive of the given entries, each stored as zipfile's default."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in entries.items():
            archive.writestr(name, data)


def edited_manifest(path, target, edit):
    """Copy the checkpoint at path to target with every entry kept but the
    manifest, which edit(manifest) changes in place."""
    entries = checkpoint_entries(path)
    manifest = json.loads(entries["manifest.json"])
    edit(manifest)
    entries["manifest.json"] = json.dumps(manifest)
    write_entries(target, entries)


def format_1_0(path, target, edit=None):
    """Copy the format 1.1 checkpoint at path to target as format 1.0 wrote
    it: a deflated indent=2 manifest that holds the vocabulary as two lists,
    then a stored params.bin. edit(manifest), if given, changes the manifest
    first. Returns target."""
    entries = checkpoint_entries(path)
    manifest = json.loads(entries["manifest.json"])
    legacy = {
        "format_version": "1.0",
        "model_config": manifest["model_config"],
        "vocabulary": entries["vocabulary.txt"].decode("utf-8").split("\n"),
        "vocabulary_counts": np.frombuffer(entries["vocabulary_counts.bin"], "<i8").tolist(),
        "history": manifest["history"],
        "tensors": manifest["tensors"],
    }
    if edit is not None:
        edit(legacy)
    stamp = (1980, 1, 1, 0, 0, 0)
    with zipfile.ZipFile(target, "w") as archive:
        info = zipfile.ZipInfo("manifest.json", date_time=stamp)
        info.compress_type = zipfile.ZIP_DEFLATED
        archive.writestr(info, json.dumps(legacy, indent=2))
        archive.writestr(zipfile.ZipInfo("params.bin", date_time=stamp), entries["params.bin"])
    return target


@pytest.fixture(scope="session")
def keyword_examples():
    return make_keyword_examples(2000)


@pytest.fixture(scope="session")
def plain_pipeline():
    """No stopword filtering; handy for synthetic vocabularies."""
    return PipelineConfig(stopwords=frozenset(), max_len=20)
