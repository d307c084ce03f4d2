import json
import struct
import tracemalloc
import zipfile
from pathlib import Path

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


def write_entries(path, entries: dict, deflated=()) -> None:
    """An archive of the given entries, each stored as zipfile's default
    but those named in deflated."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in entries.items():
            archive.writestr(name, data, zipfile.ZIP_DEFLATED if name in deflated else None)


def edited_manifest(path, target, edit):
    """Copy the checkpoint at path to target with every entry kept but the
    manifest, which edit(manifest) changes in place."""
    entries = checkpoint_entries(path)
    manifest = json.loads(entries["manifest.json"])
    edit(manifest)
    entries["manifest.json"] = json.dumps(manifest)
    write_entries(target, entries)


def edit_zip_field(path, name, field: int, fmt: str, edit) -> None:
    """Rewrite one field of the archive at path in place: in the central
    directory record of entry name, or in the end-of-central-directory
    record when name is None. field is the field's byte offset in its
    record and fmt its struct format; edit(value) gives the new value."""
    data = bytearray(Path(path).read_bytes())
    if name is None:
        at = data.rindex(b"PK\x05\x06")
    else:
        with zipfile.ZipFile(path) as archive:
            at = archive.start_dir
        # A central directory record is 46 fixed bytes, then the entry's name.
        while data[at + 46 : at + 46 + len(name)] != name.encode():
            at = data.index(b"PK\x01\x02", at + 1)
    (value,) = struct.unpack_from(fmt, data, at + field)
    struct.pack_into(fmt, data, at + field, edit(value))
    Path(path).write_bytes(bytes(data))


@pytest.fixture(scope="session")
def keyword_examples():
    return make_keyword_examples(2000)


@pytest.fixture(scope="session")
def plain_pipeline():
    """No stopword filtering; handy for synthetic vocabularies."""
    return PipelineConfig(stopwords=frozenset(), max_len=20)
