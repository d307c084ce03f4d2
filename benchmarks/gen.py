"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the seed and the sizes passed in.
The program under test only ever sees the files these functions write:

- a Zipf-distributed vocabulary of pseudo-words (about 20k types at full
  size), plus a handful of trigger tokens that make a text hateful;
- tweet-length texts (about 12 tokens after preprocessing) decorated with
  mentions, URLs, hashtags, contractions, capitals and punctuation, so the
  normalisation pipeline has real work to do;
- long texts (50+ tokens after preprocessing) for the evaluate split, so
  encoded rows carry no padding;
- a Davidson-shaped CSV (classes 0/1/2 with the published class shares)
  and the JSON label mapping that collapses it to hate / nonhate;
- a 300-d plain-text vector file over the same vocabulary.

Labels are keyword labels: a text is hate iff it contains a trigger token,
which makes model quality checkable with a fixed floor.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

TRIGGERS = ("scum", "vermin", "filth", "parasite", "savage", "subhuman", "degenerate", "rat")
# Kept out of the generated vocabulary with the stopwords: the negators,
# which the contractions below expand to.
_NEGATORS = frozenset({"no", "not", "never"})

# Davidson et al.: 1430 hate speech, 19190 offensive, 4163 neither.
DAVIDSON_SHARES = (1430 / 24783, 19190 / 24783, 4163 / 24783)
DAVIDSON_MAPPING = {"0": "hate", "1": "hate", "2": "nonhate"}

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "qu", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "x", "ck", "ng", "sh", "m")
_CONTRACTIONS = ("don't", "can't", "won't", "isn't", "doesn't")


class Vocabulary:
    """Pseudo-word types in Zipf rank order with their sampling weights."""

    def __init__(self, seed: int, n_types: int, stopwords: frozenset):
        rng = np.random.default_rng([seed, 1])
        banned = set(stopwords) | _NEGATORS | set(TRIGGERS)
        words, seen = [], set()
        while len(words) < n_types:
            n_syllables = int(rng.integers(1, 4))
            word = "".join(
                _ONSETS[rng.integers(len(_ONSETS))]
                + _VOWELS[rng.integers(len(_VOWELS))]
                + _CODAS[rng.integers(len(_CODAS))]
                for _ in range(n_syllables)
            )
            if len(word) >= 3 and word not in seen and word not in banned:
                seen.add(word)
                words.append(word)
        self.words = words
        weights = 1.0 / np.arange(1, n_types + 1)
        self.cumulative = np.cumsum(weights / weights.sum())

    def draw(self, rng, count: int) -> list:
        ranks = np.searchsorted(self.cumulative, rng.random(count), side="right")
        return [self.words[min(r, len(self.words) - 1)] for r in ranks]

    def all_tokens(self) -> list:
        """Every token a generated text can preprocess to."""
        return [*self.words, *TRIGGERS, "not"]


def _decorate(rng, words: list) -> str:
    """Render content words as a raw tweet; preprocessing recovers the words
    (plus "not" when a contraction is inserted)."""
    words = list(words)
    if rng.random() < 0.3:
        i = int(rng.integers(len(words)))
        words[i] = words[i].upper()
    if rng.random() < 0.2:
        words.insert(int(rng.integers(len(words) + 1)), _CONTRACTIONS[rng.integers(len(_CONTRACTIONS))])
    if rng.random() < 0.25:
        i = int(rng.integers(len(words)))
        words[i] = "#" + words[i]
    text = " ".join(words)
    if rng.random() < 0.4:
        text = f"@{rng.integers(10**6)}user {text}"
    if rng.random() < 0.3:
        text = f"{text} https://t.co/{rng.integers(10**9):x}"
    if rng.random() < 0.5:
        text += ("!", "!!!", "?", " ...", " :)")[rng.integers(5)]
    return text


def make_text(rng, vocab: Vocabulary, n_words: int, hate: bool, trigger_span: int | None = None) -> str:
    """One keyword-labelled text with n_words content words (+1-2 triggers
    when hate). Triggers land within the first trigger_span positions."""
    words = vocab.draw(rng, n_words)
    if hate:
        span = min(trigger_span or len(words), len(words))
        for _ in range(int(rng.integers(1, 3))):
            words.insert(int(rng.integers(span + 1)), TRIGGERS[rng.integers(len(TRIGGERS))])
    return _decorate(rng, words)


def tweet(rng, vocab: Vocabulary, hate: bool) -> str:
    return make_text(rng, vocab, int(rng.integers(6, 19)), hate)


def long_text(rng, vocab: Vocabulary, hate: bool, max_len: int) -> str:
    """At least max_len tokens after preprocessing; triggers stay inside the
    encoded window so the keyword label is visible to the model."""
    return make_text(rng, vocab, int(rng.integers(max_len, max_len + 8)), hate, trigger_span=max_len - 4)


def write_davidson_csv(path: Path, rng, n_rows: int, make) -> None:
    """Davidson-shaped CSV: annotator vote columns, class 0/1/2, tweet.
    make(rng, hate) returns a text; classes 0 and 1 are hate."""
    classes = rng.choice(3, size=n_rows, p=DAVIDSON_SHARES)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["", "count", "hate_speech", "offensive_language", "neither", "class", "tweet"])
        for row, label in enumerate(classes):
            votes = [0, 0, 0]
            votes[label] = 3
            writer.writerow([row, 3, *votes, int(label), make(rng, label != 2)])


def write_label_mapping(path: Path) -> None:
    path.write_text(json.dumps(DAVIDSON_MAPPING, indent=2) + "\n", encoding="utf-8")


def write_corpus(path: Path, rng, vocab: Vocabulary, n_lines: int) -> None:
    """Unlabelled tweets, one per line, for embed-train --corpus."""
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(n_lines):
            handle.write(tweet(rng, vocab, hate=rng.random() < 0.3).replace("\n", " ") + "\n")


def write_vectors(path: Path, rng, tokens: list, dim: int) -> None:
    """Plain-text vector file ("V dim" header) with 3-decimal components.

    Components are N(0, 0.3). Trigger vectors share one extra direction of
    the same norm, as distributional embeddings of words used in the same
    contexts would."""
    table = [f"{x / 1000:.3f}" for x in range(-999, 1000)]
    vectors = rng.normal(0.0, 0.3, (len(tokens), dim))
    shared = rng.normal(0.0, 0.3, dim)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(tokens)} {dim}\n")
        for token, row in zip(tokens, vectors):
            if token in TRIGGERS:
                row = row + shared
            values = np.clip(np.rint(row * 1000), -999, 999).astype(np.int64) + 999
            handle.write(token + " " + " ".join([table[i] for i in values.tolist()]) + "\n")


def write_run_config(path: Path, *, seed: int, output_dir: Path, dataset: Path, mapping: Path,
                     cbow: dict, model: dict) -> None:
    config = {
        "seed": seed,
        "output_dir": str(output_dir),
        "datasets": [{
            "name": "davidson",
            "path": str(dataset),
            "text_column": "tweet",
            "label_column": "class",
            "label_mapping_file": str(mapping),
        }],
        "split": {"ratios": [0.6, 0.2, 0.2], "stratified": True},
        "combine": {"balanced": True, "per_class_cap": None},
        "pipeline": {"max_len": 50},
        "cbow": cbow,
        "model": model,
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
