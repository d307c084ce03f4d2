"""Text normalization, tokenization, and fixed-length integer encoding.

The pipeline applies, in this order: contraction expansion, lowercasing,
punctuation stripping (punctuation becomes a space so glued words split),
whitespace tokenization, stopword removal. There is no stemming and no
spelling correction anywhere: plurals, slang, and deliberately misspelled
tokens keep their exact surface form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from importlib import resources
from itertools import islice
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .embed import Vocabulary

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# These must survive stopword filtering or negated phrases flip meaning.
NEGATORS = frozenset({"no", "not", "never"})

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_PUNCT_RE = re.compile(r"[^A-Za-z0-9\s]")
# A whole whitespace-delimited chunk holding an apostrophe. The lookbehind
# starts a match only at a chunk's first character, so a long chunk without
# one is scanned once, not once per starting position.
_APOSTROPHE_CHUNK_RE = re.compile(r"(?<!\S)\S*'\S*")
_SPACE_RE = re.compile(r"\s")

# A bounded preprocess first reads about this many characters per token it
# must return, then twice as many more each time too few tokens come out.
CHARS_PER_TOKEN = 32


def _resource_lines(name: str) -> list[str]:
    text = resources.files("hatedetect.resources").joinpath(name).read_text("utf-8")
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list (shipped without negation words)."""
    return frozenset(_resource_lines("stopwords.txt"))


@lru_cache(maxsize=1)
def _contractions() -> tuple[re.Pattern, dict[str, str]]:
    table = {}
    for line in _resource_lines("contractions.txt"):
        short, _, expansion = line.partition("\t")
        table[short.lower()] = expansion
    # Longest alternative first so "can't've" is not eaten by "can't".
    alternatives = sorted(table, key=len, reverse=True)
    # Case folding inside (?a:...) is ASCII only, so a match is always a
    # key of the ASCII table: under Unicode folding "İ" and "ı" would match
    # "i" and "ſ" would match "s". The outer \b stays Unicode.
    pattern = re.compile(
        r"\b(?a:(" + "|".join(re.escape(c) for c in alternatives) + r"))\b",
        re.IGNORECASE,
    )
    return pattern, table


def expand_contractions(text: str) -> str:
    """Replace each contraction in the table by its expansion.

    Every contraction holds an apostrophe and no whitespace, so the
    pattern runs only on the whitespace-delimited chunks that hold one;
    a word boundary at a chunk's edge sees the same non-word neighbour it
    would see in the whole text.
    """
    if "'" not in text:
        return text
    pattern, table = _contractions()

    def expand(match):
        return table[match.group(0).lower()]

    return _APOSTROPHE_CHUNK_RE.sub(lambda chunk: pattern.sub(expand, chunk.group(0)), text)


@dataclass(frozen=True)
class PipelineConfig:
    """Normalization switches plus the encoding length.

    The config is immutable and serializes losslessly, so a trained model
    can carry the exact pipeline it was trained with.
    """

    lowercase: bool = True
    expand_contractions: bool = True
    strip_punctuation: bool = True
    stopwords: frozenset = field(default_factory=default_stopwords)
    max_len: int = 50

    def __post_init__(self):
        if not all(isinstance(word, str) for word in self.stopwords):
            raise ValueError(f"stopwords must all be strings, got {self.stopwords!r}")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))  # from a JSON list too
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        banned = NEGATORS & set(self.stopwords)
        if banned:
            raise ValueError(f"stopword list must not contain negators: {sorted(banned)}")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["stopwords"] = sorted(self.stopwords)
        return data


@lru_cache(maxsize=1)
def default_pipeline() -> PipelineConfig:
    """PipelineConfig(), built once: it is frozen, and building one costs
    more than normalizing a short text."""
    return PipelineConfig()


def preprocess(text: str, config: PipelineConfig | None = None,
               limit: int | None = None) -> list[str]:
    """Normalize raw text into a token sequence.

    Step order is fixed: contractions -> lowercase -> punctuation -> split
    -> stopwords. URLs and @-mentions are dropped with the punctuation;
    a hashtag loses its "#" but keeps its body.

    With a limit, the result is the first `limit` tokens of the whole
    text's, and only as much of the text is normalized as they need: a
    prefix cut at whitespace, widened while fewer than `limit` tokens come
    out. Every step acts within whitespace-delimited chunks, so the tokens
    of a text are those of its pieces cut at whitespace, in order.
    """
    config = config or default_pipeline()
    if limit is None:
        return _normalize(text, config)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    tokens = []
    start = 0
    width = limit * CHARS_PER_TOKEN
    while start < len(text) and len(tokens) < limit:
        space = _SPACE_RE.search(text, start + width)
        end = space.start() if space else len(text)
        tokens += _normalize(text[start:end], config)
        start = end
        width *= 2
    return tokens[:limit]


def _normalize(text: str, config: PipelineConfig) -> list[str]:
    s = text.replace("’", "'")  # curly apostrophes fold into ASCII
    if config.expand_contractions:
        s = expand_contractions(s)
    if config.lowercase:
        s = s.lower()
    if config.strip_punctuation:
        if "://" in s or "www." in s.lower():  # what every URL match holds, ignoring case
            s = _URL_RE.sub(" ", s)
        s = _MENTION_RE.sub(" ", s)
        s = _PUNCT_RE.sub(" ", s)
    tokens = s.split()
    if config.stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    return tokens


def encode(tokens: Iterable[str], vocab: "Vocabulary", max_len: int) -> np.ndarray:
    """Map tokens to vocabulary indices, truncated/right-padded to max_len.

    Unknown tokens map to UNK_INDEX; padding uses PAD_INDEX. Output length
    is always exactly max_len.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.index_of(t) for t in islice(tokens, max_len)]
    ids.extend([PAD_INDEX] * (max_len - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def sequence_lengths(token_ids: np.ndarray) -> np.ndarray:
    """Lengths of encoded rows (B, L): the positions before each row's
    trailing run of PAD_INDEX."""
    real = token_ids != PAD_INDEX
    return np.where(real.any(axis=1), token_ids.shape[1] - np.argmax(real[:, ::-1], axis=1), 0)
