"""Domain-specific word embeddings: CBOW training with negative sampling,
cosine neighbor probes, and the plain-text vector format.

The trainer predicts each center word from the average of its context
vectors, contrasting the observed center against noise words drawn from a
unigram^0.75 distribution. It works one sentence at a time: the radii and
noise words of all its positions are drawn at once, every position reads
the tables as of the sentence's start, and each table's distinct rows are
updated once, by a matrix product. What a sentence reads and writes
depends only on its draws, so it is planned for a chunk of sentences at a
time, and the per-sentence step only reads and updates the tables.
Training is single-threaded and fully deterministic for a given seed.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write, not_utf8, write_bytes
from .neural import release_free_heap, sigmoid
from .textprep import PAD_INDEX, PAD_TOKEN, UNK_INDEX, UNK_TOKEN

log = logging.getLogger(__name__)

# Longer lines train as pieces of this many tokens, as word2vec.c cuts them
# at 1000: a sentence's update matrices grow with its length squared.
MAX_SENTENCE = 256

# train_cbow plans the structures of its kept sentences once they hold at
# least this many positions. The plan's memory grows with it; from about
# 128 positions on, its speed hardly does (TestCbowMemory).
PLAN_POSITIONS = 256

# load_text reads a vector file's rows this many characters at a time.
LOAD_CHUNK = 1 << 20


class DuplicateToken(ValueError):
    """A vocabulary's token at two indices, first < second."""

    def __init__(self, token: str, first: int, second: int):
        super().__init__(f"duplicate token in vocabulary: {token!r} at indices {first} and {second}")
        self.token, self.first, self.second = token, first, second


@dataclass
class Vocabulary:
    """Token <-> index bijection with frequency counts.

    Indices 0 and 1 are reserved for PAD and UNK; real tokens occupy
    2..V-1 ordered by (frequency desc, token asc).
    """

    tokens: list
    counts: list

    def __post_init__(self):
        if self.tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary must reserve index 0 for PAD and 1 for UNK")
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts length mismatch")
        self.index = {token: i for i, token in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            # The index keeps each token's last index: the first token
            # whose index is not its own occurs again later.
            first = next(i for i, token in enumerate(self.tokens) if self.index[token] != i)
            token = self.tokens[first]
            raise DuplicateToken(token, first, self.tokens.index(token, first + 1))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token) -> bool:
        i = self.index.get(token)
        return i is not None and i >= 2

    def index_of(self, token) -> int:
        """Index of a token, UNK_INDEX when out of vocabulary."""
        i = self.index.get(token, UNK_INDEX)
        return i if i >= 2 else UNK_INDEX


def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Count tokens over a corpus of token sequences and keep the frequent ones.

    Tokens below min_count are dropped. Index assignment is deterministic:
    higher frequency first, ties broken lexicographically.
    """
    counter = Counter()
    n_sentences = 0
    for sentence in corpus:
        n_sentences += 1
        counter.update(sentence)
    if n_sentences == 0 or not counter:
        raise ValueError("empty corpus")
    kept = sorted(
        (t for t, c in counter.items() if c >= min_count),
        key=lambda t: (-counter[t], t),
    )
    if not kept:
        raise ValueError(f"no token reaches min_count={min_count}")
    tokens = [PAD_TOKEN, UNK_TOKEN, *kept]
    counts = [0, 0, *(counter[t] for t in kept)]
    return Vocabulary(tokens, counts)


@dataclass(frozen=True)
class CbowConfig:
    window: int = 5
    dim: int = 300
    negative: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_lr: float = 1e-4
    min_count: int = 5
    subsample: float = 1e-3  # 0 disables frequent-word subsampling
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.dim < 1 or self.negative < 1 or self.epochs < 1:
            raise ValueError("window, dim, negative, epochs must all be >= 1")
        if self.min_lr <= 0 or self.initial_lr < self.min_lr:
            raise ValueError("need initial_lr >= min_lr > 0")
        if self.subsample < 0:
            raise ValueError("subsample threshold must be >= 0")


@dataclass
class EmbeddingMatrix:
    """V x dim table of word vectors tied to its Vocabulary."""

    vectors: np.ndarray
    vocab: Vocabulary

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocab):
            raise ValueError(
                f"vector table shape {self.vectors.shape} does not match "
                f"vocabulary of size {len(self.vocab)}"
            )
        if self.dim < 1:
            raise ValueError("word vectors must have at least one component")
        # min and max propagate NaN, and are finite only if every value
        # is; unlike np.isfinite, they allocate nothing the size of the table.
        if not (np.isfinite(self.vectors.min()) and np.isfinite(self.vectors.max())):
            raise ValueError("embedding matrix contains non-finite values")
        if np.any(self.vectors[PAD_INDEX] != 0.0):
            raise ValueError("PAD row must be the zero vector")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save_text(self, path) -> None:
        """Write the standard text format: "V dim" header, then one token
        per line followed by its components. The file is replaced in one
        rename, so a crash never leaves a part. A token that contains a
        space, "\\r" or "\\n" is refused before anything is written, since
        load_text would split it."""
        tokens = self.vocab.tokens
        joined = "".join(tokens)
        if any(c in joined for c in " \r\n"):
            i = next(i for i, token in enumerate(tokens) if any(c in token for c in " \r\n"))
            raise ValueError(f"vocabulary token {i} contains a space or a line break: {tokens[i]!r}")
        with atomic_write(path, "w", encoding="utf-8") as handle:
            v, dim = self.vectors.shape
            handle.write(f"{v} {dim}\n")
            values = " %.8f" * dim + "\n"
            for token, row in zip(tokens, self.vectors):
                handle.write(token + values % tuple(row.tolist()))

    @classmethod
    def load_text(cls, path) -> "EmbeddingMatrix":
        """Read the text format; a UTF-8 byte-order mark is skipped, and a
        byte that is not UTF-8 is an error that names its line.

        The rows are read LOAD_CHUNK characters at a time into one table,
        allocated once from the header, so a load peaks at about the table
        plus one chunk above what is live: the heap's free pages are given
        back (release_free_heap) before the table is allocated. Python
        splits off each token and checks each line's arity; numpy's C
        parser converts the values, to the same doubles as float().
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"embedding file not found: {path}")
        try:
            with open(path, encoding="utf-8-sig") as handle:
                v, dim = _read_header(path, handle.readline())
                head = [line for line in (handle.readline(), handle.readline()) if line]
                # Third-party vector files have no reserved rows; add them.
                reserved = [line.partition(" ")[0] for line in head] == [PAD_TOKEN, UNK_TOKEN]
                tokens = [] if reserved else [PAD_TOKEN, UNK_TOKEN]
                offset = len(tokens)
                release_free_heap()
                table = np.zeros((offset + v, dim))
                chunk = head + handle.readlines(LOAD_CHUNK)
                while chunk:
                    start = len(tokens)
                    first_line = start - offset + 2
                    values = []
                    for line_number, line in enumerate(chunk, start=first_line):
                        line = line.rstrip("\n")
                        n_fields = line.count(" ") + 1
                        if n_fields != dim + 1:
                            raise ValueError(
                                f"{path}:{line_number}: expected 1 token + {dim} values, "
                                f"got {n_fields} fields"
                            )
                        token, _, row = line.partition(" ")
                        tokens.append(token)
                        values.append(row)
                    if len(tokens) > len(table):
                        raise ValueError(f"{path}:{v + 2}: header claims {v} rows but file has more")
                    table[start : len(tokens)] = _parse_values(path, values, dim, first_line)
                    chunk = handle.readlines(LOAD_CHUNK)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
        if len(tokens) != len(table):
            raise ValueError(f"{path}: header claims {v} rows but file has {len(tokens) - offset}")
        try:
            vocab = Vocabulary(tokens, [0] * len(tokens))
        except DuplicateToken as exc:
            # Row i of the table is line i - offset + 2 of the file.
            also = (f"on line {exc.first - offset + 2}" if exc.first >= offset
                    else f"reserved as row {exc.first}")
            raise ValueError(f"{path}:{exc.second - offset + 2}: duplicate token "
                             f"{exc.token!r} (also {also})") from None
        return cls(table, vocab)


def _read_header(path, line: str) -> tuple:
    """(V, dim) from a vector file's header line. A V the file's size
    cannot hold is refused before any table is allocated for it."""
    header = line.split()
    if len(header) != 2:
        raise ValueError(f"malformed header in {path}: expected 'V dim'")
    try:
        v, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header in {path}: expected two integers") from None
    if v < 1 or dim < 1:
        raise ValueError(f"malformed header in {path}: V and dim must be >= 1, got {v} and {dim}")
    # A row is at least a space and a digit per value.
    size = path.stat().st_size
    if v * 2 * dim > size:
        raise ValueError(f"{path}: header claims {v} rows of {dim} values, "
                         f"more than its {size} bytes can hold")
    return v, dim


def _parse_values(path, rows: list, dim: int, first_line: int) -> np.ndarray:
    """(len(rows), dim) float64 table of space-separated value rows, which
    come from lines first_line, first_line + 1, ... of `path`. A row loadtxt
    cannot parse (or skips as blank) is found again with float(), so the
    error names its line.
    """
    try:
        table = np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        if table.shape == (len(rows), dim):
            return table
    except ValueError:
        pass
    for line_number, row in enumerate(rows, start=first_line):
        for value in row.split(" "):
            try:
                float(value)
            except ValueError:
                raise ValueError(f"{path}:{line_number}: value {value!r} is not a number") from None
    raise ValueError(f"{path}: a value is not a plain decimal number")


def nearest(word, k: int, matrix: EmbeddingMatrix) -> list:
    """Top-k neighbors by cosine, excluding the query, PAD, and UNK.

    Ranked by similarity descending, ties broken lexicographically.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if word not in matrix.vocab:
        raise KeyError(f"token {word!r} not in vocabulary")
    query_index = matrix.vocab.index[word]
    query = matrix.vectors[query_index]
    norms = np.linalg.norm(matrix.vectors, axis=1)
    query_norm = norms[query_index]
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = matrix.vectors @ query / np.where(norms * query_norm == 0, 1.0, norms * query_norm)
    sims = np.where((norms == 0) | (query_norm == 0), 0.0, sims)
    candidates = [
        (matrix.vocab.tokens[i], float(np.clip(sims[i], -1.0, 1.0)))
        for i in range(2, len(matrix.vocab))
        if i != query_index
    ]
    candidates.sort(key=lambda pair: (-pair[1], pair[0]))
    return candidates[:k]


class _Planned(NamedTuple):
    """One sentence's index structures, which depend on its draws only."""

    input_rows: np.ndarray  # (U,) its distinct tokens, ascending
    input_coef: np.ndarray  # (U, n): what position i reads of input row u
    targets: np.ndarray  # (n, 1 + negative): each position's center, then its noise words
    output_rows: np.ndarray  # (W,) its distinct targets, ascending
    output_bins: np.ndarray  # (n * (1 + negative),) each score's bin in a (W, n) matrix


def _plan(sentences, radii, negatives, window):
    """The _Planned of each of a chunk of sentences of at least two tokens,
    each with its radii and noise words, built by a few numpy calls over
    the whole chunk: what np.unique and np.bincount per sentence would give.

    Position i of a sentence reads the other positions within radii[i] of
    it, each with weight 1 / their count. Every window spans the full
    `window`; an offset beyond a position's radius weighs 0, and adding
    +0.0 leaves a sum as it was. One bincount builds every sentence's
    input coefficients, in which each bin adds its weights in offset
    order, as a bincount per sentence does.
    """
    lengths = np.array([len(sentence) for sentence in sentences])
    tokens = np.concatenate(sentences)
    targets = np.concatenate((tokens[:, None], np.concatenate(negatives)), axis=1)
    owner = np.repeat(np.arange(len(sentences)), lengths)
    starts = np.cumsum(lengths) - lengths
    n = lengths[owner][:, None]  # the length of each position's sentence
    position = np.arange(len(tokens)) - starts[owner]
    v = int(targets.max()) + 1
    output_rows, output_bounds, inverse = _distinct_rows(owner, targets, v)
    output_bins = inverse * n + position[:, None]

    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    neighbours = position[:, None] + offsets
    mask = (np.abs(offsets) <= np.concatenate(radii)[:, None]) & (neighbours >= 0) & (neighbours < n)
    weights = mask / mask.sum(axis=1, keepdims=True)
    input_rows, input_bounds, inverse = _distinct_rows(owner, tokens[:, None], v)
    # Clipped neighbours weigh 0, so any row of the sentence will do for them.
    context = inverse[starts[owner][:, None] + neighbours.clip(0, n - 1), 0]
    sizes = np.diff(input_bounds) * lengths
    coef_starts = np.cumsum(sizes) - sizes
    bins = (coef_starts[owner] + position)[:, None] + context * n
    input_coefs = np.bincount(bins.ravel(), weights.ravel(), int(sizes.sum()))

    return [
        _Planned(input_rows[a:b], input_coefs[c : c + size].reshape(b - a, m), targets[s : s + m],
                 output_rows[p:q], output_bins[s : s + m].ravel())
        for s, m, a, b, c, size, p, q in zip(
            starts.tolist(), lengths.tolist(), input_bounds.tolist(), input_bounds[1:].tolist(),
            coef_starts.tolist(), sizes.tolist(), output_bounds.tolist(), output_bounds[1:].tolist())
    ]


def _distinct_rows(owner, ids, v):
    """Per sentence, np.unique(return_inverse=True) of the ids of its
    positions, in one call: the distinct ids of every sentence in turn,
    the bounds of each sentence's share of them, and each id's index
    within its sentence's share. owner[i] is the sentence of ids[i], and
    every id is below v."""
    keys, inverse = np.unique(owner[:, None] * v + ids, return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(owner[-1] + 2) * v)
    return keys % v, bounds, inverse.reshape(ids.shape) - bounds[owner][:, None]


def _sentence_grads(input_vectors, output_vectors, planned):
    """Loss and analytic gradients of the negative-sampling loss summed over
    the positions of one planned sentence, at fixed tables (oracle:
    tests/oracles.py sentence_loss).

    Position i predicts its center from the mean of the input rows of its
    context, against its noise words. Returns (loss, input_rows, d_input,
    output_rows, d_output): the distinct rows of each table the loss reads,
    and their gradients with the contributions of repeated rows summed.
    """
    input_rows, input_coef, targets, output_rows, output_bins = planned
    n = len(targets)
    h = input_coef.T @ input_vectors[input_rows]
    target_vectors = output_vectors[targets]
    scores = np.einsum("nkd,nd->nk", target_vectors, h)
    loss = float(np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:]).sum())
    grad_scores = sigmoid(scores)
    grad_scores[:, 0] -= 1.0
    # [w, i] sums the gradients of position i's scores of output row w, so
    # one product applies each row's summed update.
    output_coef = np.bincount(output_bins, grad_scores.ravel(), len(output_rows) * n).reshape(-1, n)
    dh = np.einsum("nk,nkd->nd", grad_scores, target_vectors)
    return loss, input_rows, input_coef @ dh, output_rows, output_coef @ h


def _draw_negatives(rng, cumulative, centers, count):
    """(len(centers), count) noise words in one draw; a noise word equal to
    its own center is drawn again."""
    negatives = np.searchsorted(cumulative, rng.random((len(centers), count)), side="right")
    while (clash := negatives == centers[:, None]).any():
        negatives[clash] = np.searchsorted(cumulative, rng.random(int(clash.sum())), side="right")
    return negatives


def train_cbow(corpus, config: CbowConfig):
    """Train CBOW input vectors over a tokenized corpus.

    Per center position a context radius is drawn uniformly in 1..window,
    the context vectors are averaged, and one observed target plus
    `negative` noise words are scored through the sigmoid objective.
    Updates are per sentence (after subsampling): one draw gives all its
    radii, one all its noise words, and the gradients of all its positions,
    taken at the tables as they were at the sentence's start, are applied
    together. The draws are taken sentence by sentence, in corpus order.
    Once the kept sentences hold PLAN_POSITIONS positions, _plan builds
    their index structures at once, and the sentences then update the
    tables in turn; the result is bit for bit that of planning each
    sentence alone, and the chunk bounds the memory the plan holds.
    Returns (EmbeddingMatrix, per-epoch mean objective). Only the input
    vectors are kept; the output table is discarded.
    """
    sentences = [list(s) for s in corpus]
    vocab = build_vocab(sentences, config.min_count)
    v = len(vocab)
    encoded = []
    for sentence in sentences:
        ids = [vocab.index[t] for t in sentence if t in vocab]
        encoded.extend(np.asarray(ids[i : i + MAX_SENTENCE], dtype=np.int64)
                       for i in range(0, len(ids), MAX_SENTENCE))
    del sentences  # encoded holds what training reads
    if not any(len(ids) >= 2 for ids in encoded):
        raise ValueError("no trainable (center, context) pair in the corpus")
    if v < 4:
        raise ValueError("vocabulary too small to draw negative samples")

    rng = np.random.default_rng(config.seed)
    input_vectors = np.zeros((v, config.dim))
    input_vectors[2:] = (rng.random((v - 2, config.dim)) - 0.5) / config.dim
    output_vectors = np.zeros((v, config.dim))

    counts = np.asarray(vocab.counts, dtype=np.float64)
    keep_prob = np.ones(v)
    if config.subsample > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            frequency = counts / counts.sum()
            keep_prob = np.sqrt(config.subsample / frequency) + config.subsample / frequency
        keep_prob = np.where(counts > 0, np.minimum(keep_prob, 1.0), 0.0)
    cumulative = np.cumsum(counts**0.75)
    cumulative /= cumulative[-1]  # ends at exactly 1, above every draw

    total_words = sum(len(ids) for ids in encoded) * config.epochs
    processed = 0
    history = []
    for _epoch in range(config.epochs):
        loss_sum = 0.0
        n_updates = 0
        drawn = []  # (lr, sentence, radii, negatives) of kept sentences not yet trained on
        n_drawn = 0
        for i, sentence in enumerate(encoded):
            lr = max(config.min_lr, config.initial_lr * (1.0 - processed / total_words))
            processed += len(sentence)
            if config.subsample > 0:
                sentence = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            if len(sentence) >= 2:
                radii = rng.integers(1, config.window + 1, size=len(sentence))
                negatives = _draw_negatives(rng, cumulative, sentence, config.negative)
                drawn.append((lr, sentence, radii, negatives))
                n_drawn += len(sentence)
            if not drawn or (n_drawn < PLAN_POSITIONS and i < len(encoded) - 1):
                continue
            lrs, kept, radii, negatives = zip(*drawn)
            for lr, planned in zip(lrs, _plan(kept, radii, negatives, config.window)):
                loss, input_rows, d_input, output_rows, d_output = _sentence_grads(
                    input_vectors, output_vectors, planned
                )
                loss_sum += loss
                input_vectors[input_rows] -= lr * d_input
                output_vectors[output_rows] -= lr * d_output
            n_updates += n_drawn
            drawn, n_drawn = [], 0
        history.append(loss_sum / max(1, n_updates))
        log.info("cbow epoch %d mean objective %.6f", _epoch, history[-1])
    return EmbeddingMatrix(input_vectors, vocab), history


def write_training_log(history, path) -> None:
    """Line-oriented "epoch,mean_objective" records."""
    lines = [f"{epoch},{value!r}\n" for epoch, value in enumerate(history)]
    write_bytes(path, ("epoch,mean_objective\n" + "".join(lines)).encode())
