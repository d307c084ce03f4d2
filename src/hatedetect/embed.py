"""Domain-specific word embeddings: CBOW training with negative sampling,
cosine neighbor probes, and the plain-text vector format.

The trainer predicts each center word from the average of its context
vectors, contrasting the observed center against noise words drawn from a
unigram^0.75 distribution. It works one sentence at a time: the radii and
noise words of all its positions are drawn at once, every position reads
the tables as of the sentence's start, and each table's distinct rows are
updated once, by a matrix product. Training is single-threaded and fully
deterministic for a given seed.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write, not_utf8, write_bytes
from .neural import sigmoid
from .textprep import PAD_INDEX, PAD_TOKEN, UNK_INDEX, UNK_TOKEN

log = logging.getLogger(__name__)

# Longer lines train as pieces of this many tokens, as word2vec.c cuts them
# at 1000: a sentence's update matrices grow with its length squared.
MAX_SENTENCE = 256

# load_text reads a vector file's rows this many characters at a time.
LOAD_CHUNK = 1 << 20


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
            raise ValueError("duplicate token in vocabulary")

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
        rename, so a crash never leaves a part."""
        with atomic_write(path, "w", encoding="utf-8") as handle:
            v, dim = self.vectors.shape
            handle.write(f"{v} {dim}\n")
            values = " %.8f" * dim + "\n"
            for token, row in zip(self.vocab.tokens, self.vectors):
                handle.write(token + values % tuple(row.tolist()))

    @classmethod
    def load_text(cls, path) -> "EmbeddingMatrix":
        """Read the text format; a UTF-8 byte-order mark is skipped, and a
        byte that is not UTF-8 is an error that names its line.

        The rows are read LOAD_CHUNK characters at a time into one table,
        allocated once from the header, so a load peaks at about the table
        plus one chunk. Python splits off each token and checks each line's
        arity; numpy's C parser converts the values, to the same doubles as
        float().
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
        if len(set(tokens)) != len(tokens):
            raise ValueError(f"{path}: duplicate token in vector file")
        vocab = Vocabulary(tokens, [0] * len(tokens))
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


def _sentence_grads(input_vectors, output_vectors, sentence, radii, negatives):
    """Loss and analytic gradients of the negative-sampling loss summed over
    the positions of one sentence of at least two tokens, at fixed tables
    (oracle: tests/oracles.py sentence_loss).

    Position i predicts sentence[i] from the mean of the input rows of the
    other positions within radii[i] of it, against the noise words
    negatives[i]. Returns (loss, input_rows, d_input, output_rows,
    d_output): the distinct rows of each table the loss reads, and their
    gradients with the contributions of repeated rows summed.
    """
    n = len(sentence)
    window = int(radii.max())
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    neighbours = np.arange(n)[:, None] + offsets
    mask = (np.abs(offsets) <= radii[:, None]) & (neighbours >= 0) & (neighbours < n)
    input_rows, inverse = np.unique(sentence, return_inverse=True)
    # Clipped neighbours weigh 0, so any row will do for them.
    context = inverse.reshape(n)[neighbours.clip(0, n - 1)]
    input_coef = _coefficients(context, mask / mask.sum(axis=1, keepdims=True), len(input_rows))
    h = input_coef.T @ input_vectors[input_rows]
    targets = np.concatenate((sentence[:, None], negatives), axis=1)
    output_rows, inverse = np.unique(targets, return_inverse=True)
    target_vectors = output_vectors[targets]
    scores = np.einsum("nkd,nd->nk", target_vectors, h)
    loss = float(np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:]).sum())
    grad_scores = sigmoid(scores)
    grad_scores[:, 0] -= 1.0
    output_coef = _coefficients(inverse, grad_scores, len(output_rows))
    dh = np.einsum("nk,nkd->nd", grad_scores, target_vectors)
    return loss, input_rows, input_coef @ dh, output_rows, output_coef @ h


def _coefficients(inverse, weights, n_rows):
    """(n_rows, n) matrix whose [u, i] entry sums weights[i, j] over the j
    with inverse[i, j] == u: what position i reads of distinct row u, so
    that one product applies each row's summed update."""
    n = len(weights)
    flat = inverse.reshape(weights.shape) * n + np.arange(n)[:, None]
    return np.bincount(flat.ravel(), weights.ravel(), n_rows * n).reshape(n_rows, n)


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
    together. Returns (EmbeddingMatrix, per-epoch mean objective). Only the
    input vectors are kept; the output table is discarded.
    """
    sentences = [list(s) for s in corpus]
    vocab = build_vocab(sentences, config.min_count)
    v = len(vocab)
    encoded = []
    for sentence in sentences:
        ids = [vocab.index[t] for t in sentence if t in vocab]
        encoded.extend(np.asarray(ids[i : i + MAX_SENTENCE], dtype=np.int64)
                       for i in range(0, len(ids), MAX_SENTENCE))
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
        for sentence in encoded:
            lr = max(config.min_lr, config.initial_lr * (1.0 - processed / total_words))
            processed += len(sentence)
            if config.subsample > 0:
                sentence = sentence[rng.random(len(sentence)) < keep_prob[sentence]]
            if len(sentence) < 2:
                continue
            radii = rng.integers(1, config.window + 1, size=len(sentence))
            negatives = _draw_negatives(rng, cumulative, sentence, config.negative)
            loss, input_rows, d_input, output_rows, d_output = _sentence_grads(
                input_vectors, output_vectors, sentence, radii, negatives
            )
            loss_sum += loss
            n_updates += len(sentence)
            input_vectors[input_rows] -= lr * d_input
            output_vectors[output_rows] -= lr * d_output
        history.append(loss_sum / max(1, n_updates))
        log.info("cbow epoch %d mean objective %.6f", _epoch, history[-1])
    return EmbeddingMatrix(input_vectors, vocab), history


def write_training_log(history, path) -> None:
    """Line-oriented "epoch,mean_objective" records."""
    lines = [f"{epoch},{value!r}\n" for epoch, value in enumerate(history)]
    write_bytes(path, ("epoch,mean_objective\n" + "".join(lines)).encode())
