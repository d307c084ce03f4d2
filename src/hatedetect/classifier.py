"""Three-layer deep classifier over pretrained embeddings: a BiLSTM, a
dense layer (identity activation by default), and a single sigmoid unit.

Training is mini-batch Adam on binary cross-entropy with seeded shuffling;
the checkpoint with the lowest validation loss is retained. Given the same
seed, initialization, training, and the saved checkpoint are all
bit-for-bit reproducible on the same numpy and BLAS build with the same
BLAS thread count; a threaded GEMM splits its sums by thread count.

The BiLSTM reads its inputs as rows of the embedding table
(neural.TableRows): no (B, L, d) batch of embeddings is gathered, and
each block of the scan projects each distinct token once. The bits are
those of the scan of the gathered batch.

The process has one worker thread (neural.run_both) when it may use a
second CPU. Above neural.PARALLEL_MIN_WORK the BiLSTM runs its backward
direction there while the forward direction runs in the caller's (see
neural.bilstm_batch_forward), and HateClassifier.load parses the
checkpoint's small entries there while the caller computes params.bin's
CRC-32. That changes no bit and no error, but it does use a second core:
run BLAS with one thread. 2 BLAS threads plus the worker
oversubscribe a 2-core machine: a B=256 training step took 130-146 ms
that way on a shared 2-core Xeon, against 84-112 ms with 1 BLAS thread
and the worker. Before the worker starts, glibc is told to keep one
malloc arena for the whole process.
"""

from __future__ import annotations

import json
import logging
import math
import mmap
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import neural
from .atomic import _check, _section, atomic_write
from .corpus import HATE
from .embed import EmbeddingMatrix, Vocabulary
from .metrics import WEIGHTED, prf, threshold_labels
from .neural import AdamState, DenseParams, LstmCellParams, NumericError, adam_step
from .textprep import PipelineConfig, encode, preprocess, sequence_lengths

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = "1.1"

# A zip entry's local header: 30 fixed bytes, then its name and extra field.
LOCAL_HEADER_BYTES = 30

@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes and training settings. The input length is
    pipeline.max_len; the input width is the embedding table's. The
    BiLSTM's features are its two directions' final states, 2 *
    hidden_size of them."""

    hidden_size: int = 128
    dense1_size: int = 64
    dense1_activation: str = "identity"
    embeddings_trainable: bool = False
    batch_size: int = 256
    epochs: int = 10
    learning_rate: float = 1e-3
    threshold: float = 0.5
    seed: int = 0
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        for name in ("hidden_size", "dense1_size", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dense1_activation not in neural.DENSE_ACTIVATIONS:
            raise ValueError(f"unknown dense1 activation {self.dense1_activation!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["pipeline"] = self.pipeline.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Inverse of to_dict, checked as a run config's model section is."""
        data = dict(_check(data, "dict", "model_config"))
        pipeline = _section(data.pop("pipeline", {}), "model_config.pipeline", PipelineConfig)
        return cls.from_section(data, "model_config", pipeline=pipeline)

    @classmethod
    def from_section(cls, section, name: str, **kwargs) -> "ModelConfig":
        """JSON object `name` as a ModelConfig over kwargs, checked by
        _section. The key sequence_repr, which every format 1.1 manifest
        holds, is dropped when it is "final", the only representation;
        any other value is refused."""
        section = dict(_check(section, "dict", name))
        representation = section.pop("sequence_repr", "final")
        if representation != "final":
            raise ValueError(f"config key {name}.sequence_repr must be \"final\", the only "
                             f"sequence representation, got {representation!r}")
        return _section(section, name, cls, **kwargs)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    validation_loss: float
    validation_weighted_f1: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple
    selected_epoch: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainHistory":
        history = _section(data, "history", cls)
        return replace(history, records=tuple(_section(r, f"history.records[{i}]", EpochRecord)
                                              for i, r in enumerate(history.records)))


def _layout(config: ModelConfig, vocab_size: int, d: int) -> dict:
    """The model's tensors in checkpoint order: {name: (shape, init)}.

    init is the bound of a uniform +-1/sqrt(fan) draw, 0 for zeros, or None
    for the embedding table, which is copied in. init_params draws the
    uniform tensors in this order.
    """
    h, dense1 = config.hidden_size, config.dense1_size
    layout = {"embedding": ((vocab_size, d), None)}
    for direction in ("fwd", "bwd"):
        layout[f"{direction}_w_in"] = ((4 * h, d), 1.0 / math.sqrt(h))
        layout[f"{direction}_w_rec"] = ((4 * h, h), 1.0 / math.sqrt(h))
        layout[f"{direction}_bias"] = ((4 * h,), 0)
    layout["dense1_weights"] = ((dense1, 2 * h), 1.0 / math.sqrt(2 * h))
    layout["dense1_bias"] = ((dense1,), 0)
    layout["dense2_weights"] = ((1, dense1), 1.0 / math.sqrt(dense1))
    layout["dense2_bias"] = ((1,), 0)
    return layout


def init_params(config: ModelConfig, embedding_table: np.ndarray, dtype=np.float32) -> dict:
    """Seeded parameter dict laid out by _layout; the embedding table is
    copied and sets the input width."""
    rng = np.random.default_rng(config.seed)
    embedding = np.array(embedding_table, dtype=dtype, order="C")
    params = {}
    for name, (shape, init) in _layout(config, *embedding.shape).items():
        if init is None:
            params[name] = embedding
        elif init:
            params[name] = rng.uniform(-init, init, shape).astype(dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


def _forward_parts(params: dict, token_ids: np.ndarray, config: ModelConfig, keep_cache=True):
    """Probabilities plus, with keep_cache, what loss_and_grads needs.

    The batch is trimmed to its longest row, and each row's features are
    the BiLSTM's final states at its own last token, so padding never
    changes a probability.
    The BiLSTM reads the embedding rows of token_ids straight from the
    table.
    """
    lengths = sequence_lengths(token_ids)
    token_ids = token_ids[:, : max(int(lengths.max(initial=0)), 1)]
    fwd = LstmCellParams(params["fwd_w_in"], params["fwd_w_rec"], params["fwd_bias"])
    bwd = LstmCellParams(params["bwd_w_in"], params["bwd_w_rec"], params["bwd_bias"])
    features, caches = neural.bilstm_batch_forward(
        neural.TableRows(params["embedding"], token_ids), fwd, bwd, lengths, keep_cache
    )
    dense1 = DenseParams(params["dense1_weights"], params["dense1_bias"], config.dense1_activation)
    hidden, dense1_cache = neural.dense_forward(features, dense1)
    dense2 = DenseParams(params["dense2_weights"], params["dense2_bias"])
    logits, dense2_cache = neural.dense_forward(hidden, dense2)
    probs = neural.sigmoid(logits[:, 0])
    if not keep_cache:
        return probs, None
    return probs, (fwd, bwd, caches, dense1, dense1_cache, dense2, dense2_cache)


def forward_probs(params: dict, token_ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Forward pass only; keeps nothing for backpropagation."""
    return _forward_parts(params, token_ids, config, keep_cache=False)[0]


def loss_and_grads(params: dict, token_ids: np.ndarray, labels, config: ModelConfig):
    """Loss plus analytic gradients for every trainable tensor.

    The embedding gradient is only produced when config.embeddings_trainable
    is set; all other gradients are always returned.
    """
    probs, parts = _forward_parts(params, token_ids, config)
    fwd, bwd, caches, dense1, dense1_cache, dense2, dense2_cache = parts
    loss = neural.bce(probs, labels)
    labels_arr = np.asarray(labels, dtype=probs.dtype)
    # Exact gradient of the clamped BCE through the output sigmoid: zero
    # where the clamp is active, (p - y)/B elsewhere.
    active = (probs > neural.PROB_EPS) & (probs < 1.0 - neural.PROB_EPS)
    dz2 = np.where(active, (probs - labels_arr) / len(labels_arr), 0.0).astype(probs.dtype)[:, None]
    grads = {}
    d_hidden, grads["dense2_weights"], grads["dense2_bias"] = neural.dense_backward(
        dz2, dense2_cache, dense2)
    d_features, grads["dense1_weights"], grads["dense1_bias"] = neural.dense_backward(
        d_hidden, dense1_cache, dense1)
    d_embedding, grads_fwd, grads_bwd = neural.bilstm_batch_backward(
        d_features, caches, fwd, bwd, config.embeddings_trainable
    )
    grads.update(
        (f"{direction}_{name}", grad)
        for direction, direction_grads in (("fwd", grads_fwd), ("bwd", grads_bwd))
        for name, grad in direction_grads.items()
    )
    if config.embeddings_trainable:
        grads["embedding"] = d_embedding
    return loss, grads


class HateClassifier:
    """A built or loaded model: predicts hate probabilities for raw texts."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, params: dict, history=None):
        d = params["embedding"].shape[-1] if "embedding" in params else 0
        layout = _layout(config, len(vocab), d)
        extra = params.keys() - layout.keys()
        if extra:
            raise ValueError(f"checkpoint inconsistency: unexpected tensors {sorted(extra)}")
        for name, (shape, _) in layout.items():
            if name not in params:
                raise ValueError(f"checkpoint inconsistency: missing tensor {name!r}")
            if params[name].shape != shape:
                raise ValueError(
                    f"checkpoint inconsistency: {name} has shape {params[name].shape}, "
                    f"expected {shape}"
                )
        self.config = config
        self.vocab = vocab
        self.params = {name: params[name] for name in layout}
        self.history = history

    @classmethod
    def build(cls, config: ModelConfig, embeddings: EmbeddingMatrix) -> "HateClassifier":
        """Wire the three layers over a pretrained embedding matrix."""
        params = init_params(config, embeddings.vectors)
        return cls(config, embeddings.vocab, params)

    def encode_texts(self, texts) -> np.ndarray:
        pipeline = self.config.pipeline
        return self._encode_tokens(preprocess(text, pipeline, limit=pipeline.max_len)
                                   for text in texts)

    def _encode_tokens(self, sequences) -> np.ndarray:
        max_len = self.config.pipeline.max_len
        rows = [encode(tokens, self.vocab, max_len) for tokens in sequences]
        if not rows:
            return np.zeros((0, max_len), dtype=np.int64)
        return np.stack(rows)

    def predict(self, texts) -> np.ndarray:
        """Order-preserving hate probabilities in (0, 1). Alone and in a batch, a text
        scores within about one float32 ulp (ROADMAP.md: batch invariance)."""
        return self.predict_encoded(self.encode_texts(texts))

    def predict_tokens(self, sequences) -> np.ndarray:
        """predict for already preprocessed texts: one token sequence each."""
        return self.predict_encoded(self._encode_tokens(sequences))

    def predict_encoded(self, token_ids: np.ndarray) -> np.ndarray:
        if token_ids.shape[0] == 0:
            return np.zeros(0, dtype=self.params["embedding"].dtype)
        chunks = []
        for start in range(0, token_ids.shape[0], self.config.batch_size):
            chunk = token_ids[start : start + self.config.batch_size]
            chunks.append(forward_probs(self.params, chunk, self.config))
        probs = np.concatenate(chunks)
        eps = probs.dtype.type(neural.PROB_EPS)
        return np.clip(probs, eps, 1.0 - eps)

    @property
    def threshold(self) -> float:
        return self.config.threshold

    def save(self, path) -> None:
        """Checkpoint format 1.1, the only one load reads: a zip of four
        stored (not deflated), unencrypted entries.

        params.bin comes first and holds the tensors in layout order as raw
        little-endian float32, so its data starts at byte 40 and load can
        map it in place. Float32 weights deflate only to about half, and
        inflating them cost more than the rest of a load; deflating the
        vocabulary cost about a third of a save for 1% of the file.
        After it come manifest.json (model config, history and tensor
        list, written without indent), vocabulary.txt (the tokens joined
        by "\\n") and vocabulary_counts.bin (the counts as little-endian
        int64). A token that contains "\\n" is refused, since it would
        read back as two. The file is replaced in one rename, so a crash
        never leaves a part and a process that mapped the old file keeps
        reading it.
        """
        tokens = "\n".join(self.vocab.tokens)
        if tokens.count("\n") != len(self.vocab) - 1:
            i = next(i for i, token in enumerate(self.vocab.tokens) if "\n" in token)
            raise ValueError(f"vocabulary token {i} contains a newline: {self.vocab.tokens[i]!r}")
        manifest = {
            "format_version": CHECKPOINT_VERSION,
            "model_config": self.config.to_dict(),
            "history": self.history.to_dict() if self.history else None,
            "tensors": [
                {"name": name, "shape": list(tensor.shape)} for name, tensor in self.params.items()
            ],
        }
        entries = {
            "manifest.json": json.dumps(manifest),
            "vocabulary.txt": tokens.encode("utf-8"),
            "vocabulary_counts.bin": np.asarray(self.vocab.counts, dtype="<i8").tobytes(),
        }
        tensors = [np.ascontiguousarray(tensor, dtype="<f4") for tensor in self.params.values()]
        stamp = (1980, 1, 1, 0, 0, 0)  # fixed so equal models give equal bytes
        with atomic_write(path, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
            info = zipfile.ZipInfo("params.bin", date_time=stamp)
            info.file_size = sum(tensor.nbytes for tensor in tensors)  # zip64 is decided up front
            with archive.open(info, "w") as entry:
                for tensor in tensors:
                    entry.write(tensor)
            for name, data in entries.items():
                archive.writestr(zipfile.ZipInfo(name, date_time=stamp), data)

    @classmethod
    def load(cls, path) -> "HateClassifier":
        """Read a checkpoint of format 1.1, as save writes it. Any other
        file, an older format or a compressed or encrypted entry included,
        is refused as a corrupt checkpoint file.

        zipfile reads the central directory. The file is then mapped once,
        copy-on-write, and each entry is checked in the mapping by _entry
        before it is used: the small entries are copied out of it, and the
        tensors are views of it. The CRC-32 of params.bin, most of a
        serial load's time (6.2 of 10.4 ms for a 26 MB file on a shared
        2-core Xeon),
        runs in the caller while the worker thread reads and parses the
        manifest and the vocabulary (zlib releases the GIL); it is compared
        and the views are made once both are done. So every byte is still
        checked before load returns, and a file with two faults is refused
        for the one a serial load met first: the parse's before any of
        params.bin's. On one CPU both run in the caller. They stay writable, and writes never reach
        the file. The mapping keeps the file's data alive after the path is
        replaced by a rename, but a file truncated in place under it faults
        on the next access.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"checkpoint not found: {path}")
        try:
            with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)

            def read(name: str) -> bytes:
                return mapped[slice(*_entry(mapped, archive.getinfo(name)))]

            def parse() -> tuple:
                manifest = json.loads(read("manifest.json"))
                version = manifest.get("format_version") if isinstance(manifest, dict) else None
                if version != CHECKPOINT_VERSION:
                    raise ValueError(f"bad format version {version!r}: only {CHECKPOINT_VERSION} "
                                     "is read; older files are no longer read, newer ones not yet")
                counts = read("vocabulary_counts.bin")
                if len(counts) % 8:
                    raise ValueError(f"vocabulary_counts.bin holds {len(counts)} bytes, "
                                     "not a multiple of 8")
                # Split on "\n" alone: splitlines would also split "\r" and "\x85".
                tokens = read("vocabulary.txt").decode("utf-8").split("\n")
                vocab = Vocabulary(tokens, np.frombuffer(counts, dtype="<i8").tolist())
                return (*_read_manifest(manifest), vocab)

            def params_crc():
                try:
                    start, end = _span(mapped, archive.getinfo("params.bin"))
                except (KeyError, zipfile.BadZipFile):
                    return None  # refused below, after the parse, as a serial load did
                return zlib.crc32(memoryview(mapped)[start:end])

            crc, (config, history, shapes, vocab) = neural.run_both(params_crc, parse, True)
            count = sum(math.prod(shape) for _, shape in shapes)
            start, end = _entry(mapped, archive.getinfo("params.bin"), crc)
            if end - start != 4 * count:
                problem = "truncated" if end - start < 4 * count else "has trailing bytes"
                raise ValueError(f"parameter blob {problem}")
            flat = np.frombuffer(mapped, dtype="<f4", count=count, offset=start)
            params = {}
            offset = 0
            for name, shape in shapes:
                if name in params:
                    raise ValueError(f"checkpoint inconsistency: tensor {name!r} stored twice")
                size = math.prod(shape)
                params[name] = flat[offset : offset + size].reshape(shape)
                offset += size
            return cls(config, vocab, params, history)
        except (zipfile.BadZipFile, KeyError, NotImplementedError, RecursionError, TypeError,
                ValueError) as exc:
            raise ValueError(f"corrupt checkpoint file {path}: {exc}") from exc


def _read_manifest(manifest: dict) -> tuple:
    """A checkpoint manifest's checked config, history and tensor shapes."""
    shapes = []
    for i, entry in enumerate(_check(manifest["tensors"], "tuple", "tensors")):
        key = f"tensors[{i}]"
        name = _check(_check(entry, "dict", key).get("name"), "str", f"{key}.name")
        shape = tuple(_check(n, "int", f"{key}.shape")
                      for n in _check(entry.get("shape"), "tuple", f"{key}.shape"))
        if min(shape, default=0) < 0:
            raise ValueError(f"{key} has shape {shape} with a negative size")
        shapes.append((name, shape))
    history = TrainHistory.from_dict(manifest["history"]) if manifest.get("history") else None
    return ModelConfig.from_dict(manifest["model_config"]), history, shapes


def _span(mapped: mmap.mmap, info: zipfile.ZipInfo) -> tuple:
    """(start, end) of a stored, unencrypted entry's data in the mapped
    archive, after its local header is checked as zipfile checks it and
    its data is found in bounds."""
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
        raise zipfile.BadZipFile(f"{info.filename} is not a stored, unencrypted entry "
                                 f"(method {info.compress_type}, flags {info.flag_bits:#x})")
    start = info.header_offset + LOCAL_HEADER_BYTES
    if info.header_offset < 0 or start > len(mapped):
        raise zipfile.BadZipFile(f"local header of {info.filename} at offset "
                                 f"{info.header_offset} is outside the file")
    signature, name_length, extra_length = struct.unpack_from(
        "<4s22xHH", mapped, info.header_offset)
    if signature != b"PK\x03\x04":
        raise zipfile.BadZipFile("Bad magic number for file header")
    name = mapped[start : start + name_length]
    if name != info.filename.encode("utf-8"):
        raise zipfile.BadZipFile(f"File name in directory {info.filename!r} "
                                 f"and header {name!r} differ.")
    start += name_length + extra_length
    end = start + info.file_size
    if info.compress_size != info.file_size or end > len(mapped):
        raise zipfile.BadZipFile(f"{info.filename} is truncated")
    return start, end


def _entry(mapped: mmap.mmap, info: zipfile.ZipInfo, crc=None) -> tuple:
    """_span of an entry whose CRC-32 matches its central directory
    record. The CRC is computed over the mapping, unless crc gives it:
    load computes params.bin's beside its other work."""
    start, end = _span(mapped, info)
    if crc is None:
        crc = zlib.crc32(memoryview(mapped)[start:end])
    if crc != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {info.filename!r}")
    return start, end


def _encode_split(model: HateClassifier, part, part_name: str):
    if part is None:
        raise ValueError(f"the {part_name} split was not loaded")
    if not part:
        raise ValueError(f"empty {part_name} split")
    labels = np.zeros(len(part), dtype=np.float32)
    for i, example in enumerate(part):
        if example.binary_label is None:
            raise ValueError(f"example {example.id} has no binary label; collapse first")
        labels[i] = 1.0 if example.binary_label == HATE else 0.0
    token_ids = model.encode_texts([example.text for example in part])
    return token_ids, labels


def train(model: HateClassifier, splits) -> tuple:
    """Mini-batch Adam training over a SplitBundle.

    Each epoch records train loss, validation loss, and validation weighted
    F1; the returned checkpoint carries the parameters of the epoch with
    the lowest validation loss (earliest on ties).
    """
    config = model.config
    train_ids, train_labels = _encode_split(model, splits.train, "training")
    val_ids, val_labels = _encode_split(model, splits.validation, "validation")
    val_actual = [example.binary_label for example in splits.validation]
    rng = np.random.default_rng([config.seed, 1])
    state = AdamState(learning_rate=config.learning_rate)
    trainable = [n for n in model.params if n != "embedding" or config.embeddings_trainable]
    records = []
    best_loss = None
    best_params = None
    selected_epoch = 0
    n = len(train_labels)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads(model.params, train_ids[batch], train_labels[batch], config)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss!r} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            adam_step(model.params, {name: grads[name] for name in trainable}, state)
            loss_sum += loss * len(batch)
        train_loss = loss_sum / n
        val_probs = model.predict_encoded(val_ids)
        val_loss = neural.bce(val_probs, val_labels)
        val_predicted = threshold_labels(val_probs, config.threshold)
        val_f1 = prf((val_predicted, val_actual), WEIGHTED).f1
        records.append(EpochRecord(epoch, float(train_loss), float(val_loss), float(val_f1)))
        log.info(
            "epoch %d train_loss %.4f val_loss %.4f val_weighted_f1 %.4f",
            epoch, train_loss, val_loss, val_f1,
        )
        if best_loss is None or val_loss < best_loss:
            best_loss = val_loss
            # A frozen embedding never changes, so best shares it.
            best_params = {
                name: tensor.copy() if name in trainable else tensor
                for name, tensor in model.params.items()
            }
            selected_epoch = epoch
    history = TrainHistory(tuple(records), selected_epoch)
    model.history = history
    best = HateClassifier(config, model.vocab, best_params, history)
    return history, best


def sweep_dense1_activation(config: ModelConfig, embeddings: EmbeddingMatrix, splits):
    """Train once per dense1 activation; returns {activation: TrainHistory}."""
    results = {}
    for activation in neural.DENSE_ACTIVATIONS:
        variant = replace(config, dense1_activation=activation)
        model = HateClassifier.build(variant, embeddings)
        history, _best = train(model, splits)
        results[activation] = history
    return results
