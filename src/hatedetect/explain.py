"""Local explanation of any binary predictor over token sequences.

A text is reduced to its distinct tokens as binary presence features,
perturbed by removing random token subsets, and the predictor's
probabilities on the kept token sequences are fit with a proximity-weighted
ridge regression. The signed coefficients say which tokens pushed the
prediction toward hate (positive) or away from it (negative).
"""

from __future__ import annotations

import html
from dataclasses import asdict, dataclass, replace
from itertools import compress

import numpy as np

from .textprep import PipelineConfig, default_pipeline, preprocess

DEFAULT_N_SAMPLES = 1000
DEFAULT_KERNEL_WIDTH = 25.0
DEFAULT_RIDGE = 1.0
DEFAULT_TOP_K = 6


@dataclass(frozen=True)
class InterpretableInstance:
    """Distinct tokens of a preprocessed text as binary presence features."""

    tokens: tuple
    features: tuple

    @classmethod
    def from_tokens(cls, tokens) -> "InterpretableInstance":
        return cls(tuple(tokens), tuple(dict.fromkeys(tokens)))


def perturb(instance: InterpretableInstance, n_samples: int, seed: int):
    """Masks over the instance features plus the tuple of tokens each sample
    keeps, in order; samples with equal masks share one tuple.

    Sample 0 is the all-ones mask (the original tokens); the rest each
    remove a uniform random number of uniformly chosen features.
    Deterministic per seed.
    """
    n_features = len(instance.features)
    if n_features < 1:
        raise ValueError("instance has no features to perturb")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    n_off = rng.integers(1, n_features + 1, n_samples - 1)
    # A random ranking of the features per sample: the first n_off go.
    ranks = rng.random((n_samples - 1, n_features)).argsort(axis=1).argsort(axis=1)
    masks = np.ones((n_samples, n_features), dtype=np.int64)
    masks[1:] = ranks >= n_off[:, None]
    # np.unique sorts bit-packed rows, a few bytes each, far faster than int64 rows.
    _, first, inverse = np.unique(np.packbits(masks, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    feature_of = [instance.features.index(token) for token in instance.tokens]
    kept = [tuple(compress(instance.tokens, row)) for row in masks[first][:, feature_of].tolist()]
    return masks, [kept[i] for i in inverse.reshape(-1).tolist()]


def kernel_weights(masks, kernel_width: float = DEFAULT_KERNEL_WIDTH) -> np.ndarray:
    """Proximity weight exp(-D^2 / width^2) of each mask (row), D = cosine
    distance between the mask and the all-ones mask. The all-zero mask
    takes D = 1."""
    masks = np.asarray(masks, dtype=np.float64)
    if masks.ndim != 2 or masks.shape[1] == 0:
        raise ValueError(f"expected (samples, features) masks with features, got {masks.shape}")
    ones = masks.sum(axis=1)
    distance = np.where(ones == 0, 1.0, 1.0 - np.sqrt(ones / masks.shape[1]))
    return np.exp(-(distance**2) / kernel_width**2)


@dataclass(frozen=True)
class Explanation:
    """Top-k token contributions from the local surrogate fit."""

    token_weights: tuple  # ((token, signed weight), ...) ranked by |weight|
    intercept: float
    fit_score: float  # weighted R^2 of the surrogate
    n_samples: int
    seed: int | None = None
    tokens: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)  # JSON writes its tuples as lists

    def to_html(self) -> str:
        """Static rendering: hue by sign (orange toward hate, blue away),
        intensity proportional to |weight|."""
        weight_of = dict(self.token_weights)
        peak = max((abs(w) for w in weight_of.values()), default=0.0)
        spans = []
        for token in self.tokens or [t for t, _ in self.token_weights]:
            weight = weight_of.get(token)
            if weight is None or peak == 0.0:
                spans.append(f"<span>{html.escape(token)}</span>")
                continue
            alpha = abs(weight) / peak
            color = "255, 127, 14" if weight > 0 else "31, 119, 180"
            spans.append(
                f'<span style="background-color: rgba({color}, {alpha:.3f})" '
                f'title="{weight:+.4f}">{html.escape(token)}</span>'
            )
        rows = "".join(
            f"<tr><td>{html.escape(t)}</td><td>{w:+.6f}</td></tr>" for t, w in self.token_weights
        )
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<style>body{font-family:sans-serif;margin:2em}span{padding:2px;margin:1px}"
            "table{border-collapse:collapse;margin-top:1em}td{border:1px solid #ccc;padding:4px}"
            "</style></head><body>\n"
            f"<p>{' '.join(spans)}</p>\n"
            f"<table><tr><th>token</th><th>weight</th></tr>{rows}</table>\n"
            f"<p>intercept {self.intercept:+.4f}, fit score {self.fit_score:.4f}, "
            f"{self.n_samples} samples, seed {self.seed}</p>\n"
            "</body></html>\n"
        )


def fit_local(masks, weights, probabilities, top_k: int = DEFAULT_TOP_K,
              feature_names=None, ridge: float = DEFAULT_RIDGE) -> Explanation:
    """Weighted ridge regression of probabilities on presence masks.

    The intercept is unpenalized; features are ranked by |coefficient| and
    the top_k reported with their signs.
    """
    masks = np.asarray(masks, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n_samples, n_features = masks.shape
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if np.all(masks == masks[0]):
        raise ValueError("degenerate design: all masks are identical")
    if feature_names is None:
        feature_names = tuple(f"feature_{j}" for j in range(n_features))
    design = np.hstack((np.ones((n_samples, 1)), masks))
    weighted_design = design * weights[:, None]
    normal = design.T @ weighted_design
    normal[np.arange(1, n_features + 1), np.arange(1, n_features + 1)] += ridge
    beta = np.linalg.solve(normal, design.T @ (weights * probabilities))
    intercept = float(beta[0])
    coefficients = beta[1:]
    fitted = design @ beta
    weighted_mean = float(np.sum(weights * probabilities) / np.sum(weights))
    total = float(np.sum(weights * (probabilities - weighted_mean) ** 2))
    residual = float(np.sum(weights * (probabilities - fitted) ** 2))
    fit_score = 1.0 if total == 0.0 else 1.0 - residual / total
    order = sorted(range(n_features), key=lambda j: (-abs(coefficients[j]), j))
    top = order[: min(top_k, n_features)]
    token_weights = tuple((feature_names[j], float(coefficients[j])) for j in top)
    return Explanation(token_weights, intercept, fit_score, n_samples)


def explain(predictor, text: str, n_samples: int = DEFAULT_N_SAMPLES,
            top_k: int = DEFAULT_TOP_K, seed: int = 0,
            config: PipelineConfig | None = None,
            kernel_width: float = DEFAULT_KERNEL_WIDTH,
            ridge: float = DEFAULT_RIDGE) -> Explanation:
    """Full pipeline: preprocess, perturb, query the predictor on the batch
    of distinct kept token sequences, kernel-weight, and fit the surrogate.
    Only the first config.max_len tokens are explained, and only as much of
    the text is preprocessed as they need: the model reads no further.

    `predictor` takes a list of token tuples and returns their hate
    probabilities; a text predictor `predict` takes them as
    `lambda seqs: predict([" ".join(s) for s in seqs])`. The returned
    Explanation records seed and sample count for replay.
    """
    config = config or default_pipeline()
    tokens = preprocess(text, config, limit=config.max_len)
    if not tokens:
        raise ValueError("text preprocesses to zero tokens; nothing to explain")
    instance = InterpretableInstance.from_tokens(tokens)
    masks, sequences = perturb(instance, n_samples, seed)
    # Samples often repeat a sequence: score each distinct one once.
    position = {}
    sample_rows = [position.setdefault(sequence, len(position)) for sequence in sequences]
    distinct = list(position)
    scores = np.asarray(predictor(distinct), dtype=np.float64)
    if scores.shape != (len(distinct),):
        raise ValueError(f"predictor returned shape {scores.shape}, expected ({len(distinct)},)")
    if not np.isfinite(scores).all():
        raise ValueError("predictor returned non-finite scores")
    probabilities = scores[sample_rows]
    weights = kernel_weights(masks, kernel_width)
    explanation = fit_local(
        masks, weights, probabilities, top_k, feature_names=instance.features, ridge=ridge
    )
    return replace(explanation, seed=seed, n_samples=n_samples, tokens=instance.tokens)
