"""Independent oracles the tests check the library against.

The metric oracles are deliberately written with plain Python loops,
separate from the library's vectorized/rank-based implementations. The
loss oracles are forward-only losses whose central finite differences
(finite_diff_grad) check the analytic gradients. The contraction oracle
runs the table's pattern over the whole text.
"""

import math
import re
from functools import lru_cache
from importlib import resources

import numpy as np

from hatedetect import neural
from hatedetect.classifier import ModelConfig, forward_probs
from hatedetect.corpus import HATE, NON_HATE


def batch_loss(params: dict, token_ids: np.ndarray, labels, config: ModelConfig) -> float:
    """Mean BCE of the full model on one batch (forward only)."""
    return neural.bce(forward_probs(params, token_ids, config), labels)


@lru_cache(maxsize=1)
def contractions():
    """The bundled table as (whole-text pattern, lowercase key -> expansion)."""
    table = {}
    lines = resources.files("hatedetect.resources").joinpath("contractions.txt").read_text("utf-8")
    for line in lines.splitlines():
        if line.strip() and not line.startswith("#"):
            short, _, expansion = line.strip().partition("\t")
            table[short.lower()] = expansion
    alternatives = sorted(table, key=len, reverse=True)
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(c) for c in alternatives) + r")\b",
        re.IGNORECASE,
    )
    return pattern, table


def expand_contractions(text: str) -> str:
    """One case-insensitive pass of every contraction over the whole text.

    A match holding a character that only Unicode case folding maps to
    ASCII ("İ", "ı", "ſ") raises KeyError: the table's keys are ASCII.
    """
    pattern, table = contractions()
    return pattern.sub(lambda m: table[m.group(0).lower()], text)


def pair_loss(input_vectors, output_vectors, context, center, negatives) -> float:
    """Negative-sampling loss for one center position (lower is better)."""
    h = input_vectors[context].mean(axis=0)
    s_pos = float(output_vectors[center] @ h)
    s_neg = output_vectors[negatives] @ h
    return float(np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum())


def sentence_loss(input_vectors, output_vectors, sentence, radii, negatives) -> float:
    """pair_loss summed over a sentence's positions: position i's context is
    the other positions within radii[i] of it, its noise words negatives[i]."""
    total = 0.0
    for i, center in enumerate(sentence):
        context = [sentence[j] for j in range(i - radii[i], i + radii[i] + 1)
                   if j != i and 0 <= j < len(sentence)]
        total += pair_loss(input_vectors, output_vectors, context, center, negatives[i])
    return total


def cosine(u, v) -> float:
    """Cosine similarity in [-1, 1], 0 when either vector is zero."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    norms = math.sqrt(sum(float(a) ** 2 for a in u)) * math.sqrt(sum(float(b) ** 2 for b in v))
    return 0.0 if norms == 0.0 else max(-1.0, min(1.0, dot / norms))


def brute_force_auc(scores, labels) -> float:
    """Exhaustive pairwise concordance with half credit for ties."""
    positives = [s for s, label in zip(scores, labels) if label == HATE]
    negatives = [s for s, label in zip(scores, labels) if label == NON_HATE]
    total = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(positives) * len(negatives))


def midranks(values) -> list:
    """1-based rank of each value, tied values sharing the mean of their ranks."""
    ranks = []
    for v in values:
        below = sum(1 for w in values if w < v)
        tied = sum(1 for w in values if w == v)
        ranks.append(below + (tied + 1) / 2.0)
    return ranks


def brute_force_prf(predicted, actual) -> dict:
    """Raw confusion counting, per class and support-weighted."""
    counts = {}
    for positive in (HATE, NON_HATE):
        tp = fp = fn = 0
        for p, a in zip(predicted, actual):
            if p == positive and a == positive:
                tp += 1
            elif p == positive:
                fp += 1
            elif a == positive:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        support = sum(1 for a in actual if a == positive)
        counts[positive] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": support,
        }
    total = len(actual)
    weighted = {
        key: sum(counts[c][key] * counts[c]["support"] for c in (HATE, NON_HATE)) / total
        for key in ("precision", "recall", "f1")
    }
    counts["weighted"] = weighted
    return counts


def finite_diff_grad(f, params, step: float = 1e-5):
    """Central finite differences of a scalar function, coordinate by
    coordinate. `params` is an ndarray or a dict of ndarrays; `f` is
    called on the same (temporarily perturbed) object and must be pure.
    """
    if isinstance(params, np.ndarray):
        wrapped = {"_": params}
        return _finite_diff_dict(lambda p: f(p["_"]), wrapped, step)["_"]
    return _finite_diff_dict(f, params, step)


def _finite_diff_dict(f, params, step):
    grads = {}
    for name, tensor in params.items():
        grad = np.zeros(tensor.shape, dtype=np.float64)
        flat = tensor.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + step
            f_plus = f(params)
            flat[idx] = saved - step
            f_minus = f(params)
            flat[idx] = saved
            grad_flat[idx] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = grad
    return grads
