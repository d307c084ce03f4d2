"""Numerical core: activations, binary cross-entropy, an LSTM cell with
exact backpropagation through time, bidirectional composition, dense
layers and Adam.

Everything is plain numpy. Training runs in float32 by default; gradient
verification (tests/oracles.py) runs the same code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_EPS = 1e-7  # probability clamp used by the loss and by predictions

DENSE_ACTIVATIONS = ("identity", "sigmoid", "relu")
SEQUENCE_REPRS = ("final", "flatten")  # what bilstm_batch_forward returns per row


class NumericError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""


def sigmoid(x):
    """Numerically stable logistic function.

    Uses exp(-|x|) only, so it cannot overflow, and satisfies
    sigmoid(-x) + sigmoid(x) == 1 exactly.
    """
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    if out.ndim == 0:
        return float(out)
    return out


def bce(probabilities, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass
class LstmCellParams:
    """One LSTM cell. Gate order in the stacked 4h dimension is fixed:
    input, forget, candidate, output."""

    w_in: np.ndarray  # (4h, d)
    w_rec: np.ndarray  # (4h, h)
    bias: np.ndarray  # (4h,)

    def __post_init__(self):
        four_h, _ = self.w_in.shape
        if four_h % 4 != 0:
            raise ValueError(f"first weight dimension must be 4*h, got {four_h}")
        h = four_h // 4
        if self.w_rec.shape != (four_h, h) or self.bias.shape != (four_h,):
            raise ValueError(
                f"inconsistent LSTM shapes: w_in {self.w_in.shape}, "
                f"w_rec {self.w_rec.shape}, bias {self.bias.shape}"
            )

    @property
    def hidden_size(self) -> int:
        return self.w_in.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_in.shape[1]


def _gate_constants(h, dtype):
    """Per-unit (scale, offset) over the stacked gates, order (i, f, g, o).
    Each gate is offset + scale * tanh(scale * z): tanh(z) on the candidate,
    sigmoid(z) = 0.5 + 0.5 * tanh(z / 2) on the other three."""
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), h)
    offset = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=dtype), h)
    return scale, offset


class LstmCache(NamedTuple):
    """What lstm_backward needs from a forward scan with keep_cache.

    The per-position arrays are packed time-major: step t holds the
    counts[t] rows still running, in order of decreasing length, and
    position p of the pack is row rows[p], time position cols[p] of the
    padded (B, L) layout. A scan without keep_cache holds none of them.
    """

    inputs: np.ndarray  # (B, L, d), the padded batch as passed in
    packed_inputs: np.ndarray  # (P, d)
    gates: np.ndarray  # (P, 4h)
    cells: np.ndarray  # (P, h)
    tanh_cells: np.ndarray  # (P, h)
    states: np.ndarray  # (P, h)
    rows: np.ndarray  # (P,)
    cols: np.ndarray  # (P,)
    counts: np.ndarray  # (T,) running rows per step, T the longest length


BLOCK_STEPS = 8  # steps per input GEMM in a scan without keep_cache


def _check_lengths(lengths, batch, length):
    """Per-row lengths as an index array; all `length` when None."""
    if lengths is None:
        return np.full(batch, length, dtype=np.intp)
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,) or not np.issubdtype(lengths.dtype, np.integer):
        raise ValueError(
            f"lengths must be {batch} integers, got shape {lengths.shape} of {lengths.dtype}"
        )
    if batch and (lengths.min() < 0 or lengths.max() > length):
        raise ValueError(f"lengths must lie in 0..{length}, got {lengths.min()}..{lengths.max()}")
    return lengths.astype(np.intp, copy=False)


def _schedule(lengths, reverse):
    """Packed positions of a batch: (rows, cols, counts) as in LstmCache.

    Rows are ordered by decreasing length (a stable sort), so the rows
    still running at any step are a prefix of that order.
    """
    order = np.argsort(-lengths, kind="stable")
    by_length = lengths[order]
    running = by_length > np.arange(by_length[0] if len(by_length) else 0)[:, None]
    t, j = np.nonzero(running)
    cols = by_length[j] - 1 - t if reverse else t
    return order[j], cols, np.count_nonzero(running, axis=1)


def lstm_forward(inputs, params: LstmCellParams, keep_cache=True, lengths=None, reverse=False):
    """Scan a batch of right-padded sequences; returns (states (B,L,h),
    cache for backward).

    Row b holds lengths[b] real positions (all L when lengths is None);
    with reverse it is read from its last real position back to its
    first. Each step is c' = f*c + i*g, h' = o*tanh(c') from a zero state,
    and runs only the rows that have not ended, so padding costs no work.
    The state after reading position t is written at position t; it is
    zero past each row's length.

    The scan runs in blocks of steps. Each block gathers its real
    positions' inputs and projects them in one GEMM; only the recurrent
    product stays in the step loop. With keep_cache the block is the
    whole schedule, the packed inputs, gates, cells and states of every
    position are kept for lstm_backward, and the states are scattered
    into the padded output once, after the loop. With keep_cache=False
    (inference) a block is BLOCK_STEPS steps, each block's gates
    overwrite one buffer, each step writes its state rows out before
    the next step overwrites them, and the cache is None. A last block
    shorter than BLOCK_STEPS joins the one before it, because a BLAS may
    round a GEMM of a few rows differently from a large one; so both
    modes give the same bits.
    """
    inputs = np.asarray(inputs)
    batch, length, d = inputs.shape
    if d != params.input_size:
        raise ValueError(f"input size {d} does not match cell input size {params.input_size}")
    lengths = _check_lengths(lengths, batch, length)
    rows, cols, counts = _schedule(lengths, reverse)
    h = params.hidden_size
    dtype = inputs.dtype
    scale, offset = _gate_constants(h, dtype)
    # The weights carry the pre-activation scale; a power of two, it is exact.
    w_in_t = (params.w_in * scale[:, None]).T
    w_rec_t = (params.w_rec * scale[:, None]).T
    bias = params.bias * scale
    steps = counts.tolist()
    starts = [0, *np.cumsum(counts).tolist()]  # step t is positions starts[t]:starts[t+1]
    block = len(steps) if keep_cache else BLOCK_STEPS
    # The first step of each block; the last block takes the remainder too.
    firsts = list(range(0, max(len(steps) - block, 0) + 1, max(block, 1)))
    blocks = list(zip(firsts, firsts[1:] + [len(steps)]))
    # The gates of the largest block; with keep_cache the state rows of
    # every position, at its own row, else one step's, reused.
    gates = np.empty((max(starts[t1] - starts[t0] for t0, t1 in blocks), 4 * h), dtype=dtype)
    hs = np.empty((len(rows) if keep_cache else max(steps, default=0), h), dtype=dtype)
    cells = np.empty_like(hs)
    tanh_cells = np.empty_like(hs)
    states = np.zeros((batch, length, h), dtype=dtype)
    for t0, t1 in blocks:
        begin, end = starts[t0], starts[t1]
        # Scaled pre-activations of the block's positions; activated in
        # place, they become the gates.
        packed = inputs[rows[begin:end], cols[begin:end]]
        np.matmul(packed, w_in_t, out=gates[: end - begin])
        gates[: end - begin] += bias
        for t in range(t0, t1):
            start, n = starts[t], steps[t]
            now, previous = (start, starts[t - 1]) if keep_cache else (0, 0)
            z = gates[start - begin : start - begin + n]
            if t:
                z += hs[previous : previous + n] @ w_rec_t
            np.tanh(z, out=z)
            z *= scale
            z += offset
            c = cells[now : now + n]
            np.multiply(z[:, h : 2 * h], cells[previous : previous + n] if t else 0.0, out=c)
            c += z[:, :h] * z[:, 2 * h : 3 * h]
            tanh_c = np.tanh(c, out=tanh_cells[now : now + n])
            h_now = np.multiply(z[:, 3 * h :], tanh_c, out=hs[now : now + n])
            if not keep_cache:  # the next step overwrites these rows
                states[rows[start : start + n], cols[start : start + n]] = h_now
    if not keep_cache:
        return states, None
    states[rows, cols] = hs
    return states, LstmCache(inputs, packed, gates, cells, tanh_cells, hs, rows, cols, counts)


def lstm_backward(d_states, cache: LstmCache, params: LstmCellParams, input_grad=True):
    """Exact BPTT given dLoss/d h_t for every timestep; entries past a
    row's length are ignored.

    The loop carries only the recurrence, over the same packed schedule
    as the forward scan: going back in time, the running rows grow. The
    weight gradients, the bias gradient and d_inputs are one GEMM or sum
    each over the real positions. Returns (d_inputs (B,L,d), zero past
    each row's length, or None without input_grad, grads dict with keys
    w_in/w_rec/bias).
    """
    inputs, packed, gates, cells, tanh_cells, hs, rows, cols, counts = cache
    h = params.hidden_size
    dtype = inputs.dtype
    scale, offset = _gate_constants(h, dtype)
    first = int(counts[0]) if len(counts) else 0
    # Position p of step t >= 1 follows position p - counts[t-1] of its row.
    before = np.arange(first, len(rows)) - np.repeat(counts[:-1], counts[1:])
    # Each gate's slope: sigmoid' = s(1-s) = 0.25 - (s-0.5)^2 and
    # tanh' = 1 - g^2, both scale^2 - (gate - offset)^2. Times the factor
    # that meets dc (i, f, g) or dh (o), it is coef; scaled by dc or dh
    # inside the loop, coef becomes the pre-activation gradients.
    coef = gates - offset
    coef *= coef
    np.subtract(scale * scale, coef, out=coef)
    acts = gates.reshape(-1, 4, h)
    per_gate = coef.reshape(-1, 4, h)
    per_gate[:, 0] *= acts[:, 2]  # i: g
    per_gate[first:, 1] *= cells[before]  # f: the previous cell, zero at the start
    per_gate[:first, 1] = 0.0
    per_gate[:, 2] *= acts[:, 0]  # g: i
    per_gate[:, 3] *= tanh_cells  # o: tanh(c)
    dc_dh = 1.0 - tanh_cells * tanh_cells
    dc_dh *= acts[:, 3]
    d_hs = d_states[rows, cols]
    # Going back in time, each row joins the running prefix with zero carries.
    dh_next = np.zeros((first, h), dtype=dtype)
    dc_next = np.zeros((first, h), dtype=dtype)
    end = len(rows)
    for n in reversed(counts.tolist()):
        now = slice(end - n, end)
        dh = d_hs[now] + dh_next[:n]
        dc = dh * dc_dh[now]
        dc += dc_next[:n]
        per_gate[now, :3] *= dc[:, None]
        per_gate[now, 3] *= dh
        np.matmul(coef[now], params.w_rec, out=dh_next[:n])
        np.multiply(dc, acts[now, 1], out=dc_next[:n])
        end -= n
    grads = {
        "w_in": coef.T @ packed,
        "w_rec": coef[first:].T @ hs[before],
        "bias": coef.sum(axis=0),
    }
    if not input_grad:
        return None, grads
    d_inputs = np.zeros_like(inputs)
    d_inputs[rows, cols] = coef @ params.w_in
    return d_inputs, grads


def bilstm_batch_forward(inputs, forward_params, backward_params, mode="final",
                         lengths=None, keep_cache=True):
    """Run both directions over a batch of right-padded sequences.

    Row b holds lengths[b] real positions (all L when lengths is None), an
    integer in 0..L. The backward direction reads them reversed, so both
    directions stop at the row's last real position and no state depends
    on the padding.

    mode="final": both directions' hidden states at each row's last real
    step, (B, 2h); a row of length 0 gets zeros.
    mode="flatten": per-position concatenation flattened to (B, 2h*L),
    zero past each row's length.
    """
    if mode not in SEQUENCE_REPRS:
        raise ValueError(f"unknown sequence representation {mode!r}")
    inputs = np.asarray(inputs)
    if inputs.ndim != 3 or inputs.shape[1] < 1:
        raise ValueError(f"expected a (B, L, d) batch with L >= 1, got shape {inputs.shape}")
    batch, length, _ = inputs.shape
    lengths = _check_lengths(lengths, batch, length)
    states_fwd, cache_fwd = lstm_forward(inputs, forward_params, keep_cache, lengths)
    states_bwd, cache_bwd = lstm_forward(inputs, backward_params, keep_cache, lengths, True)
    if mode == "final":
        # The backward direction ends at position 0; rows of length 0 are zero.
        last = np.maximum(lengths - 1, 0)
        features = np.concatenate((states_fwd[np.arange(batch), last], states_bwd[:, 0]), axis=1)
    else:
        features = np.concatenate((states_fwd, states_bwd), axis=2).reshape(batch, -1)
    caches = (cache_fwd, cache_bwd, lengths) if keep_cache else None
    return features, caches


def bilstm_batch_backward(d_features, caches, forward_params, backward_params, mode="final",
                          input_grad=True):
    """Gradients of bilstm_batch_forward's features: (d_inputs or None
    without input_grad, forward grads, backward grads)."""
    cache_fwd, cache_bwd, lengths = caches
    batch, length, _ = cache_fwd.inputs.shape
    h_fwd = forward_params.hidden_size
    if mode == "final":
        d_states_fwd = np.zeros((batch, length, h_fwd), dtype=d_features.dtype)
        d_states_fwd[np.arange(batch), np.maximum(lengths - 1, 0)] = d_features[:, :h_fwd]
        d_states_bwd = np.zeros((batch, length, backward_params.hidden_size),
                                dtype=d_features.dtype)
        d_states_bwd[:, 0] = d_features[:, h_fwd:]
    else:
        d_all = d_features.reshape(batch, length, -1)
        d_states_fwd, d_states_bwd = d_all[:, :, :h_fwd], d_all[:, :, h_fwd:]
    d_in_fwd, grads_fwd = lstm_backward(d_states_fwd, cache_fwd, forward_params, input_grad)
    d_in_bwd, grads_bwd = lstm_backward(d_states_bwd, cache_bwd, backward_params, input_grad)
    d_inputs = d_in_fwd + d_in_bwd if input_grad else None
    return d_inputs, grads_fwd, grads_bwd


@dataclass
class DenseParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in DENSE_ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent dense shapes: weights {self.weights.shape}, bias {self.bias.shape}"
            )


def dense_forward(x, params: DenseParams):
    x = np.asarray(x)
    if x.shape[-1] != params.weights.shape[1]:
        raise ValueError(
            f"input size {x.shape[-1]} does not match dense input {params.weights.shape[1]}"
        )
    z = x @ params.weights.T + params.bias
    if params.activation == "identity":
        y = z
    elif params.activation == "sigmoid":
        y = sigmoid(z)
    else:
        y = np.maximum(z, 0.0)
    return y, (x, y)


def dense_backward(d_out, cache, params: DenseParams):
    x, y = cache
    if params.activation == "identity":
        dz = d_out
    elif params.activation == "sigmoid":
        dz = d_out * y * (1.0 - y)
    else:
        dz = d_out * (y > 0)
    d_weights = dz.T @ x
    d_bias = dz.sum(axis=0)
    d_x = dz @ params.weights
    return d_x, d_weights, d_bias


@dataclass
class AdamState:
    """Per-parameter moment accumulators for bias-corrected Adam."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """Apply one bias-corrected Adam update in place.

    Raises NumericError on any non-finite gradient (training aborts rather
    than silently diverging).
    """
    state.step_count += 1
    t = state.step_count
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    for name, grad in grads.items():
        param = params[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape {grad.shape} != param shape {param.shape} ({name})")
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.first_moment.setdefault(name, np.zeros_like(param))
        v = state.second_moment.setdefault(name, np.zeros_like(param))
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        param -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state
