"""Numerical core: activations, binary cross-entropy, an LSTM cell with
exact backpropagation through time, bidirectional composition, dense
layers and Adam.

Everything is plain numpy. Training runs in float32 by default; gradient
verification (tests/oracles.py) runs the same code in float64. The LSTM
reads its inputs as rows of a table (TableRows), so a token is projected
once per block of steps however often it occurs. The BiLSTM's backward
direction runs on the process's one worker thread (run_both), beside the
forward direction, when a batch is large enough (PARALLEL_MIN_WORK); the
checkpoint loader uses the same thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent import futures
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_EPS = 1e-7  # probability clamp used by the loss and by predictions

DENSE_ACTIVATIONS = ("identity", "sigmoid", "relu")


class NumericError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""


def sigmoid(x):
    """Numerically stable logistic function, an array of x's shape.

    Uses exp(-|x|) only, so it cannot overflow, and satisfies
    sigmoid(-x) + sigmoid(x) == 1 exactly.
    """
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


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


@dataclass(frozen=True)
class TableRows:
    """A (B, L, d) batch held as rows of a table: element [b, t] is
    table[ids[b, t]]. A scan reads its inputs this way, so a token that
    occurs many times is gathered and projected once per block, and no
    (B, L, d) array is made."""

    table: np.ndarray  # (V, d)
    ids: np.ndarray  # (B, L) integer indices into table

    def __post_init__(self):
        if (self.table.ndim != 2 or self.ids.ndim != 2
                or not np.issubdtype(self.ids.dtype, np.integer)):
            raise ValueError(f"expected a (V, d) table and (B, L) integer ids, got shapes "
                             f"{self.table.shape} and {self.ids.shape} of {self.ids.dtype}")

    @property
    def shape(self) -> tuple:
        return self.ids.shape + self.table.shape[1:]

    @property
    def dtype(self):
        return self.table.dtype


class LstmCache(NamedTuple):
    """What lstm_backward needs from a forward scan with keep_cache.

    inputs is the TableRows the scan read, kept for its ids and dtype;
    packed_inputs holds each position's input row, gathered once from
    the table for the input weights' gradient. The per-position arrays
    are packed time-major: step t holds the counts[t] rows still running,
    in order of decreasing length, and position p of the pack is row
    rows[p], time position cols[p] of the padded (B, L) layout. A scan
    without keep_cache holds none of them.
    """

    inputs: TableRows  # (B, L, d), the batch as the scan read it
    packed_inputs: np.ndarray  # (P, d)
    gates: np.ndarray  # (P, 4h)
    cells: np.ndarray  # (P, h)
    tanh_cells: np.ndarray  # (P, h)
    states: np.ndarray  # (P, h)
    rows: np.ndarray  # (P,)
    cols: np.ndarray  # (P,)
    counts: np.ndarray  # (T,) running rows per step, T the longest length


BLOCK_STEPS = 8  # steps per input projection in a scan without keep_cache
# A block projects at least this many table rows, repeating its distinct
# ids when it has fewer. A BLAS may round the rows of a product of few
# rows differently from the same rows of a large product: with OpenBLAS
# 0.3.31 (1 thread) on a 2-core Xeon the rows of 1-4-row products
# differed at d=100 and d=300, and blocks holding 1-3 distinct tokens made
# the blocked and the cached scan differ in 13-20 of 20 random batches, at
# d=300, h=128 and at d=100, h=64. At 5 rows or more every case was equal
# (TestBlockedScan fails at 4).
PROJECTION_MIN_ROWS = 8


def _check_lengths(lengths, batch, length):
    """Per-row lengths as an index array."""
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


def lstm_forward(inputs: TableRows, params: LstmCellParams, keep_cache, lengths, reverse=False):
    """Scan a batch of right-padded sequences; returns (final states,
    cache for backward).

    Row b of inputs holds lengths[b] real positions, an integer in 0..L;
    with reverse it is read from its last real position back to its
    first. Each step is c' = f*c + i*g, h' = o*tanh(c') from a zero state,
    and runs only the rows that have not ended, so padding costs no work.
    The states are (B, h): each row's state after its last step, zero for
    a row of length 0. Each step writes out only the rows whose last step
    it is: the tail of the running prefix.

    The scan runs in blocks of steps. Each block projects the distinct
    table rows of its real positions once, in one GEMM, and each step
    gathers its own rows' pre-activations from that projection; only the
    recurrent product stays in the step loop. With keep_cache the block
    is the whole schedule, and the gates, cells and states of every
    position, and its input row, are kept for lstm_backward. With
    keep_cache=False (inference) a block is BLOCK_STEPS steps, each step
    gathers into one buffer that the next step overwrites, and the cache
    is None. A BLAS may round a GEMM of a few rows differently from a
    large one, so a last block shorter than BLOCK_STEPS joins the one
    before it, and a block projects at least PROJECTION_MIN_ROWS rows; so
    both modes give the same bits.
    """
    batch, length, d = inputs.shape
    if d != params.input_size:
        raise ValueError(f"input size {d} does not match cell input size {params.input_size}")
    lengths = _check_lengths(lengths, batch, length)
    rows, cols, counts = _schedule(lengths, reverse)
    packed_ids = inputs.ids[rows, cols]  # the table row of each position
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
    # With keep_cache the gates and state rows of every position, at its
    # own row, else one step's, reused.
    hs = np.empty((len(rows) if keep_cache else max(steps, default=0), h), dtype=dtype)
    gates = np.empty((len(hs), 4 * h), dtype=dtype)
    cells = np.empty_like(hs)
    tanh_cells = np.empty_like(hs)
    states = np.zeros((batch, h), dtype=dtype)
    running_on = steps[1:] + [0]  # rows past running_on[t] end at step t
    for t0, t1 in blocks:
        begin, end = starts[t0], starts[t1]
        # Scaled pre-activations of the block's distinct rows; position p
        # of the block reads row inverse[p].
        distinct, inverse = np.unique(packed_ids[begin:end], return_inverse=True)
        if 0 < len(distinct) < PROJECTION_MIN_ROWS:
            distinct = np.resize(distinct, PROJECTION_MIN_ROWS)
        projected = np.empty((len(distinct), 4 * h), dtype=dtype)
        np.matmul(inputs.table[distinct], w_in_t, out=projected)
        projected += bias
        for t in range(t0, t1):
            start, n = starts[t], steps[t]
            now, previous = (start, starts[t - 1]) if keep_cache else (0, 0)
            # Activated in place, the gathered pre-activations become the
            # gates. With mode="clip" take writes straight into out.
            z = np.take(projected, inverse[start - begin : start - begin + n], axis=0,
                        out=gates[now : now + n], mode="clip")
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
            if running_on[t] < n:
                states[rows[start + running_on[t] : start + n]] = h_now[running_on[t] :]
    if not keep_cache:
        return states, None
    del projected  # before the (P, d) gather
    packed = inputs.table[packed_ids]
    return states, LstmCache(inputs, packed, gates, cells, tanh_cells, hs, rows, cols, counts)


def lstm_backward(d_states, cache: LstmCache, params: LstmCellParams, input_grad=True):
    """Exact BPTT given dLoss/dh for each row's final state, (B, h), as
    lstm_forward returned the states.

    The loop carries only the recurrence, over the same packed schedule
    as the forward scan: going back in time, the running rows grow. The
    weight gradients, the bias gradient and the input rows' gradients are
    one GEMM or sum each over the real positions. Returns ((ids, d_rows):
    the distinct table ids the real positions read, ascending, and each
    one's gradient summed over its positions, or None without input_grad;
    grads dict with keys w_in/w_rec/bias).
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
    dc_dh = np.multiply(tanh_cells, tanh_cells)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= acts[:, 3]
    # Going back in time, each row joins the running prefix at its last
    # step, its dh carry its final state's gradient and its dc carry zero.
    dh_next = d_states[rows[:first]].astype(dtype, copy=False)
    dc_next = np.zeros((first, h), dtype=dtype)
    end = len(rows)
    for n in reversed(counts.tolist()):
        now = slice(end - n, end)
        dh = dh_next[:n]
        dc = dh * dc_dh[now]
        dc += dc_next[:n]
        per_gate[now, :3] *= dc[:, None]
        per_gate[now, 3] *= dh
        np.matmul(coef[now], params.w_rec, out=dh_next[:n])
        np.multiply(dc, acts[now, 1], out=dc_next[:n])
        end -= n
    del dc_dh  # the weight gradients' gather below is the last (P, h) array
    grads = {
        "w_in": coef.T @ packed,
        "w_rec": coef[first:].T @ hs[before],
        "bias": coef.sum(axis=0),
    }
    if not input_grad:
        return None, grads
    packed_ids = inputs.ids[rows, cols]  # the table row each position read
    order = np.argsort(packed_ids, kind="stable")
    ids, starts = np.unique(packed_ids[order], return_index=True)
    return (ids, np.add.reduceat((coef @ params.w_in)[order], starts, axis=0)), grads


# One direction's scan work in multiply-adds, below which both directions
# run in the caller's thread: the Python step loop holds the GIL, and on a
# small scan it is most of the time. A scan whose P real positions all
# read distinct rows does P * 4h * (d + h). Measured on 2 cores with 1 BLAS
# thread, serial against worker, median of 5 rounds, for the forward, the
# cached forward and the backward, on such batches: from 6M to 14.5M the
# worker lost on at least one of the three at every shape tried
# (x0.56-0.92); from 20.9M up it gained, x1.08-1.71, but for one cached
# forward at h=64, d=100 (x0.90 at 24.7M). At h=128, d=300 this is about
# 90 real positions. A forward scan of table rows projects each distinct
# row once, so _forward_work counts the rows it projects, not the
# positions. The benchmark's 6-feature explain texts forward 64 rows,
# e.g. 192 positions over 6 distinct tokens: 42M counted by positions,
# 13.8M so. That explain took 4.6 ms serial against 5.5 ms with the
# worker in one series and 5.4 against 5.6 ms in another (medians of 6
# alternating rounds of best of 8); a 7-feature one (448 positions, 29M)
# took 8.0 against 7.8 ms.
PARALLEL_MIN_WORK = 20_000_000
M_ARENA_MAX = -8  # glibc's mallopt parameter number


def _glibc_call(name: str, *args):
    """Call glibc's function `name` with int args; on another libc, or
    where none can be loaded, do nothing."""
    try:
        libc = ctypes.CDLL(None)
        if hasattr(libc, "gnu_get_libc_version"):
            getattr(libc, name)(*args)
    except (OSError, AttributeError):
        pass


def _one_malloc_arena():
    """Have every thread allocate from glibc's main malloc arena.

    glibc gives a new thread an arena of its own, which keeps the blocks
    the thread frees; with the backward direction's scans allocating
    there, a training run's peak resident set grew by about a fifth.
    One arena lets both threads reuse each other's freed blocks. It is a
    process-wide setting, made once, before the worker starts.
    """
    _glibc_call("mallopt", M_ARENA_MAX, 1)


def release_free_heap():
    """Give the pages of glibc's free heap blocks back to the system.

    glibc does so on its own only from the top of the heap, and whether
    a training run left a live block there depends on how its two
    threads interleaved: afterwards the heap kept about 3 MB free in
    some processes and about 90 MB in others.
    """
    _glibc_call("malloc_trim", 0)


_worker = None  # the process's one worker thread, False on one CPU
_worker_lock = threading.Lock()


def _worker_thread():
    """The one worker thread, made on first use; None when this process
    may run on one CPU only."""
    global _worker
    with _worker_lock:
        if _worker is None:
            affinity = getattr(os, "sched_getaffinity", None)
            if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
                _worker = False
            else:
                _one_malloc_arena()
                _worker = futures.ThreadPoolExecutor(1)
        return _worker or None


def _forget_worker():
    """In a forked child, which has neither the thread nor a free lock."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _forward_work(inputs: TableRows, lengths, params: LstmCellParams) -> int:
    """A lower bound on one direction's forward scan work: the recurrent
    product at each of the P real positions, P * 4h * h, plus the input
    projection of each distinct row, at least PROJECTION_MIN_ROWS of them.
    A scan in blocks projects a row once per block it occurs in. The
    distinct rows are only counted when the recurrence alone is below
    PARALLEL_MIN_WORK: above it they cannot change the choice, and
    counting them would sort every position."""
    positions = int(lengths.sum())
    work = positions * params.w_rec.size
    if positions and work < PARALLEL_MIN_WORK:
        real = inputs.ids[np.arange(inputs.shape[1]) < lengths[:, None]]
        work += max(len(np.unique(real)), PROJECTION_MIN_ROWS) * params.w_in.size
    return work


def run_both(here, there, parallel: bool):
    """(here(), there()). With parallel set and a second CPU there, there()
    runs on the worker thread while here() runs in this one; otherwise
    both run here, here() first. The two calls must share no writes, so
    the result does not depend on the schedule, and there() must not
    call run_both: with one worker it would wait on itself. Whatever
    happens, the worker has finished before this returns or raises. An
    error of here() is the one raised; an error of there() reaches the
    caller when here() returned."""
    worker = _worker_thread() if parallel else None
    if worker is None:
        return here(), there()
    pending = worker.submit(there)
    try:
        return here(), pending.result()
    except BaseException:
        pending.exception()  # waits; the first error is the one raised
        raise
    finally:
        del pending  # else there()'s error, through this frame, holds itself


def bilstm_batch_forward(inputs: TableRows, forward_params, backward_params, lengths,
                         keep_cache=True):
    """Run both directions over a batch of right-padded sequences; returns
    (features, caches for backward, or None without keep_cache).

    Both directions read the one TableRows, which their caches keep. Row
    b holds lengths[b] real positions, an integer in 0..L. The backward
    direction reads them reversed, so both directions stop at the row's
    last real position and no state depends on the padding. The features
    are both directions' final states side by side, (B, 2h); a row of
    length 0 gets zeros.

    The two directions do not depend on each other. When one direction's
    work (_forward_work) reaches PARALLEL_MIN_WORK, the backward
    direction's lstm_forward runs on one worker thread, shared by the
    process, while the forward direction's runs in the caller's; numpy
    releases the GIL inside its GEMMs and ufuncs, so the two scans
    overlap on two CPUs. The bits are those of the two calls one after
    the other.
    """
    if inputs.shape[1] < 1:
        raise ValueError(f"expected a (B, L, d) batch with L >= 1, got shape {inputs.shape}")
    lengths = _check_lengths(lengths, *inputs.shape[:2])
    (states_fwd, cache_fwd), (states_bwd, cache_bwd) = run_both(
        lambda: lstm_forward(inputs, forward_params, keep_cache, lengths),
        lambda: lstm_forward(inputs, backward_params, keep_cache, lengths, True),
        _forward_work(inputs, lengths, backward_params) >= PARALLEL_MIN_WORK,
    )
    features = np.concatenate((states_fwd, states_bwd), axis=1)
    return features, (cache_fwd, cache_bwd) if keep_cache else None


def bilstm_batch_backward(d_features, caches, forward_params, backward_params, input_grad=True):
    """Gradients of bilstm_batch_forward's (B, 2h) features: (the (V, d)
    gradient of the caches' table, or None without input_grad, forward
    grads, backward grads). The backward direction's lstm_backward runs on the worker thread as
    in bilstm_batch_forward."""
    cache_fwd, cache_bwd = caches
    h_fwd = forward_params.hidden_size
    d_states_fwd, d_states_bwd = d_features[:, :h_fwd], d_features[:, h_fwd:]
    (d_in_fwd, grads_fwd), (d_in_bwd, grads_bwd) = run_both(
        lambda: lstm_backward(d_states_fwd, cache_fwd, forward_params, input_grad),
        lambda: lstm_backward(d_states_bwd, cache_bwd, backward_params, input_grad),
        len(cache_bwd.rows) * (backward_params.w_in.size + backward_params.w_rec.size)
        >= PARALLEL_MIN_WORK,
    )
    if not input_grad:
        return None, grads_fwd, grads_bwd
    d_table = np.zeros_like(cache_fwd.inputs.table)
    for ids, d_rows in (d_in_fwd, d_in_bwd):
        d_table[ids] += d_rows
    return d_table, grads_fwd, grads_bwd


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


ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # added to the root of the second moment


@dataclass
class AdamState:
    """Per-parameter moment accumulators for bias-corrected Adam."""

    learning_rate: float = 1e-3
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
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for name, grad in grads.items():
        param = params[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape {grad.shape} != param shape {param.shape} ({name})")
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.first_moment.setdefault(name, np.zeros_like(param))
        v = state.second_moment.setdefault(name, np.zeros_like(param))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        param -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state
