import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from hatedetect import neural
from hatedetect.classifier import ModelConfig, _forward_parts, forward_probs, init_params
from hatedetect.neural import (
    BLOCK_STEPS,
    PARALLEL_MIN_WORK,
    PROJECTION_MIN_ROWS,
    AdamState,
    DenseParams,
    LstmCache,
    LstmCellParams,
    NumericError,
    TableRows,
    adam_step,
    bce,
    bilstm_batch_backward,
    bilstm_batch_forward,
    dense_backward,
    dense_forward,
    lstm_backward,
    lstm_forward,
    sigmoid,
)

from oracles import finite_diff_grad


def rel_error(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


class TestSigmoid:
    def test_zero(self):
        out = sigmoid(np.array(0.0))
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            value = sigmoid(np.array(100.0))
        assert 1.0 - 1e-12 < value <= 1.0
        with np.errstate(over="raise"):
            assert sigmoid(np.array(-500.0)) >= 0.0
            assert sigmoid(np.array(500.0)) <= 1.0

    def test_symmetry(self):
        x = np.array(3.7)
        assert abs(sigmoid(-x) + sigmoid(x) - 1.0) < 1e-12

    def test_array_input(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert np.all((out > 0) & (out < 1))


class TestBce:
    def test_half_probability(self):
        assert bce([0.5], [1.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        assert bce([1.0], [1.0]) <= -math.log(1.0 - 1e-7) + 1e-15
        assert bce([0.0], [0.0]) <= -math.log(1.0 - 1e-7) + 1e-15

    def test_batch_mean(self):
        assert bce([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bce([0.5, 0.5], [1.0])

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            bce([0.5], [0.5])

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        p = rng.random(50)
        y = rng.integers(0, 2, 50).astype(float)
        assert bce(p, y) >= 0.0


# A zero-length row, tied lengths, and rows not sorted by length.
MIXED_LENGTHS = np.array([3, 0, 5, 3, 1, 5, 2])


def uniform(rng, fan, shape):
    """Weights drawn uniform +-1/sqrt(fan), as the classifier initializes them."""
    bound = 1.0 / np.sqrt(fan)
    return rng.uniform(-bound, bound, shape)


def random_cell(input_size, hidden_size, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    w_in = uniform(rng, hidden_size, (4 * hidden_size, input_size))
    w_rec = uniform(rng, hidden_size, (4 * hidden_size, hidden_size))
    return LstmCellParams(w_in.astype(dtype), w_rec.astype(dtype),
                          np.zeros(4 * hidden_size, dtype=dtype))


def identity_input_cell(h):
    """Zero recurrence and bias, identity input weights: the stacked gate
    pre-activations of each step are that step's input (d = 4h)."""
    return LstmCellParams(np.eye(4 * h), np.zeros((4 * h, h)), np.zeros(4 * h))


def reference_scan(sequence, params):
    """One sequence stepped through the textbook equations, one step at a
    time, with the plain logistic function."""
    h = params.hidden_size
    h_t, c_t = np.zeros(h), np.zeros(h)
    states, cells = [], []
    for x in sequence:
        z = params.w_in @ x + params.w_rec @ h_t + params.bias
        i, f, o = (1.0 / (1.0 + np.exp(-z[k * h : (k + 1) * h])) for k in (0, 1, 3))
        g = np.tanh(z[2 * h : 3 * h])
        c_t = f * c_t + i * g
        h_t = o * np.tanh(c_t)
        states.append(h_t)
        cells.append(c_t)
    return np.array(states), np.array(cells)


def rows_of(x):
    """A dense (B, L, d) batch as rows of itself, table row b * L + t
    holding position (b, t), and every row's full length L."""
    x = np.asarray(x)
    batch, length, d = x.shape
    ids = np.arange(batch * length).reshape(batch, length)
    return TableRows(x.reshape(batch * length, d), ids), np.full(batch, length)


def dense_input_grad(table_grad, inputs):
    """lstm_backward's (ids, d_rows) for a batch made by rows_of as a
    (B, L, d) array: table row b * L + t is position (b, t)."""
    ids, d_rows = table_grad
    d_inputs = np.zeros(inputs.shape, dtype=d_rows.dtype)
    d_inputs.reshape(-1, inputs.shape[-1])[ids] = d_rows
    return d_inputs


def assert_sums_onto_table(d_table, terms):
    """d_table is the sum of terms, (ids, rows) pairs of per-position
    gradient rows and the table rows they read. A table row no position
    read is exactly 0, one read once carries that position's bits, and
    one read n times lies within the rounding of n - 1 additions, in
    whatever order they were made."""
    ids = np.concatenate([ids for ids, _ in terms])
    rows = np.concatenate([rows for _, rows in terms]).astype(np.float64)
    eps = np.finfo(d_table.dtype).eps
    for row_id, got in enumerate(d_table):
        read = rows[ids == row_id]
        bound = max(len(read) - 1, 0) * eps * np.abs(read).sum(axis=0)
        assert np.all(np.abs(got - read.sum(axis=0)) <= bound), row_id


def padded(cache, packed):
    """A packed per-position cache array laid out as (B, L, ...), zero past
    each row's length."""
    out = np.zeros(cache.inputs.shape[:2] + packed.shape[1:], dtype=packed.dtype)
    out[cache.rows, cache.cols] = packed
    return out


class TestLstmCellStep:
    """The gated update c' = f*c + i*g, h' = o*tanh(c'), checked through the
    batch scan."""

    def test_zero_preactivation_step_halves_cell(self):
        h = 4
        params = identity_input_cell(h)
        first = np.random.default_rng(0).normal(0.0, 2.0, 4 * h)
        inputs, lengths = rows_of(np.stack([first, np.zeros(4 * h)])[None])
        final, cache = lstm_forward(inputs, params, True, lengths)
        cells, states = padded(cache, cache.cells), padded(cache, cache.states)
        c0 = cells[0, 0]
        assert np.any(np.abs(c0) > 0.1)
        # all gates sit at sigmoid(0)=0.5 and the candidate at tanh(0)=0
        assert np.allclose(cells[0, 1], 0.5 * c0, atol=1e-12)
        assert np.allclose(states[0, 1], 0.5 * np.tanh(0.5 * c0), atol=1e-12)
        assert final.tobytes() == states[:, 1].tobytes()

    def test_all_zero(self):
        d, h = 2, 3
        params = LstmCellParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))
        inputs, lengths = rows_of(np.zeros((1, 1, d)))
        states, cache = lstm_forward(inputs, params, True, lengths)
        assert np.all(states == 0.0)
        assert cache.cells.shape == (1, h)
        assert np.all(cache.cells == 0.0)

    def test_shape_mismatch(self):
        params = random_cell(3, 4, 0)
        inputs, lengths = rows_of(np.zeros((1, 1, 5)))
        with pytest.raises(ValueError):
            lstm_forward(inputs, params, True, lengths)

    def test_cell_growth_bound(self):
        # |c'| <= |c| + 1 elementwise: forget gate <= 1, candidate in [-1, 1]
        rng = np.random.default_rng(3)
        params = random_cell(4, 5, 1)
        inputs, lengths = rows_of(rng.normal(0, 2, (50, 8, 4)))
        _, cache = lstm_forward(inputs, params, True, lengths)
        cells = padded(cache, cache.cells)
        assert np.all(np.abs(cells[:, 0]) <= 1.0 + 1e-12)
        assert np.all(np.abs(cells[:, 1:]) <= np.abs(cells[:, :-1]) + 1.0 + 1e-12)

    def test_matches_reference_scan(self):
        params = random_cell(3, 4, 2)
        params.bias[:] = np.random.default_rng(5).normal(0, 1, 16)
        rng = np.random.default_rng(4)
        batch = rng.normal(0, 1, (3, 6, 3))
        inputs, lengths = rows_of(batch)
        final, cache = lstm_forward(inputs, params, True, lengths)
        for row, sequence in enumerate(batch):
            ref_states, ref_cells = reference_scan(sequence, params)
            assert np.allclose(padded(cache, cache.states)[row], ref_states, atol=1e-12)
            assert np.allclose(padded(cache, cache.cells)[row], ref_cells, atol=1e-12)
            assert np.allclose(final[row], ref_states[-1], atol=1e-12)

    def test_forward_only_keeps_no_cache(self):
        params = random_cell(3, 4, 2)
        batch = np.random.default_rng(6).normal(0, 1, (2, 5, 3))
        inputs, lengths = rows_of(batch)
        states, cache = lstm_forward(inputs, params, False, lengths)
        assert cache is None
        assert np.array_equal(states, lstm_forward(inputs, params, True, lengths)[0])
        inputs, _ = rows_of(batch[[0, 1, 0]])
        lengths = np.array([3, 0, 5])
        for reverse in (False, True):
            states, cache = lstm_forward(inputs, params, False, lengths, reverse)
            assert cache is None
            cached, _ = lstm_forward(inputs, params, True, lengths, reverse)
            assert np.array_equal(states, cached)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        d, h, L, B = 3, 4, 5, 2
        inputs, lengths = rows_of(rng.normal(0, 1, (B, L, d)))
        probe = rng.normal(0, 1, (B, h))  # random scalarization of the final states
        cell = random_cell(d, h, 6)
        params = {"w_in": cell.w_in, "w_rec": cell.w_rec, "bias": cell.bias}

        def loss(p):
            cell = LstmCellParams(p["w_in"], p["w_rec"], p["bias"])
            states, _ = lstm_forward(inputs, cell, True, lengths)
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        states, cache = lstm_forward(inputs, cell, True, lengths)
        _, analytic = lstm_backward(probe, cache, cell)
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        d, h, L, B = 3, 4, 4, 2
        cell = random_cell(d, h, 8)
        inputs = rng.normal(0, 1, (B, L, d))
        probe = rng.normal(0, 1, (B, h))
        rows, lengths = rows_of(inputs)
        states, cache = lstm_forward(rows, cell, True, lengths)
        d_inputs = dense_input_grad(lstm_backward(probe, cache, cell)[0], inputs)

        def loss(x):
            rows, lengths = rows_of(x)
            states, _ = lstm_forward(rows, cell, True, lengths)
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, inputs, step=1e-5)
        assert rel_error(d_inputs, numeric) < 1e-4


class TestPackedScan:
    """Rows are stepped only while they run; each row's states are those of
    the row scanned alone, whatever its neighbours and its padding."""

    @staticmethod
    def mixed_batch(seed, d=3):
        """A dense batch, it as rows of itself, and MIXED_LENGTHS."""
        inputs = np.random.default_rng(seed).normal(0, 1, (len(MIXED_LENGTHS), 5, d))
        return inputs, rows_of(inputs)[0], MIXED_LENGTHS

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rows_match_the_reference_scan_alone(self, reverse):
        params = random_cell(3, 4, 30)
        params.bias[:] = np.random.default_rng(31).normal(0, 1, 16)
        inputs, rows, lengths = self.mixed_batch(32)
        final, cache = lstm_forward(rows, params, True, lengths, reverse)
        states, cells = padded(cache, cache.states), padded(cache, cache.cells)
        for row, n in enumerate(lengths):
            sequence = inputs[row, :n][::-1] if reverse else inputs[row, :n]
            ref_states, ref_cells = reference_scan(sequence, params)
            # Each row's final state is its state after its last step; zero
            # for a row of length 0.
            assert np.allclose(final[row], ref_states[-1] if n else 0.0, atol=1e-12)
            if reverse and n:  # the state after reading position t sits at t
                ref_states, ref_cells = ref_states[::-1], ref_cells[::-1]
            assert np.allclose(states[row, :n], ref_states.reshape(n, 4), atol=1e-12)
            assert np.allclose(cells[row, :n], ref_cells.reshape(n, 4), atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_states_and_input_gradients_zero_past_length(self, reverse):
        params = random_cell(3, 4, 35)
        inputs, rows, lengths = self.mixed_batch(36)
        final, cache = lstm_forward(rows, params, True, lengths, reverse)
        # The cache holds a state at every real position and at no other,
        # and a row of length 0 ends in the zero state.
        padding = np.arange(inputs.shape[1]) >= lengths[:, None]
        held = np.zeros_like(padding)
        held[cache.rows, cache.cols] = True
        assert len(cache.rows) == lengths.sum() and np.array_equal(held, ~padding)
        assert np.all(final[lengths == 0] == 0.0)
        # The final state's gradient reaches every real position's input
        # and no padding position's; a zero-length row's gradient is ignored.
        probe = np.random.default_rng(37).normal(0, 1, final.shape)
        table_grad = lstm_backward(probe, cache, params)[0]
        assert np.array_equal(table_grad[0], np.flatnonzero(~padding))
        d_inputs = dense_input_grad(table_grad, inputs)
        assert np.all(d_inputs[padding] == 0.0)
        assert np.all(np.any(d_inputs[~padding] != 0.0, axis=-1))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        cell = random_cell(3, 4, 38)
        inputs, rows, lengths = self.mixed_batch(39)
        probe = np.random.default_rng(40).normal(0, 1, (len(inputs), 4))
        params = {"w_in": cell.w_in, "w_rec": cell.w_rec, "bias": cell.bias}

        def loss(p, x=inputs):
            cell = LstmCellParams(p["w_in"], p["w_rec"], p["bias"])
            states, _ = lstm_forward(rows_of(x)[0], cell, True, lengths, reverse)
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        numeric_x = finite_diff_grad(lambda x: loss(params, x), inputs, step=1e-5)
        _, cache = lstm_forward(rows, cell, True, lengths, reverse)
        table_grad, analytic = lstm_backward(probe, cache, cell)
        d_inputs = dense_input_grad(table_grad, inputs)
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4
        assert rel_error(d_inputs, numeric_x) < 1e-4

    def test_no_real_positions(self):
        params = random_cell(3, 4, 41)
        inputs, _ = rows_of(np.ones((3, 4, 3)))
        states, cache = lstm_forward(inputs, params, True, np.zeros(3, dtype=int))
        assert np.all(states == 0.0)
        (ids, d_rows), grads = lstm_backward(np.ones((3, 4)), cache, params)
        assert ids.shape == (0,) and d_rows.shape == (0, 3)
        assert all(np.all(grad == 0.0) for grad in grads.values())

    @pytest.mark.parametrize("lengths", [
        [6, 1],  # past L
        [-1, 2],
        [2],  # not one per row
        [[2, 2]],
        [2.0, 1.0],  # not integers
        None,  # lengths are required
    ])
    def test_invalid_lengths_rejected(self, lengths):
        params = random_cell(3, 4, 42)
        inputs, _ = rows_of(np.ones((2, 5, 3)))
        with pytest.raises(ValueError, match="lengths"):
            lstm_forward(inputs, params, True, lengths)
        with pytest.raises(ValueError, match="lengths"):
            bilstm_batch_forward(inputs, params, params, lengths)


class TestBlockedScan:
    """Without keep_cache the scan projects its inputs BLOCK_STEPS steps at
    a time into one reused buffer; block edges must change no bit."""

    LENGTH = 3 * BLOCK_STEPS + 1
    # Empty, one step, a block edge either side, the longest, and between.
    LENGTHS = np.array([0, 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS,
                        LENGTH, LENGTH - 1, 5, LENGTH])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_states_equal_the_cached_scan(self, dtype, reverse):
        params = random_cell(8, 6, 50, dtype)
        inputs = np.random.default_rng(51).normal(0, 1, (len(self.LENGTHS), self.LENGTH, 8))
        inputs = inputs.astype(dtype)
        rows, full = rows_of(inputs)
        # Mixed lengths, all full, a lone row, and no real position at all.
        for batch, lengths in ((rows, self.LENGTHS), (rows, full), rows_of(inputs[:1]),
                               (rows, np.zeros(len(full), dtype=int))):
            states, cache = lstm_forward(batch, params, False, lengths, reverse)
            assert cache is None
            cached, _ = lstm_forward(batch, params, True, lengths, reverse)
            assert states.dtype == dtype
            assert states.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("d, h", [(300, 128), (100, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_block_of_few_distinct_rows_equals_the_cached_scan(self, d, h, dtype, reverse):
        # The block a scan reads first holds only 1-3 distinct table rows,
        # the rest of the scan many. A BLAS may round a product of so few
        # rows differently, so the block projects PROJECTION_MIN_ROWS rows.
        rng = np.random.default_rng(54)
        params = random_cell(d, h, 55, dtype)
        table = rng.normal(0, 1, (60, d)).astype(dtype)
        cols = np.arange(self.LENGTH)
        if reverse:  # the first block read is each row's last BLOCK_STEPS positions
            first_block = cols >= self.LENGTHS[:, None] - BLOCK_STEPS
        else:
            first_block = np.broadcast_to(cols < BLOCK_STEPS, (len(self.LENGTHS), self.LENGTH))
        for distinct in (1, 2, 3):
            for _ in range(4):
                ids = rng.integers(0, len(table), first_block.shape)
                few = rng.choice(len(table), distinct, replace=False)
                ids[first_block] = few[rng.integers(0, distinct, np.count_nonzero(first_block))]
                inputs = TableRows(table, ids)
                states, _ = lstm_forward(inputs, params, False, self.LENGTHS, reverse)
                cached, _ = lstm_forward(inputs, params, True, self.LENGTHS, reverse)
                assert states.tobytes() == cached.tobytes(), (distinct, ids[first_block][:4])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_probs_equal_the_cached_forward(self, dtype, plain_pipeline):
        config = ModelConfig(hidden_size=6, dense1_size=4,
                             pipeline=replace(plain_pipeline, max_len=self.LENGTH + 3))
        table = np.random.default_rng(52).normal(0, 1, (40, 8))
        table[0] = 0.0
        params = init_params(config, table, dtype)
        token_ids = np.random.default_rng(53).integers(1, 40, (len(self.LENGTHS), self.LENGTH + 3))
        token_ids[np.arange(self.LENGTH + 3) >= self.LENGTHS[:, None]] = 0
        probs = forward_probs(params, token_ids, config)
        cached, _ = _forward_parts(params, token_ids, config, keep_cache=True)
        assert probs.dtype == dtype
        assert probs.tobytes() == cached.tobytes()


class TestTableRows:
    """A batch whose tokens repeat gives the bits of the same positions
    read as distinct rows, the dense table[ids] as rows of itself:
    states, every cache array, gradients and input gradients, with and
    without a cache and in both directions."""

    @staticmethod
    def batch(seed, dtype, d=5, vocab=9, lengths="mixed"):
        """Few table rows, so positions repeat them, and the same positions
        as rows of themselves. With "mixed" lengths, MIXED_LENGTHS has a
        row of length 0 and padding past every row but the longest; with
        "full", every row is real to its end."""
        rng = np.random.default_rng(seed)
        table = rng.normal(0, 1, (vocab, d)).astype(dtype)
        ids = rng.integers(0, vocab, (len(MIXED_LENGTHS), MIXED_LENGTHS.max() + 1))
        dense, full = rows_of(table[ids])
        return TableRows(table, ids), dense, MIXED_LENGTHS if lengths == "mixed" else full

    def test_shape_and_dtype(self):
        rows = TableRows(np.zeros((9, 5), dtype=np.float32), np.zeros((3, 4), dtype=np.int64))
        assert np.shape(rows) == rows.shape == (3, 4, 5) and rows.dtype == np.float32

    @pytest.mark.parametrize("table, ids", [
        (np.zeros(5), np.zeros((2, 3), dtype=int)),  # not a (V, d) table
        (np.zeros((9, 5)), np.zeros(3, dtype=int)),  # not (B, L) ids
        (np.zeros((9, 5)), np.zeros((2, 3))),  # ids not integers
    ])
    def test_bad_shapes_rejected(self, table, ids):
        with pytest.raises(ValueError, match="table"):
            TableRows(table, ids)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", ["mixed", "full"])
    def test_lstm_equals_the_dense_batch(self, dtype, keep_cache, reverse, lengths):
        rows, dense, lengths = self.batch(90, dtype, lengths=lengths)
        params = random_cell(5, 4, 91, dtype)
        states, cache = lstm_forward(rows, params, keep_cache, lengths, reverse)
        expected, dense_cache = lstm_forward(dense, params, keep_cache, lengths, reverse)
        assert states.dtype == dtype
        assert states.tobytes() == expected.tobytes()
        if not keep_cache:
            assert cache is None and dense_cache is None
            return
        assert cache.inputs is rows
        for name in LstmCache._fields[1:]:
            assert getattr(cache, name).tobytes() == getattr(dense_cache, name).tobytes(), name
        probe = np.random.default_rng(92).normal(0, 1, states.shape).astype(dtype)
        read = rows.ids[cache.rows, cache.cols]
        for input_grad in (True, False):
            table_grad, grads = lstm_backward(probe, cache, params, input_grad)
            d_dense, expected_grads = lstm_backward(probe, dense_cache, params, input_grad)
            if input_grad:
                # The dense batch's position rows, summed onto the rows they read.
                ids, d_rows = table_grad
                assert np.array_equal(ids, np.unique(read)) and d_rows.dtype == dtype
                d_table = np.zeros_like(rows.table)
                d_table[ids] = d_rows
                per_position = dense_input_grad(d_dense, dense)[cache.rows, cache.cols]
                assert_sums_onto_table(d_table, [(read, per_position)])
            else:
                assert table_grad is None and d_dense is None
            for name in ("w_in", "w_rec", "bias"):
                assert grads[name].tobytes() == expected_grads[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("worker", [False, True])
    @pytest.mark.parametrize("lengths", ["mixed", "full"])
    def test_bilstm_equals_the_dense_batch(self, dtype, keep_cache, worker, lengths,
                                           monkeypatch):
        if worker:
            monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        rows, dense, lengths = self.batch(93, dtype, lengths=lengths)
        fwd, bwd = random_cell(5, 4, 94, dtype), random_cell(5, 4, 95, dtype)
        features, caches = bilstm_batch_forward(rows, fwd, bwd, lengths, keep_cache)
        expected, dense_caches = bilstm_batch_forward(dense, fwd, bwd, lengths, keep_cache)
        assert features.tobytes() == expected.tobytes()
        if not keep_cache:
            assert caches is None and dense_caches is None
            return
        assert all(cache.inputs is rows for cache in caches)
        probe = np.random.default_rng(96).normal(0, 1, features.shape).astype(dtype)
        got = bilstm_batch_backward(probe, caches, fwd, bwd)
        want = bilstm_batch_backward(probe, dense_caches, fwd, bwd)
        # The table's gradient: both directions' position rows of the
        # dense batch, summed onto the rows they read.
        assert got[0].shape == rows.table.shape and got[0].dtype == dtype
        h = fwd.hidden_size
        terms = []
        for d_states, cache, cell in ((probe[:, :h], dense_caches[0], fwd),
                                      (probe[:, h:], dense_caches[1], bwd)):
            d_dense = dense_input_grad(lstm_backward(d_states, cache, cell)[0], dense)
            terms.append((rows.ids[cache.rows, cache.cols], d_dense[cache.rows, cache.cols]))
        assert_sums_onto_table(got[0], terms)
        for grads, expected_grads in zip(got[1:], want[1:]):
            for name in ("w_in", "w_rec", "bias"):
                assert grads[name].tobytes() == expected_grads[name].tobytes(), name

    @pytest.mark.parametrize("worker", [False, True])
    def test_table_gradient_matches_finite_differences(self, worker, monkeypatch):
        # Ids repeat within a row and across rows, and row 2 has length 0.
        # Table rows 5 and 6 sit only past a row's length or in row 2, and
        # row 7 nowhere, so no real position reads them.
        if worker:
            monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(97)
        d, h = 3, 4
        table = rng.normal(0, 1, (8, d))
        ids = np.array([[1, 2, 1, 1, 5],
                        [2, 3, 0, 4, 6],
                        [6, 5, 6, 5, 5],
                        [4, 4, 3, 2, 1]])
        lengths = np.array([4, 3, 0, 5])
        fwd, bwd = random_cell(d, h, 98), random_cell(d, h, 99)
        probe = rng.normal(0, 1, (len(ids), 2 * h))

        def loss(t):
            features, _ = bilstm_batch_forward(TableRows(t, ids), fwd, bwd, lengths)
            return float(np.sum(features * probe))

        _, caches = bilstm_batch_forward(TableRows(table, ids), fwd, bwd, lengths)
        d_table, _, _ = bilstm_batch_backward(probe, caches, fwd, bwd)
        numeric = finite_diff_grad(loss, table, step=1e-5)
        assert d_table.shape == table.shape
        assert rel_error(d_table, numeric) < 1e-4
        assert np.all(d_table[5:] == 0.0)
        assert np.all(np.any(d_table[:5] != 0.0, axis=1))


class TestBilstm:
    def test_single_position_sequence(self):
        fwd = random_cell(3, 4, 0)
        bwd = random_cell(3, 4, 1)
        inputs, lengths = rows_of(np.ones((1, 1, 3)))
        out, _ = bilstm_batch_forward(inputs, fwd, bwd, lengths)
        assert out.shape == (1, 8)

    def test_reversal_swaps_halves_with_shared_params(self):
        cell = random_cell(3, 4, 2)
        rng = np.random.default_rng(3)
        seq = rng.normal(0, 1, (1, 6, 3))
        inputs, lengths = rows_of(seq)
        out, _ = bilstm_batch_forward(inputs, cell, cell, lengths)
        reversed_out, _ = bilstm_batch_forward(rows_of(seq[:, ::-1])[0], cell, cell, lengths)
        h = 4
        assert np.allclose(out[0, :h], reversed_out[0, h:], atol=1e-12)
        assert np.allclose(out[0, h:], reversed_out[0, :h], atol=1e-12)

    def test_zero_everything(self):
        d, h = 2, 3
        zero = LstmCellParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))
        inputs, lengths = rows_of(np.zeros((1, 4, d)))
        out, _ = bilstm_batch_forward(inputs, zero, zero, lengths)
        assert np.all(out == 0.0)

    def test_empty_sequence_rejected(self):
        fwd = random_cell(2, 2, 0)
        inputs, lengths = rows_of(np.ones((1, 0, 2)))
        with pytest.raises(ValueError, match="L >= 1"):
            bilstm_batch_forward(inputs, fwd, fwd, lengths)

    @pytest.mark.parametrize("worker", [False, True])
    def test_row_features_ignore_padding(self, worker, monkeypatch):
        # A row of length n reads the same features as its first n
        # positions alone, whatever sits in the positions after them.
        if worker:
            monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        fwd = random_cell(3, 4, 6)
        bwd = random_cell(3, 4, 7)
        rng = np.random.default_rng(8)
        inputs = rng.normal(0, 1, (3, 7, 3))
        lengths = np.array([7, 4, 1])
        features, _ = bilstm_batch_forward(rows_of(inputs)[0], fwd, bwd, lengths)
        assert features.shape == (3, 8)
        for row, n in enumerate(lengths):
            sequence, full = rows_of(inputs[row : row + 1, :n])
            alone, _ = bilstm_batch_forward(sequence, fwd, bwd, full)
            assert np.allclose(features[row], alone[0], atol=1e-12)

    @pytest.mark.parametrize("worker", [False, True])
    def test_zero_length_row_gets_zero_features(self, worker, monkeypatch):
        if worker:
            monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        fwd = random_cell(3, 4, 9)
        bwd = random_cell(3, 4, 10)
        inputs, _ = rows_of(np.random.default_rng(11).normal(0, 1, (2, 5, 3)))
        features, _ = bilstm_batch_forward(inputs, fwd, bwd, np.array([3, 0]))
        assert np.all(features[1] == 0.0)
        assert np.any(features[0] != 0.0)

    @pytest.mark.parametrize("worker", [False, True])
    def test_gradients_match_finite_differences(self, worker, monkeypatch):
        if worker:
            monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(11)
        d, h, L = 3, 4, 5
        lengths = MIXED_LENGTHS  # rows that end before the padding, one of length L
        B = len(lengths)
        inputs = rng.normal(0, 1, (B, L, d))
        rows, _ = rows_of(inputs)
        fwd = random_cell(d, h, 12)
        bwd = random_cell(d, h, 13)
        probe = rng.normal(0, 1, (B, 2 * h))
        params = {
            "fw": fwd.w_in, "fr": fwd.w_rec, "fb": fwd.bias,
            "bw": bwd.w_in, "br": bwd.w_rec, "bb": bwd.bias,
        }

        def loss(p):
            f = LstmCellParams(p["fw"], p["fr"], p["fb"])
            b = LstmCellParams(p["bw"], p["br"], p["bb"])
            features, _ = bilstm_batch_forward(rows, f, b, lengths)
            return float(np.sum(features * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        features, caches = bilstm_batch_forward(rows, fwd, bwd, lengths)
        d_table, grads_fwd, grads_bwd = bilstm_batch_backward(probe, caches, fwd, bwd)
        d_inputs = d_table.reshape(inputs.shape)  # the batch is rows of itself
        analytic = {
            "fw": grads_fwd["w_in"], "fr": grads_fwd["w_rec"], "fb": grads_fwd["bias"],
            "bw": grads_bwd["w_in"], "br": grads_bwd["w_rec"], "bb": grads_bwd["bias"],
        }
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4
        numeric_x = finite_diff_grad(
            lambda x: float(np.sum(bilstm_batch_forward(rows_of(x)[0], fwd, bwd, lengths)[0]
                                   * probe)),
            inputs, step=1e-5,
        )
        assert rel_error(d_inputs, numeric_x) < 1e-4
        assert np.all(d_inputs[np.arange(L) >= lengths[:, None]] == 0.0)

    def test_forward_finite_for_large_inputs(self):
        fwd = random_cell(3, 4, 20)
        bwd = random_cell(3, 4, 21)
        inputs, lengths = rows_of(np.full((1, 8, 3), 1e3))
        out, _ = bilstm_batch_forward(inputs, fwd, bwd, lengths)
        assert np.all(np.isfinite(out))


def scan_work(lengths, cell):
    return int(np.sum(lengths)) * 4 * cell.hidden_size * (cell.input_size + cell.hidden_size)


class TestFinalStates:
    """A scan returns and takes only each row's last state."""

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_final_states_are_the_per_position_states_at_each_end(self, keep_cache, reverse):
        params = random_cell(3, 4, 60)
        inputs, _ = rows_of(np.random.default_rng(61).normal(0, 1, (len(MIXED_LENGTHS), 5, 3)))
        _, cache = lstm_forward(inputs, params, True, MIXED_LENGTHS, reverse)
        states = padded(cache, cache.states)
        final, _ = lstm_forward(inputs, params, keep_cache, MIXED_LENGTHS, reverse)
        ends = 0 if reverse else np.maximum(MIXED_LENGTHS - 1, 0)
        assert final.shape == (len(MIXED_LENGTHS), 4)
        assert final.tobytes() == states[np.arange(len(MIXED_LENGTHS)), ends].tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_final_gradients_equal_each_row_scanned_alone(self, reverse):
        # A (B, h) gradient reaches row b's inputs as it would reach the
        # inputs of row b's real positions scanned alone; the weight
        # gradients are the sum over rows, and a row of length 0 adds none.
        params = random_cell(3, 4, 62)
        params.bias[:] = np.random.default_rng(64).normal(0, 1, 16)
        rng = np.random.default_rng(63)
        inputs = rng.normal(0, 1, (len(MIXED_LENGTHS), 5, 3))
        _, cache = lstm_forward(rows_of(inputs)[0], params, True, MIXED_LENGTHS, reverse)
        d_final = rng.normal(0, 1, (len(MIXED_LENGTHS), 4))
        table_grad, grads = lstm_backward(d_final, cache, params)
        d_inputs = dense_input_grad(table_grad, inputs)
        summed = {name: np.zeros_like(grads[name]) for name in ("w_in", "w_rec", "bias")}
        for row, n in enumerate(MIXED_LENGTHS):
            assert np.all(d_inputs[row, n:] == 0.0)
            if not n:
                continue
            sequence = inputs[row : row + 1, :n]
            rows, full = rows_of(sequence)
            _, alone = lstm_forward(rows, params, True, full, reverse)
            table_grad, grads_alone = lstm_backward(d_final[row : row + 1], alone, params)
            d_alone = dense_input_grad(table_grad, sequence)
            assert np.allclose(d_inputs[row, :n], d_alone[0], rtol=1e-12, atol=1e-14)
            for name in summed:
                summed[name] += grads_alone[name]
        for name in summed:
            assert np.allclose(grads[name], summed[name], rtol=1e-12, atol=1e-14), name


class TestDirectionWorker:
    """bilstm_batch_forward/_backward hand the backward direction to one
    worker thread above PARALLEL_MIN_WORK; the bits are those of the two
    direct calls, one after the other, whichever thread ran them."""

    # (d, h, B, L): below and above PARALLEL_MIN_WORK.
    SHAPES = {"small": (3, 4, 7, 5), "large": (64, 32, 256, 16)}

    @staticmethod
    def batch(d, h, batch, length, seed=70, dtype=np.float32):
        rng = np.random.default_rng(seed)
        inputs, _ = rows_of(rng.normal(0, 1, (batch, length, d)).astype(dtype))
        lengths = rng.integers(0, length + 1, batch)
        fwd, bwd = random_cell(d, h, 71, dtype), random_cell(d, h, 72, dtype)
        return inputs, lengths, fwd, bwd

    def test_shapes_lie_either_side_of_the_constant(self):
        for size, (d, h, batch, length) in self.SHAPES.items():
            _, lengths, _, bwd = self.batch(d, h, batch, length)
            assert (scan_work(lengths, bwd) >= PARALLEL_MIN_WORK) == (size == "large")

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bits_equal_two_direct_calls(self, size, keep_cache, dtype):
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES[size], dtype=dtype)
        features, caches = bilstm_batch_forward(inputs, fwd, bwd, lengths, keep_cache)
        states_fwd, cache_fwd = lstm_forward(inputs, fwd, keep_cache, lengths)
        states_bwd, cache_bwd = lstm_forward(inputs, bwd, keep_cache, lengths, True)
        expected = np.concatenate((states_fwd, states_bwd), axis=1)
        assert features.tobytes() == expected.tobytes()
        if not keep_cache:
            assert caches is None and cache_fwd is None
            return
        for got, direct in zip(caches, (cache_fwd, cache_bwd)):
            for name, array in got._asdict().items():
                if name == "inputs":  # rows of a table: compare the table and the ids
                    assert array.table.tobytes() == direct.inputs.table.tobytes()
                    assert array.ids.tobytes() == direct.inputs.ids.tobytes()
                else:
                    assert array.tobytes() == getattr(direct, name).tobytes(), name

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bits_equal_two_direct_calls(self, size, input_grad, dtype):
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES[size], dtype=dtype)
        features, caches = bilstm_batch_forward(inputs, fwd, bwd, lengths)
        assert features.dtype == dtype
        probe = np.random.default_rng(73).normal(0, 1, features.shape).astype(dtype)
        d_table, grads_fwd, grads_bwd = bilstm_batch_backward(probe, caches, fwd, bwd, input_grad)
        h = fwd.hidden_size
        d_fwd, d_bwd = probe[:, :h], probe[:, h:]
        d_in_fwd, expected_fwd = lstm_backward(d_fwd, caches[0], fwd, input_grad)
        d_in_bwd, expected_bwd = lstm_backward(d_bwd, caches[1], bwd, input_grad)
        for got, expected in ((grads_fwd, expected_fwd), (grads_bwd, expected_bwd)):
            for name in ("w_in", "w_rec", "bias"):
                assert got[name].tobytes() == expected[name].tobytes(), name
        if input_grad:
            d_inputs = dense_input_grad(d_in_fwd, inputs) + dense_input_grad(d_in_bwd, inputs)
            assert d_table.shape == (inputs.shape[0] * inputs.shape[1], inputs.shape[2])
            assert d_table.tobytes() == d_inputs.tobytes()
        else:
            assert d_table is None

    @staticmethod
    def threads_of_calls(monkeypatch):
        """The thread of every lstm_forward/lstm_backward call, by direction."""
        seen = []
        for name in ("lstm_forward", "lstm_backward"):
            original = getattr(neural, name)

            def traced(*args, _original=original, _name=name, **kwargs):
                seen.append((_name, args[1] if _name == "lstm_forward" else args[2],
                             threading.current_thread()))
                return _original(*args, **kwargs)

            monkeypatch.setattr(neural, name, traced)
        return seen

    @pytest.mark.parametrize("size", ["small", "large"])
    def test_backward_direction_runs_on_the_worker_above_the_constant(self, size, monkeypatch):
        if neural._worker_thread() is None:
            pytest.skip("one CPU: both directions run in the caller")
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES[size])
        seen = self.threads_of_calls(monkeypatch)
        features, caches = bilstm_batch_forward(inputs, fwd, bwd, lengths)
        bilstm_batch_backward(np.ones_like(features), caches, fwd, bwd, False)
        caller = threading.current_thread()
        assert len(seen) == 4
        for name, params, thread in seen:
            on_worker = params is bwd and size == "large"
            assert (thread is not caller) == on_worker, (name, size)

    def test_repeated_rows_are_projected_once_in_the_work(self, monkeypatch):
        # Counted by positions the large batch is above the constant; as
        # rows of one token its projection is PROJECTION_MIN_ROWS rows, and
        # its recurrence alone is below the constant.
        if neural._worker_thread() is None:
            pytest.skip("one CPU: both directions run in the caller")
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES["large"])
        h, d = bwd.hidden_size, bwd.input_size
        assert scan_work(lengths, bwd) >= PARALLEL_MIN_WORK
        assert lengths.sum() * 4 * h * h + PROJECTION_MIN_ROWS * 4 * h * d < PARALLEL_MIN_WORK
        rows = TableRows(inputs.table, np.zeros(inputs.shape[:2], dtype=np.intp))
        seen = self.threads_of_calls(monkeypatch)
        bilstm_batch_forward(rows, fwd, bwd, lengths)
        assert [thread for _, _, thread in seen] == [threading.current_thread()] * 2

    def test_one_cpu_runs_both_directions_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(neural, "_worker", None)
        assert neural._worker_thread() is None
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES["large"])
        seen = self.threads_of_calls(monkeypatch)
        bilstm_batch_forward(inputs, fwd, bwd, lengths)
        assert [thread for _, _, thread in seen] == [threading.current_thread()] * 2

    def make_slow_backward_direction(self, monkeypatch, bwd):
        """The backward direction's lstm_forward sleeps first, then records
        that it finished."""
        finished = []
        original = neural.lstm_forward

        def slow(*args, **kwargs):
            if args[1] is bwd:
                time.sleep(0.05)
                finished.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(neural, "lstm_forward", slow)
        return finished

    def test_caller_error_waits_for_the_worker(self, monkeypatch):
        if neural._worker_thread() is None:
            pytest.skip("one CPU: both directions run in the caller")
        monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES["small"])
        finished = self.make_slow_backward_direction(monkeypatch, bwd)
        wrong = random_cell(inputs.shape[2] + 1, fwd.hidden_size, 74)
        with pytest.raises(ValueError, match="input size"):
            bilstm_batch_forward(inputs, wrong, bwd, lengths)
        assert len(finished) == 1 and finished[0] is not threading.current_thread()
        self.assert_next_call_works(inputs, lengths, fwd, bwd)

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_worker_error_reaches_the_caller(self, monkeypatch, stage):
        monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        inputs, lengths, fwd, bwd = self.batch(*self.SHAPES["small"])
        if stage == "forward":
            wrong = random_cell(inputs.shape[2] + 1, bwd.hidden_size, 75)
            with pytest.raises(ValueError, match="input size"):
                bilstm_batch_forward(inputs, fwd, wrong, lengths)
        else:
            features, caches = bilstm_batch_forward(inputs, fwd, bwd, lengths)
            wrong = random_cell(inputs.shape[2], bwd.hidden_size + 1, 75)
            with pytest.raises(ValueError):
                bilstm_batch_backward(features, caches, fwd, wrong)
        self.assert_next_call_works(inputs, lengths, fwd, bwd)

    @staticmethod
    def assert_next_call_works(inputs, lengths, fwd, bwd):
        features, _ = bilstm_batch_forward(inputs, fwd, bwd, lengths, False)
        states_fwd, _ = lstm_forward(inputs, fwd, False, lengths)
        states_bwd, _ = lstm_forward(inputs, bwd, False, lengths, True)
        assert features.tobytes() == np.concatenate((states_fwd, states_bwd), axis=1).tobytes()

    def test_concurrent_callers_get_their_own_bits(self, monkeypatch):
        # More caller threads than cores share the one worker, switching often.
        monkeypatch.setattr(neural, "PARALLEL_MIN_WORK", 0)
        batches = [self.batch(3, 4, 7, 5, seed=seed) for seed in range(80, 86)]

        def step(x, n, f, b):
            features, caches = bilstm_batch_forward(x, f, b, n)
            d_table, grads_fwd, grads_bwd = bilstm_batch_backward(features, caches, f, b)
            return [features.tobytes(), d_table.tobytes(),
                    *(g.tobytes() for g in (*grads_fwd.values(), *grads_bwd.values()))]

        expected = [step(*batch) for batch in batches]
        wrong = []

        def caller(k):
            for _ in range(20):
                if step(*batches[k]) != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("call, name, args", [
        (neural._one_malloc_arena, "mallopt", (neural.M_ARENA_MAX, 1)),
        (neural.release_free_heap, "malloc_trim", (0,)),
    ], ids=["arena", "trim"])
    def test_libc_call_only_on_glibc(self, monkeypatch, call, name, args):
        calls = []

        class OtherLibc:
            def __init__(self, path):
                setattr(self, name, lambda *args: calls.append(args))

        class Glibc(OtherLibc):
            gnu_get_libc_version = None

        def unloadable(path):
            raise OSError("no C library")

        for libc in (Glibc, OtherLibc, unloadable):
            monkeypatch.setattr(neural.ctypes, "CDLL", libc)
            call()
        assert calls == [args]


class TestDense:
    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "relu"])
    def test_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 1, (4, 5))
        probe = rng.normal(0, 1, (4, 3))
        dense = DenseParams(uniform(rng, 5, (3, 5)), np.zeros(3), activation)
        params = {"w": dense.weights, "b": dense.bias}

        def loss(p):
            out, _ = dense_forward(x, DenseParams(p["w"], p["b"], activation))
            return float(np.sum(out * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        out, cache = dense_forward(x, dense)
        d_x, d_w, d_b = dense_backward(probe, cache, dense)
        assert rel_error(d_w, numeric["w"]) < 1e-4
        assert rel_error(d_b, numeric["b"]) < 1e-4
        numeric_x = finite_diff_grad(
            lambda v: float(np.sum(dense_forward(v, dense)[0] * probe)), x, step=1e-5
        )
        assert rel_error(d_x, numeric_x) < 1e-4

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            DenseParams(np.zeros((2, 2)), np.zeros(2), "softmax")

    def test_input_size_mismatch(self):
        dense = DenseParams(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            dense_forward(np.zeros((4, 5)), dense)


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.array([1.0])}
        state = AdamState(learning_rate=0.1)
        adam_step(params, {"w": np.array([2.0])}, state)  # gradient of w^2 at 1
        assert abs(params["w"][0] - 0.9) < 1e-7

    def test_quadratic_converges_and_matches_scalar_recurrence(self):
        # independent oracle: the same recurrence written out by hand
        lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 201):
            g = 2.0 * w_ref
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            w_ref -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
        params = {"w": np.array([1.0])}
        state = AdamState(learning_rate=lr)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state)
        assert abs(params["w"][0]) < 1e-2
        assert params["w"][0] == pytest.approx(w_ref, abs=1e-12)

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([0.3, -0.7])}
        state = AdamState(learning_rate=0.1)
        for _ in range(5):
            adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], np.array([0.3, -0.7]))

    def test_non_finite_gradient_aborts(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(NumericError, match="w"):
            adam_step(params, {"w": np.array([np.nan])}, AdamState())

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(2)}, AdamState())

    def test_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(9)
            params = {"a": rng.normal(0, 1, (3, 2)), "b": rng.normal(0, 1, 2)}
            state = AdamState(learning_rate=0.01)
            for _ in range(10):
                grads = {"a": params["a"] * 0.5, "b": params["b"] - 0.1}
                adam_step(params, grads, state)
            return params

        first, second = run(), run()
        assert np.array_equal(first["a"], second["a"])
        assert np.array_equal(first["b"], second["b"])


class TestFiniteDiff:
    def test_square(self):
        grad = finite_diff_grad(lambda w: float(w[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda w: 1.25, np.array([0.4, -0.2, 7.0]))
        assert np.all(grad == 0.0)

    def test_dict_structure(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
        grads = finite_diff_grad(lambda p: float(np.sum(p["a"] ** 2) + 4 * p["b"][0, 0]), params)
        assert grads["a"] == pytest.approx([2.0, 4.0], abs=1e-6)
        assert grads["b"][0, 0] == pytest.approx(4.0, abs=1e-6)
