import math
from dataclasses import replace

import numpy as np
import pytest

from hatedetect.classifier import ModelConfig, _forward_parts, forward_probs, init_params
from hatedetect.neural import (
    BLOCK_STEPS,
    SEQUENCE_REPRS,
    AdamState,
    DenseParams,
    LstmCellParams,
    NumericError,
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
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            value = sigmoid(100.0)
        assert 1.0 - 1e-12 < value <= 1.0
        with np.errstate(over="raise"):
            assert sigmoid(-500.0) >= 0.0
            assert sigmoid(500.0) <= 1.0

    def test_symmetry(self):
        x = 3.7
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


def random_cell(input_size, hidden_size, seed):
    rng = np.random.default_rng(seed)
    w_in = uniform(rng, hidden_size, (4 * hidden_size, input_size))
    w_rec = uniform(rng, hidden_size, (4 * hidden_size, hidden_size))
    return LstmCellParams(w_in, w_rec, np.zeros(4 * hidden_size))


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
        states, cache = lstm_forward(np.stack([first, np.zeros(4 * h)])[None], params)
        cells = padded(cache, cache.cells)
        c0 = cells[0, 0]
        assert np.any(np.abs(c0) > 0.1)
        # all gates sit at sigmoid(0)=0.5 and the candidate at tanh(0)=0
        assert np.allclose(cells[0, 1], 0.5 * c0, atol=1e-12)
        assert np.allclose(states[0, 1], 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_all_zero(self):
        d, h = 2, 3
        params = LstmCellParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))
        states, cache = lstm_forward(np.zeros((1, 1, d)), params)
        assert np.all(states == 0.0)
        assert cache.cells.shape == (1, h)
        assert np.all(cache.cells == 0.0)

    def test_shape_mismatch(self):
        params = random_cell(3, 4, 0)
        with pytest.raises(ValueError):
            lstm_forward(np.zeros((1, 1, 5)), params)

    def test_cell_growth_bound(self):
        # |c'| <= |c| + 1 elementwise: forget gate <= 1, candidate in [-1, 1]
        rng = np.random.default_rng(3)
        params = random_cell(4, 5, 1)
        _, cache = lstm_forward(rng.normal(0, 2, (50, 8, 4)), params)
        cells = padded(cache, cache.cells)
        assert np.all(np.abs(cells[:, 0]) <= 1.0 + 1e-12)
        assert np.all(np.abs(cells[:, 1:]) <= np.abs(cells[:, :-1]) + 1.0 + 1e-12)

    def test_matches_reference_scan(self):
        params = random_cell(3, 4, 2)
        params.bias[:] = np.random.default_rng(5).normal(0, 1, 16)
        rng = np.random.default_rng(4)
        batch = rng.normal(0, 1, (3, 6, 3))
        states, cache = lstm_forward(batch, params)
        for row, sequence in enumerate(batch):
            ref_states, ref_cells = reference_scan(sequence, params)
            assert np.allclose(states[row], ref_states, atol=1e-12)
            assert np.allclose(padded(cache, cache.cells)[row], ref_cells, atol=1e-12)

    def test_forward_only_keeps_no_cache(self):
        params = random_cell(3, 4, 2)
        inputs = np.random.default_rng(6).normal(0, 1, (2, 5, 3))
        states, cache = lstm_forward(inputs, params, keep_cache=False)
        assert cache is None
        assert np.array_equal(states, lstm_forward(inputs, params)[0])
        lengths = np.array([3, 0, 5])
        for reverse in (False, True):
            states, cache = lstm_forward(inputs[[0, 1, 0]], params, False, lengths, reverse)
            assert cache is None
            cached, _ = lstm_forward(inputs[[0, 1, 0]], params, True, lengths, reverse)
            assert np.array_equal(states, cached)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        d, h, L, B = 3, 4, 5, 2
        inputs = rng.normal(0, 1, (B, L, d))
        probe = rng.normal(0, 1, (B, L, h))  # random scalarization
        cell = random_cell(d, h, 6)
        params = {"w_in": cell.w_in, "w_rec": cell.w_rec, "bias": cell.bias}

        def loss(p):
            states, _ = lstm_forward(inputs, LstmCellParams(p["w_in"], p["w_rec"], p["bias"]))
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        states, cache = lstm_forward(inputs, cell)
        _, analytic = lstm_backward(probe, cache, cell)
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        d, h, L, B = 3, 4, 4, 2
        cell = random_cell(d, h, 8)
        inputs = rng.normal(0, 1, (B, L, d))
        probe = rng.normal(0, 1, (B, L, h))
        states, cache = lstm_forward(inputs, cell)
        d_inputs, _ = lstm_backward(probe, cache, cell)

        def loss(x):
            states, _ = lstm_forward(x, cell)
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, inputs, step=1e-5)
        assert rel_error(d_inputs, numeric) < 1e-4


class TestPackedScan:
    """Rows are stepped only while they run; each row's states are those of
    the row scanned alone, whatever its neighbours and its padding."""

    @staticmethod
    def mixed_batch(seed, d=3):
        inputs = np.random.default_rng(seed).normal(0, 1, (len(MIXED_LENGTHS), 5, d))
        return inputs, MIXED_LENGTHS

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rows_match_the_reference_scan_alone(self, reverse):
        params = random_cell(3, 4, 30)
        params.bias[:] = np.random.default_rng(31).normal(0, 1, 16)
        inputs, lengths = self.mixed_batch(32)
        states, cache = lstm_forward(inputs, params, lengths=lengths, reverse=reverse)
        cells = padded(cache, cache.cells)
        for row, n in enumerate(lengths):
            sequence = inputs[row, :n][::-1] if reverse else inputs[row, :n]
            ref_states, ref_cells = reference_scan(sequence, params)
            if reverse and n:  # the state after reading position t sits at t
                ref_states, ref_cells = ref_states[::-1], ref_cells[::-1]
            assert np.allclose(states[row, :n], ref_states.reshape(n, 4), atol=1e-12)
            assert np.allclose(cells[row, :n], ref_cells.reshape(n, 4), atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_states_and_input_gradients_zero_past_length(self, reverse):
        params = random_cell(3, 4, 35)
        inputs, lengths = self.mixed_batch(36)
        states, cache = lstm_forward(inputs, params, lengths=lengths, reverse=reverse)
        # A gradient arriving at padding positions is ignored.
        probe = np.random.default_rng(37).normal(0, 1, states.shape)
        d_inputs, _ = lstm_backward(probe, cache, params)
        padding = np.arange(inputs.shape[1]) >= lengths[:, None]
        assert np.all(states[padding] == 0.0)
        assert np.all(d_inputs[padding] == 0.0)
        assert np.all(np.any(d_inputs[~padding] != 0.0, axis=-1))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        cell = random_cell(3, 4, 38)
        inputs, lengths = self.mixed_batch(39)
        probe = np.random.default_rng(40).normal(0, 1, inputs.shape[:2] + (4,))
        params = {"w_in": cell.w_in, "w_rec": cell.w_rec, "bias": cell.bias}

        def loss(p, x=inputs):
            cell = LstmCellParams(p["w_in"], p["w_rec"], p["bias"])
            states, _ = lstm_forward(x, cell, lengths=lengths, reverse=reverse)
            return float(np.sum(states * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        numeric_x = finite_diff_grad(lambda x: loss(params, x), inputs, step=1e-5)
        _, cache = lstm_forward(inputs, cell, lengths=lengths, reverse=reverse)
        d_inputs, analytic = lstm_backward(probe, cache, cell)
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4
        assert rel_error(d_inputs, numeric_x) < 1e-4

    def test_no_real_positions(self):
        params = random_cell(3, 4, 41)
        inputs = np.ones((3, 4, 3))
        states, cache = lstm_forward(inputs, params, lengths=np.zeros(3, dtype=int))
        assert np.all(states == 0.0)
        d_inputs, grads = lstm_backward(np.ones((3, 4, 4)), cache, params)
        assert np.all(d_inputs == 0.0)
        assert all(np.all(grad == 0.0) for grad in grads.values())

    @pytest.mark.parametrize("lengths", [
        [6, 1],  # past L
        [-1, 2],
        [2],  # not one per row
        [[2, 2]],
        [2.0, 1.0],  # not integers
    ])
    def test_invalid_lengths_rejected(self, lengths):
        params = random_cell(3, 4, 42)
        with pytest.raises(ValueError, match="lengths"):
            lstm_forward(np.ones((2, 5, 3)), params, lengths=np.array(lengths))
        with pytest.raises(ValueError, match="lengths"):
            bilstm_batch_forward(np.ones((2, 5, 3)), params, params, lengths=np.array(lengths))


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
        cell = random_cell(8, 6, 50)
        params = LstmCellParams(*(w.astype(dtype) for w in (cell.w_in, cell.w_rec, cell.bias)))
        inputs = np.random.default_rng(51).normal(0, 1, (len(self.LENGTHS), self.LENGTH, 8))
        inputs = inputs.astype(dtype)
        # Mixed lengths, all full, a lone row, and no real position at all.
        for batch, lengths in ((inputs, self.LENGTHS), (inputs, None), (inputs[:1], None),
                               (inputs, np.zeros(len(inputs), dtype=int))):
            states, cache = lstm_forward(batch, params, False, lengths, reverse)
            assert cache is None
            cached, _ = lstm_forward(batch, params, True, lengths, reverse)
            assert states.dtype == dtype
            assert states.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("sequence_repr", SEQUENCE_REPRS)
    def test_forward_probs_equal_the_cached_forward(self, sequence_repr, plain_pipeline):
        config = ModelConfig(hidden_size=6, dense1_size=4, sequence_repr=sequence_repr,
                             pipeline=replace(plain_pipeline, max_len=self.LENGTH + 3))
        table = np.random.default_rng(52).normal(0, 1, (40, 8)).astype(np.float32)
        table[0] = 0.0
        params = init_params(config, table)
        token_ids = np.random.default_rng(53).integers(1, 40, (len(self.LENGTHS), self.LENGTH + 3))
        token_ids[np.arange(self.LENGTH + 3) >= self.LENGTHS[:, None]] = 0
        probs = forward_probs(params, token_ids, config)
        cached, _ = _forward_parts(params, token_ids, config, keep_cache=True)
        assert probs.tobytes() == cached.tobytes()


class TestBilstm:
    def test_single_position_sequence(self):
        fwd = random_cell(3, 4, 0)
        bwd = random_cell(3, 4, 1)
        out, _ = bilstm_batch_forward(np.ones((1, 1, 3)), fwd, bwd)
        assert out.shape == (1, 8)

    def test_reversal_swaps_halves_with_shared_params(self):
        cell = random_cell(3, 4, 2)
        rng = np.random.default_rng(3)
        seq = rng.normal(0, 1, (1, 6, 3))
        out, _ = bilstm_batch_forward(seq, cell, cell)
        reversed_out, _ = bilstm_batch_forward(seq[:, ::-1], cell, cell)
        h = 4
        assert np.allclose(out[0, :h], reversed_out[0, h:], atol=1e-12)
        assert np.allclose(out[0, h:], reversed_out[0, :h], atol=1e-12)

    def test_zero_everything(self):
        d, h = 2, 3
        zero = LstmCellParams(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h))
        out, _ = bilstm_batch_forward(np.zeros((1, 4, d)), zero, zero)
        assert np.all(out == 0.0)

    def test_flatten_mode_length(self):
        fwd = random_cell(3, 4, 4)
        bwd = random_cell(3, 4, 5)
        seq = np.ones((1, 5, 3))
        assert bilstm_batch_forward(seq, fwd, bwd, mode="flatten")[0].shape == (1, 2 * 4 * 5)

    def test_unknown_mode(self):
        fwd = random_cell(2, 2, 0)
        with pytest.raises(ValueError):
            bilstm_batch_forward(np.ones((1, 2, 2)), fwd, fwd, mode="sum")

    def test_empty_sequence_rejected(self):
        fwd = random_cell(2, 2, 0)
        with pytest.raises(ValueError):
            bilstm_batch_forward(np.ones((1, 0, 2)), fwd, fwd)

    @pytest.mark.parametrize("mode", ["final", "flatten"])
    def test_row_features_ignore_padding(self, mode):
        # A row of length n reads the same features as its first n
        # positions alone, whatever sits in the positions after them.
        fwd = random_cell(3, 4, 6)
        bwd = random_cell(3, 4, 7)
        rng = np.random.default_rng(8)
        inputs = rng.normal(0, 1, (3, 7, 3))
        lengths = np.array([7, 4, 1])
        features, _ = bilstm_batch_forward(inputs, fwd, bwd, mode, lengths)
        for row, n in enumerate(lengths):
            alone, _ = bilstm_batch_forward(inputs[row : row + 1, :n], fwd, bwd, mode)
            assert np.allclose(features[row, : alone.shape[1]], alone[0], atol=1e-12)
            assert np.all(features[row, alone.shape[1] :] == 0.0)

    @pytest.mark.parametrize("mode", ["final", "flatten"])
    def test_zero_length_row_gets_zero_features(self, mode):
        fwd = random_cell(3, 4, 9)
        bwd = random_cell(3, 4, 10)
        inputs = np.random.default_rng(11).normal(0, 1, (2, 5, 3))
        features, _ = bilstm_batch_forward(inputs, fwd, bwd, mode, np.array([3, 0]))
        assert np.all(features[1] == 0.0)
        assert np.any(features[0] != 0.0)

    @pytest.mark.parametrize("mode", ["final", "flatten"])
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(11)
        d, h, L = 3, 4, 5
        lengths = MIXED_LENGTHS  # rows that end before the padding, one of length L
        B = len(lengths)
        inputs = rng.normal(0, 1, (B, L, d))
        fwd = random_cell(d, h, 12)
        bwd = random_cell(d, h, 13)
        width = 2 * h * (L if mode == "flatten" else 1)
        probe = rng.normal(0, 1, (B, width))
        params = {
            "fw": fwd.w_in, "fr": fwd.w_rec, "fb": fwd.bias,
            "bw": bwd.w_in, "br": bwd.w_rec, "bb": bwd.bias,
        }

        def loss(p):
            f = LstmCellParams(p["fw"], p["fr"], p["fb"])
            b = LstmCellParams(p["bw"], p["br"], p["bb"])
            features, _ = bilstm_batch_forward(inputs, f, b, mode, lengths)
            return float(np.sum(features * probe))

        numeric = finite_diff_grad(loss, params, step=1e-5)
        features, caches = bilstm_batch_forward(inputs, fwd, bwd, mode, lengths)
        d_inputs, grads_fwd, grads_bwd = bilstm_batch_backward(probe, caches, fwd, bwd, mode)
        analytic = {
            "fw": grads_fwd["w_in"], "fr": grads_fwd["w_rec"], "fb": grads_fwd["bias"],
            "bw": grads_bwd["w_in"], "br": grads_bwd["w_rec"], "bb": grads_bwd["bias"],
        }
        for name in params:
            assert rel_error(analytic[name], numeric[name]) < 1e-4
        numeric_x = finite_diff_grad(
            lambda x: float(np.sum(bilstm_batch_forward(x, fwd, bwd, mode, lengths)[0] * probe)),
            inputs, step=1e-5,
        )
        assert rel_error(d_inputs, numeric_x) < 1e-4
        assert np.all(d_inputs[np.arange(L) >= lengths[:, None]] == 0.0)

    def test_forward_finite_for_large_inputs(self):
        fwd = random_cell(3, 4, 20)
        bwd = random_cell(3, 4, 21)
        seq = np.full((1, 8, 3), 1e3)
        out, _ = bilstm_batch_forward(seq, fwd, bwd)
        assert np.all(np.isfinite(out))


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
