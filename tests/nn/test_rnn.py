"""Unit tests for LSTM layers."""

import numpy as np
import pytest

from repro.nn.rnn import BiLSTM, LSTM, LSTMCell
from repro.nn.tensor import Tensor, concatenate
from repro.rl.encoding import ENCODING_WIDTH


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        h, c = cell.initial_state(3)
        h2, c2 = cell.forward_step(Tensor(rng.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 8)
        assert c2.shape == (3, 8)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        np.testing.assert_allclose(cell.bias.data[8:16], np.ones(8))

    def test_state_changes_with_input(self, rng):
        cell = LSTMCell(2, 4, rng=rng)
        state = cell.initial_state(1)
        h1, _ = cell.forward_step(Tensor(np.ones((1, 2))), state)
        h2, _ = cell.forward_step(Tensor(-np.ones((1, 2))), state)
        assert not np.allclose(h1.data, h2.data)

    def test_gradients_flow_through_steps(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        state = cell.initial_state(2)
        for _ in range(3):
            state = cell.forward_step(x, state)
        (state[0] ** 2).sum().backward()
        assert x.grad is not None
        assert cell.weight_ih.grad is not None


class TestLSTM:
    def test_sequence_output_shape(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        out = lstm(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_reverse_processes_backwards(self, rng):
        lstm = LSTM(2, 3, rng=rng)
        x = rng.normal(size=(1, 4, 2))
        fwd = lstm(Tensor(x))
        rev = lstm(Tensor(x), reverse=True)
        # Reversed run on reversed input equals forward outputs reversed.
        rev_of_flipped = lstm(Tensor(x[:, ::-1].copy()))
        np.testing.assert_allclose(rev.data, rev_of_flipped.data[:, ::-1], atol=1e-12)
        assert not np.allclose(fwd.data, rev.data)

    def test_first_reverse_step_sees_only_last_input(self, rng):
        lstm = LSTM(2, 3, rng=rng)
        x = rng.normal(size=(1, 4, 2))
        rev = lstm(Tensor(x), reverse=True)
        # Output at the last position only depends on the last input.
        x2 = x.copy()
        x2[:, :3] = 0.0
        rev2 = lstm(Tensor(x2), reverse=True)
        np.testing.assert_allclose(rev.data[:, 3], rev2.data[:, 3], atol=1e-12)


class TestBiLSTM:
    def test_output_concatenates_directions(self, rng):
        bilstm = BiLSTM(4, 5, rng=rng)
        out = bilstm(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 10)
        assert bilstm.output_size == 10

    def test_each_position_sees_whole_sequence(self, rng):
        bilstm = BiLSTM(2, 4, rng=rng)
        x = rng.normal(size=(1, 5, 2))
        base = bilstm(Tensor(x)).data
        # Perturbing the last element must change position-0 output
        # (through the backward LSTM).
        x2 = x.copy()
        x2[0, -1] += 10.0
        changed = bilstm(Tensor(x2)).data
        assert not np.allclose(base[0, 0], changed[0, 0])

    def test_gradients_reach_both_directions(self, rng):
        bilstm = BiLSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
        (bilstm(x) ** 2).sum().backward()
        assert bilstm.forward_lstm.cell.weight_ih.grad is not None
        assert bilstm.backward_lstm.cell.weight_ih.grad is not None
        assert x.grad is not None


def _tape_bilstm(bilstm, x):
    """The stepped-tape reference: two LSTMs over the same cells."""
    return concatenate(
        [bilstm.forward_lstm(x), bilstm.backward_lstm(x, reverse=True)], axis=2
    )


def _grads(bilstm, run, x_data, weights):
    """Run ``run`` on a fresh input; return output, param grads, input grad."""
    bilstm.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    out = run(bilstm, x)
    (out * Tensor(weights)).sum().backward()
    return out.data, [p.grad for p in bilstm.parameters()], x.grad


class TestFusedBiLSTM:
    """The fused BiLSTM op against the stepped tape LSTMs (the oracle)."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [1, 2, 23])
    def test_forward_is_bit_identical(self, rng, n, t):
        bilstm = BiLSTM(ENCODING_WIDTH, 32, rng=rng)
        x = Tensor(rng.normal(size=(n, t, ENCODING_WIDTH)))
        assert np.array_equal(bilstm(x).data, _tape_bilstm(bilstm, x).data)

    def test_forward_is_bit_identical_when_gates_saturate(self, rng):
        # Inputs this large push gate pre-activations past the sigmoid's
        # +-60 clip, the one branch small inputs never reach.
        bilstm = BiLSTM(ENCODING_WIDTH, 32, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, ENCODING_WIDTH)) * 200.0)
        out = bilstm(x)
        assert np.array_equal(out.data, _tape_bilstm(bilstm, x).data)
        gates = x.data @ bilstm.forward_lstm.cell.weight_ih.data.T
        assert np.abs(gates).max() > 60.0

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [1, 2, 23])
    def test_gradients_match_tape(self, rng, n, t):
        bilstm = BiLSTM(ENCODING_WIDTH, 32, rng=rng)
        x_data = rng.normal(size=(n, t, ENCODING_WIDTH))
        weights = rng.normal(size=(n, t, 64))
        out, grads, x_grad = _grads(bilstm, lambda b, x: b(x), x_data, weights)
        ref_out, ref_grads, ref_x_grad = _grads(bilstm, _tape_bilstm, x_data, weights)
        assert np.array_equal(out, ref_out)
        assert len(grads) == len(ref_grads) == 6
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        bilstm = BiLSTM(2, 3, rng=rng)
        x_data = rng.normal(size=(1, 3, 2))
        weights = rng.normal(size=(1, 3, 6))

        def loss() -> float:
            return float((bilstm(Tensor(x_data)).data * weights).sum())

        _, grads, x_grad = _grads(bilstm, lambda b, x: b(x), x_data, weights)
        eps = 1e-6
        for array, grad in [(p.data, g) for p, g in zip(bilstm.parameters(), grads)] + [
            (x_data, x_grad)
        ]:
            numeric = np.zeros_like(array)
            for index in np.ndindex(array.shape):
                saved = array[index]
                array[index] = saved + eps
                plus = loss()
                array[index] = saved - eps
                minus = loss()
                array[index] = saved
                numeric[index] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    def test_one_call_adds_one_tape_node(self, rng):
        bilstm = BiLSTM(4, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = bilstm(x)
        assert out._backward is not None
        # Every parent is a leaf: the input or one of the six parameters.
        assert all(parent._backward is None for parent in out._parents)
        assert {id(p) for p in out._parents} == {id(x)} | {
            id(p) for p in bilstm.parameters()
        }

    def test_input_without_grad_gets_none(self, rng):
        bilstm = BiLSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 3)))
        bilstm(x).sum().backward()
        assert x.grad is None
        assert all(p.grad is not None for p in bilstm.parameters())

    def test_parameters_keep_their_names(self, rng):
        names = [name for name, _ in BiLSTM(3, 4, rng=rng).named_parameters()]
        assert names == [
            f"{direction}.cell.{param}"
            for direction in ("forward_lstm", "backward_lstm")
            for param in ("weight_ih", "weight_hh", "bias")
        ]
