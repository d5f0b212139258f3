"""Recurrent layers: LSTM cell, unidirectional and bidirectional LSTMs.

The paper's partition/compression controllers (Fig. 6) are bidirectional
LSTMs over per-layer hyperparameter encodings. :class:`LSTMCell` and
:class:`LSTM` are built step by step from the autodiff
:class:`~repro.nn.tensor.Tensor`. :class:`BiLSTM` runs both directions as
one fused autograd op instead: its forward loops over time in numpy with
the same operations in the same order as the stepped cell, and its
backward is hand-written backpropagation through time (BPTT) that
accumulates into the cells' parameter tensors. At controller sizes the
stepped tape spends its time on per-node interpreter overhead, not FLOPs;
the fused op puts one node on the tape per call. The stepped LSTMs remain
the reference the fused op is tested against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .init import xavier_uniform
from .layers import Module
from .tensor import Tensor, stack, zeros


class LSTMCell(Module):
    """Single-step LSTM cell with fused input/forget/cell/output gates."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_size = 4 * hidden_size
        self.weight_ih = Tensor(
            xavier_uniform((gate_size, input_size), input_size, gate_size, rng),
            requires_grad=True,
            name="lstm.weight_ih",
        )
        self.weight_hh = Tensor(
            xavier_uniform((gate_size, hidden_size), hidden_size, gate_size, rng),
            requires_grad=True,
            name="lstm.weight_hh",
        )
        bias = np.zeros(gate_size)
        # Standard trick: initialize the forget-gate bias to 1.
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True, name="lstm.bias")

    def forward_step(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """One time step: ``x`` is (N, input_size); returns new (h, c)."""
        h, c = state
        gates = x.matmul(self.weight_ih.T) + h.matmul(self.weight_hh.T) + self.bias
        return self.apply_gates(gates, c)

    def step_projected(
        self, x_projected: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """One step where ``x @ W_ih^T`` was precomputed for the whole
        sequence (``x_projected`` is that (N, 4*hidden) slice). Keeps the
        same left-to-right addition order as :meth:`forward_step`, so the
        hoisted-projection sequence path is numerically identical to
        stepping."""
        h, c = state
        gates = x_projected + h.matmul(self.weight_hh.T) + self.bias
        return self.apply_gates(gates, c)

    def apply_gates(self, gates: Tensor, c: Tensor) -> Tuple[Tensor, Tensor]:
        """Gate nonlinearities shared by :meth:`forward_step` and
        :meth:`step_projected`."""
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f_gate * c + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        return (
            zeros((batch_size, self.hidden_size)),
            zeros((batch_size, self.hidden_size)),
        )


class LSTM(Module):
    """Unidirectional LSTM over a (N, T, input_size) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Return hidden states for every step, shape (N, T, hidden_size).

        The input projection ``x @ W_ih^T`` has no recurrent dependency, so
        it is hoisted out of the time loop and computed for all N sequences
        and T steps in one batched matmul; only the ``h @ W_hh^T`` recurrence
        remains stepwise.
        """
        n, t, _ = x.shape
        projected = x.matmul(self.cell.weight_ih.T)  # (N, T, 4*hidden)
        state = self.cell.initial_state(n)
        outputs: List[Tensor] = []
        steps = range(t - 1, -1, -1) if reverse else range(t)
        for step in steps:
            state = self.cell.step_projected(projected[:, step, :], state)
            outputs.append(state[0])
        if reverse:
            outputs.reverse()
        return stack(outputs, axis=1)


class _BiScan:
    """Both LSTM directions run in numpy, kept for the hand-written BPTT.

    Arrays are step-major, (T, 2, N, ·): the two directions are stacked on
    axis 1, and direction 1 runs on the time-reversed sequence, so both
    advance through the same step index and every element-wise op serves
    both at once. The recurrence repeats :meth:`LSTMCell.step_projected`
    operation for operation (``proj + h @ W_hh^T + b``, the clipped
    sigmoid, ``f*c + i*g``, ``o*tanh(c)``), with each direction's
    ``h @ W_hh^T`` its own 2-D matmul, so the hidden states are
    bit-identical to the stepped tape. Element-wise ops give the same bits
    on a whole gate block as on its slices, so the sigmoid runs once over
    all four gates and the cell gate is overwritten by its tanh.
    """

    def __init__(self, cells: Tuple[LSTMCell, LSTMCell], x: np.ndarray) -> None:
        n = x.shape[0]
        hs = cells[0].hidden_size
        self.cells = cells
        self.hidden_size = hs
        #: Per-direction input in step order, (T, N, D), for dL/dW_ih.
        self.inputs = (x.transpose(1, 0, 2), x[:, ::-1].transpose(1, 0, 2))
        forward_proj, backward_proj = (x @ cell.weight_ih.data.T for cell in cells)
        projected = np.stack(
            [forward_proj.transpose(1, 0, 2), backward_proj[:, ::-1].transpose(1, 0, 2)],
            axis=1,
        )
        w_hh_t = [cell.weight_hh.data.T for cell in cells]
        bias = np.stack([cell.bias.data for cell in cells])[:, None, :]
        recurrent = np.empty((2, n, 4 * hs))
        h = np.zeros((2, n, hs))
        c = np.zeros((2, n, hs))
        acts, cell_states, tanh_cells, hidden = [], [], [], []
        for proj in projected:
            for d in (0, 1):
                np.matmul(h[d], w_hh_t[d], out=recurrent[d])
            gates = proj + recurrent
            gates += bias
            # 1 / (1 + exp(-clip(gates, -60, 60))), as Tensor.sigmoid.
            act = np.maximum(gates, -60.0)
            np.minimum(act, 60.0, out=act)
            act = np.exp(-act)
            act += 1.0
            np.divide(1.0, act, out=act)
            act[..., 2 * hs : 3 * hs] = np.tanh(gates[..., 2 * hs : 3 * hs])
            c = act[..., hs : 2 * hs] * c + act[..., :hs] * act[..., 2 * hs : 3 * hs]
            tanh_c = np.tanh(c)
            h = act[..., 3 * hs :] * tanh_c
            acts.append(act)
            cell_states.append(c)
            tanh_cells.append(tanh_c)
            hidden.append(h)
        #: Gate activations [i, f, g, o], cell states, their tanh and the
        #: hidden states, each (T, 2, N, ·).
        self.acts = np.stack(acts)
        self.cell_states = np.stack(cell_states)
        self.tanh_cells = np.stack(tanh_cells)
        self.hidden = np.stack(hidden)

    def output(self) -> np.ndarray:
        """(N, T, 2*hidden): forward states, then backward in time order."""
        return np.concatenate(
            [self.hidden[:, 0].transpose(1, 0, 2), self.hidden[::-1, 1].transpose(1, 0, 2)],
            axis=2,
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """BPTT from dL/d(output) (N, T, 2*hidden).

        Accumulates both cells' parameter gradients and returns dL/d(gates)
        (T, 2, N, 4*hidden) in step order.
        """
        hs = self.hidden_size
        grad_hidden = np.stack(
            [grad[..., :hs].transpose(1, 0, 2), grad[:, ::-1, hs:].transpose(1, 0, 2)],
            axis=1,
        )
        acts = self.acts
        i_gate = acts[..., :hs]
        f_gate = acts[..., hs : 2 * hs]
        g_gate = acts[..., 2 * hs : 3 * hs]
        o_gate = acts[..., 3 * hs :]
        prev_cells = np.zeros_like(self.cell_states)
        prev_cells[1:] = self.cell_states[:-1]
        # Local derivatives for every step at once: the i, f, g gate
        # pre-activations scale with dL/dc, the o gate with dL/dh.
        local = np.empty_like(acts)
        local[..., :hs] = g_gate * i_gate * (1.0 - i_gate)
        local[..., hs : 2 * hs] = prev_cells * f_gate * (1.0 - f_gate)
        local[..., 2 * hs : 3 * hs] = i_gate * (1.0 - g_gate**2)
        local[..., 3 * hs :] = self.tanh_cells * o_gate * (1.0 - o_gate)
        dc_dh = o_gate * (1.0 - self.tanh_cells**2)
        w_hh = [cell.weight_hh.data for cell in self.cells]
        grad_gates = np.empty_like(acts)
        dh_carry = np.zeros_like(grad_hidden[0])
        dc_carry = np.zeros_like(dh_carry)
        for step in range(len(acts) - 1, -1, -1):
            dh = grad_hidden[step] + dh_carry
            dc = dh * dc_dh[step]
            dc += dc_carry
            np.multiply(
                np.concatenate((dc, dc, dc, dh), axis=-1), local[step], out=grad_gates[step]
            )
            for d in (0, 1):
                np.matmul(grad_gates[step, d], w_hh[d], out=dh_carry[d])
            dc_carry = dc * f_gate[step]
        prev_hidden = np.zeros_like(self.hidden)
        prev_hidden[1:] = self.hidden[:-1]
        for d, cell in enumerate(self.cells):
            flat = grad_gates[:, d].reshape(-1, 4 * hs)
            cell.weight_ih._accumulate(flat.T @ self.inputs[d].reshape(len(flat), -1))
            cell.weight_hh._accumulate(flat.T @ prev_hidden[:, d].reshape(-1, hs))
            cell.bias._accumulate(flat.sum(axis=0))
        return grad_gates


def bilstm(x: Tensor, forward_cell: LSTMCell, backward_cell: LSTMCell) -> Tensor:
    """Fused bidirectional LSTM: (N, T, D) -> (N, T, 2*hidden), one tape node.

    Equals ``concatenate([LSTM(x), LSTM(x, reverse=True)], axis=2)`` over
    the same cells bit for bit; the backward is hand-written BPTT that
    routes gradients to all six cell parameters and, when it requires
    grad, to ``x``.
    """
    cells = (forward_cell, backward_cell)
    scan = _BiScan(cells, x.data)

    def backward(grad: np.ndarray) -> None:
        grad_gates = scan.backward(grad)
        if x.requires_grad:
            forward_dx = grad_gates[:, 0] @ forward_cell.weight_ih.data
            backward_dx = grad_gates[::-1, 1] @ backward_cell.weight_ih.data
            x._accumulate((forward_dx + backward_dx).transpose(1, 0, 2))

    parents = (x,) + tuple(
        p for cell in cells for p in (cell.weight_ih, cell.weight_hh, cell.bias)
    )
    return Tensor._make(scan.output(), parents, backward)


class BiLSTM(Module):
    """Bidirectional LSTM: concatenated forward/backward hidden states.

    This is the controller backbone from Fig. 6 of the paper: each DNN layer
    ``x_i`` is fed to a forward LSTM and a backward LSTM, and the per-step
    hidden states ``H_i = [h_fwd_i ; h_bwd_i]`` feed the softmax heads.
    Both directions run as one fused op (:func:`bilstm`); the two
    :class:`LSTM` modules hold the parameters.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.forward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.backward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.output_size = 2 * hidden_size

    def forward(self, x: Tensor) -> Tensor:
        """(N, T, input_size) -> (N, T, 2*hidden_size)."""
        return bilstm(x, self.forward_lstm.cell, self.backward_lstm.cell)
