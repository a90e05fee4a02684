"""Peephole convolutional LSTM cell and sequence encoder.

One step computes, with * a same-size 3x3 convolution and (.) the
elementwise product:

    i = sigmoid(W_i * z + V_i * h_prev + U_i (.) c_prev + b_i)
    f = sigmoid(W_f * z + V_f * h_prev + U_f (.) c_prev + b_f)
    c = f (.) c_prev + i (.) tanh(W_c * z + V_c * h_prev + b_c)
    o = sigmoid(W_o * z + V_o * h_prev + U_o (.) c + b_o)
    h = o (.) tanh(c)

The candidate path has no peephole; the output gate peeks at the current
cell state. Peephole maps U and biases b are full per-element tensors of
the feature-map shape, which ties a cell to one spatial resolution.

A step runs two convolutions, not eight (Shi et al. 2015): the four W_g
and the four V_g kernels are stacked along the output axis once per
sequence, W * z + V * h_prev gives all gate pre-activations in one
[N, 4*hidden, H, W] map, and each gate takes its channel slice before its
peephole and bias terms are added. The parameters stay per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor

GATES = ("i", "f", "c", "o")
PEEPHOLE_GATES = ("i", "f", "o")


@dataclass
class ConvLSTMState:
    h: Tensor
    c: Tensor


class ConvLSTMCell:
    """Gate parameters for one fixed feature-map resolution.

    W_* convolve the input feature map, V_* convolve the previous latent
    state, U_* are peephole tensors and b_* biases, both of shape
    [hidden, height, width].
    """

    def __init__(self, in_channels: int, hidden_channels: int, height: int, width: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        self.height = height
        self.width = width
        dt = np.dtype(dtype)

        def kernel(cin: int) -> Tensor:
            k = 1.0 / np.sqrt(cin * 9)
            return Tensor(rng.uniform(-k, k, size=(hidden_channels, cin, 3, 3)).astype(dt),
                          requires_grad=True)

        self.params: dict[str, Tensor] = {}
        for g in GATES:
            self.params[f"W_{g}"] = kernel(in_channels)
            self.params[f"V_{g}"] = kernel(hidden_channels)
        for g in PEEPHOLE_GATES:
            self.params[f"U_{g}"] = Tensor(
                np.zeros((hidden_channels, height, width), dtype=dt), requires_grad=True)
        for g in GATES:
            init = np.ones if g == "f" else np.zeros
            self.params[f"b_{g}"] = Tensor(
                init((hidden_channels, height, width), dtype=dt), requires_grad=True)

    @property
    def dtype(self) -> np.dtype:
        return self.params["W_i"].dtype

    def zero_state(self, batch: int) -> ConvLSTMState:
        shape = (batch, self.hidden_channels, self.height, self.width)
        dt = self.dtype
        return ConvLSTMState(h=Tensor(np.zeros(shape, dtype=dt)),
                             c=Tensor(np.zeros(shape, dtype=dt)))

    def _check_input(self, z: Tensor) -> None:
        if z.ndim != 4 or z.shape[1] != self.in_channels or z.shape[2:] != (self.height, self.width):
            raise ShapeError(
                f"cell built for [*,{self.in_channels},{self.height},{self.width}] "
                f"feature maps, got {z.shape}")


def stack_kernels(cell: ConvLSTMCell) -> tuple[Tensor, Tensor]:
    """The W_g and the V_g kernels stacked in GATES order along the output
    axis; taped, so gradients flow back to the per-gate parameters."""
    p = cell.params
    return (ops.concat_kernels([p[f"W_{g}"] for g in GATES]),
            ops.concat_kernels([p[f"V_{g}"] for g in GATES]))


def cell_step(cell: ConvLSTMCell, z: Tensor, state: ConvLSTMState,
              kernels: tuple[Tensor, Tensor]) -> ConvLSTMState:
    """Advance the cell one step; differentiable end to end.

    ``kernels`` is ``stack_kernels(cell)``, built once per sequence.
    """
    cell._check_input(z)
    n = z.shape[0]
    if state.h.shape != (n, cell.hidden_channels, cell.height, cell.width):
        raise ShapeError(f"state shape {state.h.shape} does not match cell/batch")
    p = cell.params
    w, v = kernels
    pre_all = ops.add(ops.conv2d(z, w, padding=1), ops.conv2d(state.h, v, padding=1))
    hid = cell.hidden_channels

    def gate_pre(g: str, c_ref: Tensor | None) -> Tensor:
        k = GATES.index(g)
        pre = ops.slice_channels(pre_all, k * hid, (k + 1) * hid)
        if c_ref is not None:
            pre = ops.add(pre, ops.hadamard(ops.expand_batch(p[f"U_{g}"], n), c_ref))
        return ops.add(pre, ops.expand_batch(p[f"b_{g}"], n))

    i = ops.sigmoid(gate_pre("i", state.c))
    f = ops.sigmoid(gate_pre("f", state.c))
    cand = ops.tanh(gate_pre("c", None))
    c = ops.add(ops.hadamard(f, state.c), ops.hadamard(i, cand))
    o = ops.sigmoid(gate_pre("o", c))
    h = ops.hadamard(o, ops.tanh(c))
    return ConvLSTMState(h=h, c=c)


def encode_sequence(cell: ConvLSTMCell, zs: Sequence[Tensor]) -> Tensor:
    """Run the cell over a feature-map sequence from the zero state.

    Returns the last latent state, the temporal summary consumed by the
    decoder.
    """
    if len(zs) == 0:
        raise ShapeError("encode_sequence: empty sequence")
    first_shape = zs[0].shape
    for z in zs[1:]:
        if z.shape != first_shape:
            raise ShapeError("encode_sequence: all feature maps must share one shape")
    state = cell.zero_state(first_shape[0])
    kernels = stack_kernels(cell)
    for z in zs:
        state = cell_step(cell, z, state, kernels)
    return state.h
