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

The four W_g and the four V_g kernels are stacked along the output axis
(Shi et al. 2015), so W * z and V * h_prev each give all four gates'
pre-activations in one [N, 4*hidden, H, W] map. W * z reads no state: it
is the input projection, computed once per frame (``project_input``),
before the recurrence. A step then runs one convolution, V * h_prev, and
none from the zero state, where h_prev and c_prev are zero and their terms
drop out; ``ops.lstm_gates`` adds the two projections and applies the gates
as one taped op. Its output packs h and c as [N, 2*hidden, H, W], h first,
and is the whole state carried between steps. The parameters stay per gate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor

GATES = ("i", "f", "c", "o")
PEEPHOLE_GATES = ("i", "f", "o")


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

    def _check_input(self, z: Tensor) -> None:
        if z.ndim != 4 or z.shape[1] != self.in_channels or z.shape[2:] != (self.height, self.width):
            raise ShapeError(
                f"cell built for [*,{self.in_channels},{self.height},{self.width}] "
                f"feature maps, got {z.shape}")


def _stacked(cell: ConvLSTMCell, kind: str) -> Tensor:
    """The W_g or the V_g kernels stacked in GATES order along the output
    axis; taped, so gradients flow back to the per-gate parameters."""
    return ops.concat_kernels([cell.params[f"{kind}_{g}"] for g in GATES])


def project_input(cell: ConvLSTMCell, z: Tensor) -> Tensor:
    """W * z for all four gates: [M, in, H, W] feature maps -> their
    [M, 4*hidden, H, W] input projection, one row per frame."""
    cell._check_input(z)
    return ops.conv2d(z, _stacked(cell, "W"), padding=1)


def _h(cell: ConvLSTMCell, hc: Tensor) -> Tensor:
    """The taped h half of a packed state."""
    return ops.slice_channels(hc, 0, cell.hidden_channels)


def cell_step(cell: ConvLSTMCell, wz: Tensor, hc: Optional[Tensor], v: Tensor) -> Tensor:
    """Advance the packed state ``hc`` one step from the projected input
    ``wz`` (``project_input`` rows of this step); differentiable end to end.

    ``hc`` None is the zero state; ``v`` is the stacked V kernel, built
    once per sequence.
    """
    p = cell.params
    peepholes = [p[f"U_{g}"] for g in PEEPHOLE_GATES]
    biases = [p[f"b_{g}"] for g in GATES]
    vh = None if hc is None else ops.conv2d(_h(cell, hc), v, padding=1)
    return ops.lstm_gates(wz, vh, hc, peepholes, biases)


def encode_projected(cell: ConvLSTMCell, wzs: Sequence[Tensor]) -> Tensor:
    """Run the cell over projected inputs from the zero state; returns the
    last latent state h, the temporal summary consumed by the decoder."""
    if len(wzs) == 0:
        raise ShapeError("encode_projected: empty sequence")
    v = _stacked(cell, "V")
    hc = None
    for wz in wzs:
        hc = cell_step(cell, wz, hc, v)
    return _h(cell, hc)


def encode_sequence(cell: ConvLSTMCell, zs: Sequence[Tensor]) -> Tensor:
    """``encode_projected`` of raw feature maps, each projected on its own."""
    return encode_projected(cell, [project_input(cell, z) for z in zs])
