"""Dense float tensors and the reverse-mode gradient tape.

Tensors are immutable values once produced by an operation; parameters
(leaves) may have their ``data`` buffer updated between training steps.
A ``GradTape`` records operations while active (as a context manager) and
``backward`` replays it once, in reverse, accumulating gradients into the
``grad`` buffer of every leaf that requires them.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

_state = threading.local()


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A forward result or a gradient contains NaN/Inf.

    Carries the name and tape id of the offending operation when raised
    during backward.
    """

    def __init__(self, message: str, op: str = "", op_id: Optional[int] = None):
        super().__init__(message)
        self.op = op
        self.op_id = op_id


class TapeError(RuntimeError):
    """The gradient tape was used outside its contract."""


def _resolve_dtype(dtype) -> np.dtype:
    dt = np.dtype(np.float32 if dtype is None else dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    return dt


class Tensor:
    """A dense N-dimensional float array, the universal numeric value.

    ``data`` is a C-contiguous numpy buffer; ``grad`` (same shape) is filled
    by ``backward`` for leaves with ``requires_grad``.
    """

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data
        else:
            arr = np.asarray(data, dtype=_resolve_dtype(dtype))
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name})"


# A backward rule receives only the output gradient and returns one gradient
# (or None) per input, in input order. ``backward`` keeps the gradients of the
# inputs that require one and drops the rest; an op reads ``requires_grad``
# itself only to skip work. Input dtypes are checked once, by ``ops._make``.
BackwardFn = Callable[[np.ndarray], tuple]


class TapeNode:
    __slots__ = ("op", "op_id", "inputs", "output", "backward_fn")

    def __init__(self, op: str, op_id: int, inputs: tuple, output: Tensor, backward_fn: BackwardFn):
        self.op = op
        self.op_id = op_id
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class GradTape:
    """Ordered record of operations for one forward pass.

    Use as a context manager; operations executed inside record themselves.
    A tape supports exactly one ``backward`` call and is then consumed:
    build a fresh tape for the next step.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.consumed = False

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor, backward_fn: BackwardFn) -> None:
        self.nodes.append(TapeNode(op, len(self.nodes), tuple(inputs), output, backward_fn))

    def __enter__(self) -> "GradTape":
        stack = getattr(_state, "tape_stack", None)
        if stack is None:
            stack = _state.tape_stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.tape_stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Optional[GradTape]:
    stack = getattr(_state, "tape_stack", None)
    return stack[-1] if stack else None


def backward(tape: GradTape, loss: Tensor) -> None:
    """Replay ``tape`` in reverse from scalar ``loss``, accumulating leaf gradients.

    Gradients sum into ``leaf.grad`` (the caller zeroes them between steps).
    Raises ``TapeError`` if the loss is not a scalar recorded on this tape or
    the tape was already consumed, and ``NonFiniteError`` (with the operation
    id) if any produced gradient is non-finite.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward call")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if not any(node.output is loss for node in tape.nodes):
        raise TapeError("loss is not an output recorded on this tape")

    tape.consumed = True
    # tensors hash by identity, so each one keys its own gradient
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}

    # pop each node as it is replayed, freeing its output and saved arrays
    while tape.nodes:
        node = tape.nodes.pop()
        grad_out = grads.pop(node.output, None)
        if grad_out is None:
            continue
        for tensor, gin in zip(node.inputs, node.backward_fn(grad_out)):
            if gin is None or not tensor.requires_grad:
                continue
            if not np.isfinite(gin).all():
                raise NonFiniteError(
                    f"non-finite gradient produced by op '{node.op}' (id {node.op_id})",
                    op=node.op,
                    op_id=node.op_id,
                )
            if tensor in grads:
                grads[tensor] += gin
            else:
                grads[tensor] = gin

    for leaf, grad in grads.items():
        if grad.shape != leaf.data.shape:
            raise TapeError(
                f"gradient shape {grad.shape} does not match leaf shape {leaf.data.shape}"
            )
        leaf.grad = grad if leaf.grad is None else leaf.grad + grad


def zero_grads(params: dict) -> None:
    """Reset the gradients of a dict of parameter tensors."""
    for t in params.values():
        t.grad = None
