"""Finite-difference gradient checking: the harness plus the standard
suites (single ops, ConvLSTM cell, full network) run by the CLI.

Checks run in 64-bit precision; 32-bit central differences are too noisy
for the tolerances used here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ops
from .convlstm import ConvLSTMCell, encode_sequence
from .network import ModelConfig, SegNet
from .tensor import GradTape, Tensor, backward, zero_grads


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    worst_index: int
    analytic: float
    numeric: float
    checked_elements: int


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error <= self.tolerance for e in self.entries)

    def lines(self) -> list:
        out = []
        for e in self.entries:
            status = "ok" if e.max_rel_error <= self.tolerance else "FAIL"
            out.append(f"  {status:4s} {e.name:40s} max_rel={e.max_rel_error:.3e} "
                       f"(analytic={e.analytic:+.6e} numeric={e.numeric:+.6e})")
        return out


def _rel_error(a: float, f: float) -> float:
    # Guarded relative error: near-zero true gradients are compared absolutely.
    return abs(a - f) / max(1.0, abs(a), abs(f))


def grad_check(loss_fn: Callable[[], Tensor], params: dict, *, epsilon: float = 1e-5,
               tolerance: float = 1e-6, rng: Optional[np.random.Generator] = None,
               max_elements: int = 50) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn()`` against central differences.

    Every parameter element is checked when a parameter has at most
    ``max_elements`` entries; larger parameters get a random subsample of
    ``max_elements`` (>= 50 by contract). The relative error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), reported per
    parameter; the harness never raises on a failed comparison.
    """
    rng = rng or np.random.default_rng(0)
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters; {name!r} is {p.data.dtype}")

    zero_grads(params)
    with GradTape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    zero_grads(params)

    report = GradCheckReport(tolerance=tolerance)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if size <= max_elements:
            indices = np.arange(size)
        else:
            indices = rng.choice(size, size=max_elements, replace=False)
        worst = ParamCheck(name, -1.0, -1, 0.0, 0.0, len(indices))
        a_flat = analytic[name].reshape(-1)
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + epsilon
            f_plus = loss_fn().item()
            flat[idx] = orig - epsilon
            f_minus = loss_fn().item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            err = _rel_error(a_flat[idx], numeric)
            if err > worst.max_rel_error:
                worst = ParamCheck(name, err, int(idx), float(a_flat[idx]),
                                   float(numeric), len(indices))
        report.entries.append(worst)
    return report


# ---------------------------------------------------------------------------
# Suites


def _probe(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _param(rng: np.random.Generator, shape, scale: float = 1.0) -> Tensor:
    return Tensor(scale * rng.standard_normal(shape), dtype=np.float64, requires_grad=True)


def _weighted_sum(t: Tensor, probe: Tensor) -> Tensor:
    return ops.sum_all(ops.hadamard(t, probe))


def check_ops(rng: Optional[np.random.Generator] = None, tolerance: float = 1e-6) -> dict:
    """Gradcheck each differentiable operator on a random instance."""
    rng = rng or np.random.default_rng(7)
    results = {}

    x = _param(rng, (2, 3, 6, 7))
    w = _param(rng, (4, 3, 3, 3), 0.5)
    b = _param(rng, (4,), 0.5)
    probe = _probe(rng, (2, 4, 6, 7))
    results["conv2d"] = grad_check(
        lambda: _weighted_sum(ops.conv2d(x, w, b, stride=1, padding=2, dilation=2), probe),
        {"x": x, "w": w, "b": b}, rng=rng, tolerance=tolerance)

    xs = _param(rng, (3, 2, 4, 4))
    gamma = _param(rng, (2,), 0.5)
    beta = _param(rng, (2,), 0.5)
    stats = ops.RunningStats(2, dtype=np.float64)
    probe = _probe(rng, (3, 2, 4, 4))
    results["batch_norm_train"] = grad_check(
        lambda: _weighted_sum(
            ops.batch_norm(xs, gamma, beta, stats, training=True), probe),
        {"x": xs, "gamma": gamma, "beta": beta}, rng=rng, tolerance=tolerance)
    frozen = ops.RunningStats(2, dtype=np.float64)
    frozen.mean = rng.standard_normal(2)
    frozen.var = 0.5 + rng.random(2)
    results["batch_norm_eval"] = grad_check(
        lambda: _weighted_sum(
            ops.batch_norm(xs, gamma, beta, frozen, training=False), probe),
        {"x": xs, "gamma": gamma, "beta": beta}, rng=rng, tolerance=tolerance)

    for kind, fn in (("sigmoid", ops.sigmoid), ("tanh", ops.tanh), ("relu", ops.relu)):
        xp = _param(rng, (3, 4))
        probe = _probe(rng, (3, 4))
        results[kind] = grad_check(
            lambda fn=fn, xp=xp, probe=probe: _weighted_sum(fn(xp), probe),
            {"x": xp}, rng=rng, tolerance=tolerance)
    a = _param(rng, (2, 5))
    b2 = _param(rng, (2, 5))
    probe = _probe(rng, (2, 5))
    results["add"] = grad_check(
        lambda: _weighted_sum(ops.add(a, b2), probe), {"a": a, "b": b2},
        rng=rng, tolerance=tolerance)
    results["hadamard"] = grad_check(
        lambda: _weighted_sum(ops.hadamard(a, b2), probe), {"a": a, "b": b2},
        rng=rng, tolerance=tolerance)

    xp = _param(rng, (2, 3, 6, 6))
    probe = _probe(rng, (2, 3, 2, 2))
    results["avg_pool"] = grad_check(
        lambda: _weighted_sum(ops.avg_pool(xp, 2, 2), probe), {"x": xp},
        rng=rng, tolerance=tolerance)
    probe = _probe(rng, (2, 3, 9, 11))
    results["bilinear_upsample"] = grad_check(
        lambda: _weighted_sum(ops.bilinear_upsample(xp, 9, 11), probe), {"x": xp},
        rng=rng, tolerance=tolerance)

    logits = _param(rng, (1, 3, 2, 2))
    labels = rng.integers(0, 3, size=(1, 2, 2))
    labels[0, 0, 0] = 255
    results["softmax_ce_loss"] = grad_check(
        lambda: ops.softmax_ce_loss(logits, labels, ignore_index=255),
        {"logits": logits}, rng=rng, tolerance=tolerance)

    u = _param(rng, (3, 2, 2))
    probe = _probe(rng, (4, 3, 2, 2))
    results["expand_batch"] = grad_check(
        lambda: _weighted_sum(ops.expand_batch(u, 4), probe), {"u": u},
        rng=rng, tolerance=tolerance)
    xg = _param(rng, (8, 2, 3, 3))
    probe = _probe(rng, (3, 2, 3, 3))
    results["gather_batch"] = grad_check(
        lambda: _weighted_sum(ops.gather_batch(xg, range(1, 8, 3)), probe), {"x": xg},
        rng=rng, tolerance=tolerance)
    c1 = _param(rng, (2, 3, 4, 4))
    c2 = _param(rng, (2, 2, 4, 4))
    probe = _probe(rng, (2, 5, 4, 4))
    results["concat_channels"] = grad_check(
        lambda: _weighted_sum(ops.concat_channels([c1, c2]), probe), {"a": c1, "b": c2},
        rng=rng, tolerance=tolerance)
    probe = _probe(rng, (2, 2, 4, 4))
    results["slice_channels"] = grad_check(
        lambda: _weighted_sum(ops.slice_channels(c1, 1, 3), probe), {"x": c1},
        rng=rng, tolerance=tolerance)
    k1 = _param(rng, (2, 3, 3, 3))
    k2 = _param(rng, (1, 3, 3, 3))
    probe = _probe(rng, (3, 3, 3, 3))
    results["concat_kernels"] = grad_check(
        lambda: _weighted_sum(ops.concat_kernels([k1, k2]), probe), {"a": k1, "b": k2},
        rng=rng, tolerance=tolerance)

    wz = _param(rng, (2, 12, 3, 3))
    hc = _param(rng, (2, 6, 3, 3), 0.5)
    peepholes = [_param(rng, (3, 3, 3), 0.5) for _ in range(3)]
    biases = [_param(rng, (3, 3, 3), 0.5) for _ in range(4)]
    probe = _probe(rng, (2, 6, 3, 3))
    gate_params = {"wz": wz, **{f"U_{g}": u for g, u in zip("ifo", peepholes)},
                   **{f"b_{g}": t for g, t in zip("ifco", biases)}}
    vh = _param(rng, (2, 12, 3, 3))
    results["lstm_gates"] = grad_check(
        lambda: _weighted_sum(ops.lstm_gates(wz, vh, hc, peepholes, biases), probe),
        dict(gate_params, vh=vh, hc=hc), rng=rng, tolerance=tolerance)
    results["lstm_gates_zero_state"] = grad_check(
        lambda: _weighted_sum(ops.lstm_gates(wz, None, None, peepholes, biases), probe),
        gate_params, rng=rng, tolerance=tolerance)

    return results


def randomize_cell(cell: ConvLSTMCell, rng: np.random.Generator, scale: float = 0.4) -> None:
    """Perturb peephole/bias tensors away from their structured init so the
    gradient check exercises every term."""
    for name, p in cell.params.items():
        if name.startswith(("U_", "b_")):
            p.data = p.data + scale * rng.standard_normal(p.data.shape)


def check_cell(rng: Optional[np.random.Generator] = None, tolerance: float = 1e-6) -> dict:
    """Gradcheck one ConvLSTM step and a T=4 sequence encoding."""
    rng = rng or np.random.default_rng(11)
    results = {}

    cell = ConvLSTMCell(2, 3, 4, 4, rng, dtype=np.float64)
    randomize_cell(cell, rng)
    z = _param(rng, (1, 2, 4, 4))
    probe = _probe(rng, (1, 3, 4, 4))
    params = dict(cell.params)
    params["z"] = z

    results["cell_step"] = grad_check(
        lambda: _weighted_sum(encode_sequence(cell, [z]), probe),
        params, rng=rng, tolerance=tolerance)

    zs = [_param(rng, (1, 2, 4, 4)) for _ in range(4)]
    seq_params = dict(cell.params)
    for i, zt in enumerate(zs):
        seq_params[f"z_{i}"] = zt
    results["encode_sequence_T4"] = grad_check(
        lambda: _weighted_sum(encode_sequence(cell, zs), probe),
        seq_params, rng=rng, tolerance=tolerance)
    return results


def toy_network(dtype=np.float64, seed: int = 3) -> SegNet:
    """A small full network suitable for exhaustive finite differencing."""
    cfg = ModelConfig(channel_plan=(4, 6, 8, 8), classes=3, ppm_bins=(1, 2, 3, 6),
                      crop_h=32, crop_w=32)
    return SegNet(cfg, seed=seed, dtype=dtype, mode="phase2")


def check_full(rng: Optional[np.random.Generator] = None, tolerance: float = 1e-6) -> dict:
    """Gradcheck every parameter group of the full network end to end."""
    rng = rng or np.random.default_rng(13)
    net = toy_network()
    randomize_cell(net.cell, rng, scale=0.3)
    seqs = rng.random((1, 2, 3, 32, 32))
    labels = rng.integers(0, 3, size=(1, 32, 32))

    def loss_fn():
        logits = net.forward(seqs, training=True)
        return ops.softmax_ce_loss(logits, labels)

    report = grad_check(loss_fn, net.params(), rng=rng, tolerance=tolerance)
    return {"full_network": report}


def run_scope(scope: str, tolerance: float = 1e-6, seed: int = 0) -> tuple:
    """Run one named suite; returns (reports dict, all_passed, seconds)."""
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    if scope == "op":
        reports = check_ops(rng, tolerance)
    elif scope == "cell":
        reports = check_cell(rng, tolerance)
    elif scope == "full":
        reports = check_full(rng, tolerance)
    else:
        raise ValueError(f"unknown gradcheck scope {scope!r}")
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in reports.values())
    return reports, ok, elapsed
