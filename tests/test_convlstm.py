"""ConvLSTM cell: analytic fixed points, gate saturation, the scalar-loop
encode oracle, range invariants, and gradient checks."""

from functools import partial

import numpy as np
import pytest

import oracles
from seqseg import gradcheck, ops
from seqseg.convlstm import (
    ConvLSTMCell,
    ConvLSTMState,
    cell_step,
    encode_sequence,
    stack_kernels,
)
from seqseg.tensor import GradTape, ShapeError, Tensor, backward


def make_cell(rng, cin=2, ch=3, h=4, w=4, dtype=np.float64):
    return ConvLSTMCell(cin, ch, h, w, rng, dtype=dtype)


def zero_params_cell(rng):
    cell = make_cell(rng)
    for p in cell.params.values():
        p.data = np.zeros_like(p.data)
    return cell


class TestCellStep:
    def test_zero_parameters_fixed_point(self, rng):
        cell = zero_params_cell(rng)
        z = Tensor(rng.standard_normal((2, 2, 4, 4)), dtype="float64")
        state = cell_step(cell, z, cell.zero_state(2), stack_kernels(cell))
        assert np.all(state.h.data == 0.0)
        assert np.all(state.c.data == 0.0)

    def test_saturated_gates_carry_memory(self, rng):
        cell = zero_params_cell(rng)
        cell.params["b_f"].data = np.full_like(cell.params["b_f"].data, 10.0)
        cell.params["b_i"].data = np.full_like(cell.params["b_i"].data, -10.0)
        c0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))
        state = ConvLSTMState(h=Tensor(np.zeros((1, 3, 4, 4)), dtype="float64"),
                              c=Tensor(c0, dtype="float64"))
        z = Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64")
        out = cell_step(cell, z, state, stack_kernels(cell))
        assert np.abs(out.c.data - c0).max() < 1e-4

    def test_memory_carry_over_full_sequence(self, rng):
        cell = zero_params_cell(rng)
        cell.params["b_f"].data = np.full_like(cell.params["b_f"].data, 20.0)
        cell.params["b_i"].data = np.full_like(cell.params["b_i"].data, -20.0)
        c0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))
        state = ConvLSTMState(h=Tensor(np.zeros((1, 3, 4, 4)), dtype="float64"),
                              c=Tensor(c0, dtype="float64"))
        kernels = stack_kernels(cell)
        for _ in range(4):
            state = cell_step(cell, Tensor(rng.standard_normal((1, 2, 4, 4)),
                                           dtype="float64"), state, kernels)
        assert np.abs(state.c.data - c0).max() < 1e-4

    def test_all_fifteen_parameter_groups_gradcheck(self, rng):
        cell = make_cell(rng)
        gradcheck.randomize_cell(cell, rng)
        assert len(cell.params) == 15
        z = Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64")
        probe = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype="float64")

        def loss_fn():
            state = cell_step(cell, z, cell.zero_state(1), stack_kernels(cell))
            return ops.sum_all(ops.hadamard(state.h, probe))

        report = gradcheck.grad_check(loss_fn, cell.params, rng=rng)
        assert report.passed, "\n".join(report.lines())

    def test_stacked_kernels_match_per_gate_convolutions(self, rng):
        cell = make_cell(rng, cin=3, ch=4, h=5, w=6)
        gradcheck.randomize_cell(cell, rng)
        zs = [Tensor(rng.standard_normal((2, 3, 5, 6)), dtype="float64",
                     requires_grad=True) for _ in range(4)]
        probe = Tensor(rng.standard_normal((2, 4, 5, 6)), dtype="float64")
        leaves = dict(cell.params, **{f"z_{t}": z for t, z in enumerate(zs)})

        def run(make_step):
            states = []
            with GradTape() as tape:
                step = make_step()
                state = cell.zero_state(2)
                for z in zs:
                    state = step(z, state)
                    states.append(state)
                loss = ops.sum_all(ops.hadamard(state.h, probe))
            backward(tape, loss)
            grads = {k: t.grad for k, t in leaves.items()}
            for t in leaves.values():
                t.grad = None
            return states, grads

        fused_states, fused_grads = run(
            lambda: partial(cell_step, cell, kernels=stack_kernels(cell)))
        ref_states, ref_grads = run(lambda: partial(oracles.convlstm_step_per_gate, cell))
        for got, want in zip(fused_states, ref_states):
            np.testing.assert_allclose(got.h.data, want.h.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.c.data, want.c.data, rtol=0, atol=1e-12)
        assert set(fused_grads) == set(ref_grads) and len(fused_grads) == 19
        for name, want in ref_grads.items():
            np.testing.assert_allclose(fused_grads[name], want, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_spatial_mismatch_rejected(self, rng):
        cell = make_cell(rng)
        z = Tensor(rng.standard_normal((1, 2, 5, 5)), dtype="float64")
        with pytest.raises(ShapeError):
            cell_step(cell, z, cell.zero_state(1), stack_kernels(cell))


class TestEncodeSequence:
    def test_single_step_equals_cell_step(self, rng):
        cell = make_cell(rng)
        z = Tensor(rng.standard_normal((2, 2, 4, 4)), dtype="float64")
        g = encode_sequence(cell, [z])
        direct = cell_step(cell, z, cell.zero_state(2), stack_kernels(cell))
        np.testing.assert_array_equal(g.data, direct.h.data)

    def test_zero_cell_gives_zero_summary(self, rng):
        cell = zero_params_cell(rng)
        zs = [Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64") for _ in range(4)]
        assert np.all(encode_sequence(cell, zs).data == 0.0)

    def test_empty_sequence_rejected(self, rng):
        with pytest.raises(ShapeError):
            encode_sequence(make_cell(rng), [])

    def test_matches_scalar_reimplementation(self, rng):
        cell = make_cell(rng)
        gradcheck.randomize_cell(cell, rng)
        zs_np = [rng.standard_normal((2, 4, 4)) for _ in range(4)]
        g = encode_sequence(cell, [Tensor(z[None], dtype="float64") for z in zs_np])
        params_np = {k: p.data for k, p in cell.params.items()}
        h_ref, _ = oracles.convlstm_encode_naive(params_np, zs_np)
        np.testing.assert_allclose(g.data[0], h_ref, rtol=1e-6, atol=1e-9)

    def test_state_range_invariants(self, rng):
        cell = make_cell(rng)
        gradcheck.randomize_cell(cell, rng, scale=1.5)
        state = cell.zero_state(1)
        kernels = stack_kernels(cell)
        for t in range(1, 6):
            z = Tensor(5.0 * rng.standard_normal((1, 2, 4, 4)), dtype="float64")
            state = cell_step(cell, z, state, kernels)
            assert np.abs(state.h.data).max() < 1.0
            assert np.abs(state.c.data).max() < t

    def test_gradient_reaches_first_frame(self, rng):
        cell = make_cell(rng)
        zs = [Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64",
                     requires_grad=True) for _ in range(4)]
        with GradTape() as tape:
            loss = ops.sum_all(encode_sequence(cell, zs))
        backward(tape, loss)
        assert np.abs(zs[0].grad).max() > 0.0

    def test_full_sequence_gradcheck(self, rng):
        reports = gradcheck.check_cell(rng)
        bad = {k: r.max_rel_error for k, r in reports.items() if not r.passed}
        assert not bad, bad
