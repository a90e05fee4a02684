"""ConvLSTM cell: analytic fixed points, gate saturation, the scalar-loop
encode oracle, range invariants, and gradient checks."""

import numpy as np
import pytest

import oracles
from seqseg import gradcheck, ops
from seqseg.convlstm import ConvLSTMCell, cell_step, encode_sequence, project_input
from seqseg.tensor import GradTape, ShapeError, Tensor, backward


def make_cell(rng, cin=2, ch=3, h=4, w=4, dtype=np.float64):
    return ConvLSTMCell(cin, ch, h, w, rng, dtype=dtype)


def zero_params_cell(rng):
    cell = make_cell(rng)
    for p in cell.params.values():
        p.data = np.zeros_like(p.data)
    return cell


def v_kernel(cell):
    return ops.concat_kernels([cell.params[f"V_{g}"] for g in "ifco"])


def packed_state(h, c):
    """The packed state holding the given h and c arrays, h first."""
    return Tensor(np.concatenate([h, c], axis=1))


def h_of(hc):
    return hc.data[:, :hc.shape[1] // 2]


def c_of(hc):
    return hc.data[:, hc.shape[1] // 2:]


def step(cell, z, hc):
    return cell_step(cell, project_input(cell, z), hc, v_kernel(cell))


class TestCellStep:
    def test_zero_parameters_fixed_point(self, rng):
        cell = zero_params_cell(rng)
        z = Tensor(rng.standard_normal((2, 2, 4, 4)), dtype="float64")
        hc = step(cell, z, None)
        assert np.all(h_of(hc) == 0.0)
        assert np.all(c_of(hc) == 0.0)

    def test_saturated_gates_carry_memory(self, rng):
        cell = zero_params_cell(rng)
        cell.params["b_f"].data = np.full_like(cell.params["b_f"].data, 10.0)
        cell.params["b_i"].data = np.full_like(cell.params["b_i"].data, -10.0)
        c0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))
        state = packed_state(np.zeros((1, 3, 4, 4)), c0)
        z = Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64")
        out = step(cell, z, state)
        assert np.abs(c_of(out) - c0).max() < 1e-4

    def test_memory_carry_over_full_sequence(self, rng):
        cell = zero_params_cell(rng)
        cell.params["b_f"].data = np.full_like(cell.params["b_f"].data, 20.0)
        cell.params["b_i"].data = np.full_like(cell.params["b_i"].data, -20.0)
        c0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))
        state = packed_state(np.zeros((1, 3, 4, 4)), c0)
        for _ in range(4):
            state = step(cell, Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64"),
                         state)
        assert np.abs(c_of(state) - c0).max() < 1e-4

    def test_all_fifteen_parameter_groups_gradcheck(self, rng):
        cell = make_cell(rng)
        gradcheck.randomize_cell(cell, rng)
        assert len(cell.params) == 15
        z = Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64")
        probe = Tensor(rng.standard_normal((1, 3, 4, 4)), dtype="float64")
        h0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))
        c0 = rng.uniform(-1, 1, size=(1, 3, 4, 4))

        def loss_fn():
            # from a non-zero state, so that every term of the step is live
            hc = step(cell, z, packed_state(h0, c0))
            return ops.sum_all(ops.hadamard(ops.slice_channels(hc, 0, 3), probe))

        report = gradcheck.grad_check(loss_fn, cell.params, rng=rng)
        assert report.passed, "\n".join(report.lines())

    def test_stacked_kernels_match_per_gate_convolutions(self, rng):
        # the projected-input step with the fused gate op against eight
        # per-gate convolutions and per-term taped ops, over T=4 from the zero
        # state: h and c bitwise, gradients by summation order only
        cell = make_cell(rng, cin=3, ch=4, h=5, w=6)
        gradcheck.randomize_cell(cell, rng)
        zs = [Tensor(rng.standard_normal((2, 3, 5, 6)), dtype="float64",
                     requires_grad=True) for _ in range(4)]
        probe = Tensor(rng.standard_normal((2, 4, 5, 6)), dtype="float64")
        leaves = dict(cell.params, **{f"z_{t}": z for t, z in enumerate(zs)})

        def run(first_state, advance):
            hs, cs = [], []
            with GradTape() as tape:
                state = first_state
                for z in zs:
                    state, h, c = advance(z, state)
                    hs.append(h.data.copy())
                    cs.append(np.array(c))
                loss = ops.sum_all(ops.hadamard(h, probe))
            backward(tape, loss)
            grads = {k: t.grad for k, t in leaves.items()}
            for t in leaves.values():
                t.grad = None
            return hs, cs, grads

        def fused(z, hc):
            hc = step(cell, z, hc)
            return hc, ops.slice_channels(hc, 0, 4), c_of(hc)

        def per_gate(z, state):
            state = oracles.convlstm_step_per_gate(cell, z, state)
            return state, state.h, state.c.data

        zero = np.zeros((2, 4, 5, 6))
        fused_h, fused_c, fused_grads = run(None, fused)
        ref_h, ref_c, ref_grads = run(
            oracles.PerGateState(h=Tensor(zero), c=Tensor(zero)), per_gate)
        for got, want in zip(fused_h + fused_c, ref_h + ref_c):
            np.testing.assert_array_equal(got, want)
        assert set(fused_grads) == set(ref_grads) and len(fused_grads) == 19
        for name, want in ref_grads.items():
            np.testing.assert_allclose(fused_grads[name], want, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_spatial_mismatch_rejected(self, rng):
        cell = make_cell(rng)
        z = Tensor(rng.standard_normal((1, 2, 5, 5)), dtype="float64")
        with pytest.raises(ShapeError):
            project_input(cell, z)

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (1, 12, 4, 5), (12, 4, 4)])
    def test_wrong_projected_input_rejected(self, rng, shape):
        # the projected input of a 3-channel cell is [N, 12, 4, 4]
        cell = make_cell(rng)
        with pytest.raises(ShapeError):
            cell_step(cell, Tensor(np.zeros(shape)), None, v_kernel(cell))

    @pytest.mark.parametrize("hc_shape", [(1, 6, 4, 4), (2, 3, 4, 4), (2, 6, 4, 5)])
    def test_wrong_state_rejected(self, rng, hc_shape):
        # another batch size, h without c, another resolution: the state of a
        # 3-channel cell on 2 sequences is h and c packed as [2, 6, 4, 4]
        cell = make_cell(rng)
        wz = Tensor(np.zeros((2, 12, 4, 4)))
        with pytest.raises(ShapeError):
            cell_step(cell, wz, Tensor(np.zeros(hc_shape)), v_kernel(cell))

    @pytest.mark.parametrize("vh_shape,hc_shape,match", [
        ((2, 12, 4, 4), None, "come together"),
        (None, (2, 6, 4, 4), "come together"),
        ((1, 12, 4, 4), (2, 6, 4, 4), r"V\*h_prev shape"),
    ], ids=["lone-vh", "lone-hc_prev", "vh-shape"])
    def test_gate_op_rejects_a_partial_or_misshapen_state(self, rng, vh_shape, hc_shape,
                                                           match):
        p = make_cell(rng).params
        vh, hc = (None if s is None else Tensor(np.zeros(s)) for s in (vh_shape, hc_shape))
        with pytest.raises(ShapeError, match=match):
            ops.lstm_gates(Tensor(np.zeros((2, 12, 4, 4))), vh, hc,
                           [p[f"U_{g}"] for g in "ifo"], [p[f"b_{g}"] for g in "ifco"])

    def test_zero_state_step_runs_no_state_convolution(self, rng):
        cell = make_cell(rng)
        wz = project_input(cell, Tensor(rng.standard_normal((1, 2, 4, 4)), dtype="float64"))
        with GradTape() as tape:
            hc = cell_step(cell, wz, None, v_kernel(cell))
            cell_step(cell, wz, hc, v_kernel(cell))
        ops_run = [node.op for node in tape.nodes]
        assert ops_run == ["concat_kernels", "lstm_gates", "concat_kernels", "slice_channels",
                           "conv2d", "lstm_gates"]


class TestEncodeSequence:
    def test_single_step_equals_cell_step(self, rng):
        cell = make_cell(rng)
        z = Tensor(rng.standard_normal((2, 2, 4, 4)), dtype="float64")
        g = encode_sequence(cell, [z])
        direct = step(cell, z, None)
        np.testing.assert_array_equal(g.data, h_of(direct))

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
        hc = None
        for t in range(1, 6):
            z = Tensor(5.0 * rng.standard_normal((1, 2, 4, 4)), dtype="float64")
            hc = step(cell, z, hc)
            assert np.abs(h_of(hc)).max() < 1.0
            assert np.abs(c_of(hc)).max() < t

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
