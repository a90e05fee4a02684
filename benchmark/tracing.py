"""Span tracing for the benchmark's traced run.

Wrappers installed around the program's public functions record one span
per call (name, start, end, parent) and a few counts computed from the
arguments. Spans stay in memory until the run ends; ``layer_metrics`` turns
them into per-round self times, and ``write_spans`` writes them out.
Nothing is patched outside ``Tracer.installed()``, so untraced rounds run
the program unmodified.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from seqseg import checkpoint, convlstm, data, imgio, metrics, network, noise, ops, tensor, train

OPS = ("conv2d", "batch_norm", "sigmoid", "tanh", "relu", "add", "hadamard",
       "expand_batch", "gather_batch", "concat_channels", "avg_pool",
       "bilinear_upsample", "softmax_ce_loss")
STAGES = ("gen_data", "train", "eval", "eval_corrupt")

# (module or class, attribute, span name): the attribute through which the
# program calls the function, so that replacing it times every call.
FUNCTIONS = (
    [(ops, op, f"ops.{op}") for op in OPS]
    + [
        (network, "encode_sequence", "convlstm.encode_sequence"),
        (convlstm, "cell_step", "convlstm.cell_step"),
        (network.SegNet, "extract", "network.extract"),
        (network.SegNet, "forward", "network.forward"),
        (network.SegNet, "predict", "network.predict"),
        (network.PyramidDecoder, "__call__", "network.decoder"),
        (train, "build_batch", "train.build_batch"),
        (train, "sample_sequence", "data.sample_sequence"),
        (metrics, "sample_sequence", "data.sample_sequence"),
        (train, "augment_sequence", "data.augment_sequence"),
        (train, "apply_noise", "noise.apply_noise"),
        (train, "stack_batch", "train.stack_batch"),
        (train, "adam_step", "train.adam_step"),
        (train, "backward", "tensor.backward"),
        (checkpoint, "save_model", "checkpoint.save_model"),
        (metrics, "corrupt_for_eval", "noise.corrupt_for_eval"),
        (metrics.ConfusionMatrix, "update", "metrics.confusion_update"),
        (data, "generate_dataset", "data.generate_dataset"),
        (noise, "write_pool", "noise.write_pool"),
        (imgio, "write_ppm", "imgio.write_ppm"),
        (imgio, "write_pgm", "imgio.write_pgm"),
        (data, "load_dataset", "data.load_dataset"),
    ]
)

# per-layer metric -> (span name, kind); kind "self" sums self time per round,
# "calls" counts calls per round
SPAN_METRICS = {}
for _op in OPS:
    SPAN_METRICS[f"ops.{_op}.fwd_s"] = (f"ops.{_op}", "self")
    SPAN_METRICS[f"ops.{_op}.bwd_s"] = (f"ops.{_op}.backward", "self")
    SPAN_METRICS[f"ops.{_op}.calls"] = (f"ops.{_op}", "calls")
SPAN_METRICS.update({
    "tensor.backward.self_s": ("tensor.backward", "self"),
    "convlstm.encode_sequence.s": ("convlstm.encode_sequence", "self"),
    "convlstm.cell_step.s": ("convlstm.cell_step", "self"),
    "convlstm.cell_step.calls": ("convlstm.cell_step", "calls"),
    "network.extract.s": ("network.extract", "self"),
    "network.decoder.s": ("network.decoder", "self"),
    "network.forward.s": ("network.forward", "self"),
    "network.predict.s": ("network.predict", "self"),
    "train.build_batch.s": ("train.build_batch", "self"),
    "data.sample_sequence.s": ("data.sample_sequence", "self"),
    "data.augment_sequence.s": ("data.augment_sequence", "self"),
    "noise.apply_noise.s": ("noise.apply_noise", "self"),
    "train.stack_batch.s": ("train.stack_batch", "self"),
    "train.adam_step.s": ("train.adam_step", "self"),
    "checkpoint.save_model.s": ("checkpoint.save_model", "self"),
    "noise.corrupt_for_eval.s": ("noise.corrupt_for_eval", "self"),
    "metrics.confusion_update.s": ("metrics.confusion_update", "self"),
    "data.generate_dataset.s": ("data.generate_dataset", "self"),
    "noise.write_pool.s": ("noise.write_pool", "self"),
    "imgio.write_ppm.s": ("imgio.write_ppm", "self"),
    "imgio.write_pgm.s": ("imgio.write_pgm", "self"),
    "data.load_dataset.s": ("data.load_dataset", "self"),
})
for _stage in STAGES:
    SPAN_METRICS[f"stage.{_stage}.self_s"] = (f"stage.{_stage}", "self")

# per-layer metric -> counter name; summed per round ("sum") or the median
# over training steps ("step"). The replaced frames are counted by the
# benchmark's noise probe (``Runner.noise_probe``), not by a wrapper here.
COUNT_METRICS = {
    "ops.conv2d.flops": ("conv2d.flops", "sum"),
    "ops.conv2d.col_bytes": ("conv2d.col_bytes", "sum"),
    "noise.apply_noise.replaced_frames": ("replaced_frames", "sum"),
    "tensor.tape.nodes": ("tape.nodes", "step"),
    "tensor.tape.peak_bytes": ("tape.peak_bytes", "step"),
}

# traced against untraced time: the median traced and untraced round of a traced run
OVERHEAD_METRICS = ("trace.untraced_round_s", "trace.traced_round_s", "trace.overhead_ratio")
# gen-data clips per second over the untraced rounds of a traced run
GEN_RATE = "stage.gen_data.clips_per_s"

UNITS = {"calls": "count", "flops": "flop", "col_bytes": "B", "peak_bytes": "B",
         "nodes": "count", "replaced_frames": "count", "overhead_ratio": "ratio",
         "clips_per_s": "clips/s"}


def metric_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def _conv_out(size: int, k: int, stride: int, padding: int, dilation: int) -> int:
    return (size + 2 * padding - dilation * (k - 1) - 1) // stride + 1


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index or -1]
        self.sums: dict = defaultdict(float)
        self.steps: dict = defaultdict(list)
        self.active = False
        self._stack: list = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, name: str, fn, before=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- counts taken from arguments -----------------------------------------

    def _count_conv(self, args, kwargs) -> None:
        x, w = args[0].shape, args[1].shape
        stride = kwargs.get("stride", 1)
        padding = kwargs.get("padding", 0)
        dilation = kwargs.get("dilation", 1)
        out_h = _conv_out(x[2], w[2], stride, padding, dilation)
        out_w = _conv_out(x[3], w[3], stride, padding, dilation)
        col = x[0] * w[1] * w[2] * w[3] * out_h * out_w
        self.sums["conv2d.flops"] += 2 * col * w[0]
        self.sums["conv2d.col_bytes"] += col * args[0].data.itemsize

    def _count_tape(self, args, kwargs) -> None:
        tape = args[0]
        arrays = {}
        for node in tape.nodes:
            for t in node.inputs + (node.output,):
                arrays[id(t.data)] = t.data.nbytes
        self.steps["tape.nodes"].append(len(tape.nodes))
        self.steps["tape.peak_bytes"].append(sum(arrays.values()))

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        before = {"ops.conv2d": self._count_conv, "tensor.backward": self._count_tape}
        for owner, attr, name in FUNCTIONS:
            patch(owner, attr, self.wrap(name, owner.__dict__[attr], before.get(name)))
        record = tensor.GradTape.record

        def traced_record(tape, op, inputs, output, backward_fn):
            record(tape, op, inputs, output, self.wrap(f"ops.{op}.backward", backward_fn))

        patch(tensor.GradTape, "record", traced_record)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
            calls[name] += 1
        return totals, calls

    def layer_metrics(self) -> dict:
        """Every per-layer metric but the overhead ones, per traced round
        (tape figures per training step)."""
        totals, calls = self.self_times()
        rounds = max(1, calls["stage.gen_data"])
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = (totals[span] if kind == "self" else calls[span]) / rounds
        for metric, (counter, kind) in COUNT_METRICS.items():
            if kind == "sum":
                out[metric] = self.sums[counter] / rounds
            else:
                values = self.steps[counter]
                out[metric] = float(np.median(values)) if values else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
