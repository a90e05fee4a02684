"""The names the benchmark in ``benchmark/`` patches or calls must exist in
the program, so that a refactor which renames one fails here rather than in
the benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from seqseg import network, ops, train
from seqseg.network import ModelConfig, SegNet
from seqseg.tensor import GradTape, Tensor

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARK_DIR))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARK_DIR))


def test_tracer_installs_and_restores_every_hook(tracing):
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.FUNCTIONS]
    with tracing.Tracer().installed():
        for (owner, attr, _), original in zip(tracing.FUNCTIONS, originals):
            assert owner.__dict__[attr] is not original
    for (owner, attr, _), original in zip(tracing.FUNCTIONS, originals):
        assert owner.__dict__[attr] is original


@pytest.mark.parametrize("owner,attr", [
    (ModelConfig, "from_dict"), (Tensor, "size"), (train, "apply_noise"),
    (train, "derived_seed"), (SegNet, "extract"), (network, "encode_sequence"),
])
def test_names_the_workloads_call_exist(owner, attr):
    assert attr in owner.__dict__


def _phase2_step() -> int:
    """One tiny phase-2 training step through ``train.backward``, the name the
    tracer patches; returns the tape length before backward."""
    net = SegNet(ModelConfig(channel_plan=(4, 6, 8, 8), classes=4, crop_h=28, crop_w=28),
                 seed=0, mode="phase2")
    rng = np.random.default_rng(0)
    seqs = rng.random((2, 4, 3, 28, 28), dtype=np.float32)
    labels = rng.integers(0, 4, size=(2, 28, 28))
    with GradTape() as tape:
        loss = ops.softmax_ce_loss(net.forward(seqs, training=True), labels)
    recorded = len(tape)
    train.backward(tape, loss)
    assert len(tape) == 0  # backward releases each node as it replays it
    return recorded


def test_tape_counter_reads_the_whole_tape(tracing):
    recorded = _phase2_step()
    tracer = tracing.Tracer()
    with tracer.installed():
        _phase2_step()
    assert recorded > 0
    assert tracer.steps["tape.nodes"] == [recorded]
    assert tracer.steps["tape.peak_bytes"][0] > 0
