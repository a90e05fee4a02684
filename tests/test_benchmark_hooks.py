"""The names the benchmark in ``benchmark/`` patches or calls must exist in
the program, so that a refactor which renames one fails here rather than in
the benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from seqseg import network, train
from seqseg.network import ModelConfig, SegNet
from seqseg.tensor import Tensor

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
