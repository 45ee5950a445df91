import os

import numpy as np
import pytest

from asc.model import ModelConfig, ModelWeights, tensor_shapes


def make_model(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16, vocab_size=20,
               max_seq_len=16, norm_mode="standard", seed=0):
    """Random weights of the right shapes; no planted structure."""
    config = ModelConfig(
        vocab_size=vocab_size,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        num_heads=num_heads,
        ffn_dim=ffn_dim,
        max_seq_len=max_seq_len,
        norm_mode=norm_mode,
    )
    rng = np.random.default_rng(seed)
    tensors = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in tensor_shapes(config).items()
    }
    return config, ModelWeights(tensors)


def header_paths(node, prefix=()):
    """Key path of every value in a JSON document, containers included."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from header_paths(child, prefix + (key,))


def other_typed(value):
    """JSON values of a different type than `value` (int <-> bool/float/str/list, ...)."""
    candidates = [True, False, 0, 8, 2.5, "1", "f32", [1], [], {}, None]
    if type(value) is int:
        candidates += [float(value), str(value), [value], bool(value)]
    return [c for c in candidates if type(c) is not type(value)]


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process (waitpid(-1, WNOHANG) -> {pid}, {status})")


@pytest.fixture
def forks(monkeypatch):
    """The pid that called os.fork, once per call."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def tiny_model():
    return make_model()
