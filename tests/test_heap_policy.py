"""Importing the package keeps freed numpy temporaries in the heap.

`eqspike/__init__.py` raises glibc's mmap and trim thresholds, so an
array of up to 4 MiB that is freed and allocated again reuses heap pages
instead of faulting in fresh zeroed ones from the kernel.  Under glibc's
defaults the last three cycles below take about 1,440 minor faults.  The
spike path's windows are sized to stay under the mmap threshold.
"""

import ctypes
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import eqspike
from eqspike import model
from eqspike.model import EncoderStack, StackConfig
from eqspike.quantizer import QuantMode

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqspike.__file__)))

# Five cycles of three 1 MiB arrays; the faults of the last three cycles.
CYCLES = """
import resource
import eqspike
import numpy as np

counts = []
for _ in range(5):
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    arrays = [np.ones(1 << 17) for _ in range(3)]
    del arrays
counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(counts[-1] - counts[2])
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_freed_arrays_are_reused_without_page_faults():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CYCLES], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert int(proc.stdout) < 50


def test_window_budget_is_under_the_mmap_threshold():
    assert 0 < model.WINDOW_BYTES <= eqspike.MMAP_THRESHOLD


# the functions `temporal_simulate` hands its window arrays to
KERNELS = ("quantized_forward", "lif_step", "spiking_attention", "telescoped",
           "running_means", "layer_norm")


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))


def _allocated_bytes(a):
    """The bytes of the array `a` is a view of (a itself if it owns them)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("d", [32, 64])
@pytest.mark.parametrize("batch", [1, 64])
def test_largest_window_array_stays_under_the_mmap_threshold(monkeypatch, d,
                                                             batch):
    largest = []
    for name in KERNELS:
        def recorded(*args, inner=getattr(model, name), **kwargs):
            out = inner(*args, **kwargs)
            largest.append(max(map(_allocated_bytes,
                                   _arrays((args, kwargs, out)))))
            return out

        monkeypatch.setattr(model, name, recorded)
    cfg = StackConfig(vocab_size=25, hidden_dim=d, intermediate_dim=2 * d,
                      num_heads=2, num_layers=2, max_len=12, num_labels=2,
                      quant_mode=QuantMode.TERNARY_158BIT)
    stack = EncoderStack(cfg, np.random.default_rng(0))
    tokens = np.random.default_rng(1).integers(1, 25, size=(batch, 12))
    # a full window and more: 80 steps (d=32) or 40 (d=64) for a sentence,
    # one step for 64 of them
    stack.temporal_simulate(tokens, 100 if batch == 1 else 3)
    assert max(largest) <= eqspike.MMAP_THRESHOLD
    if batch == 1:  # a sentence's window fills the budget, and no more
        assert model.WINDOW_BYTES // 2 < max(largest) <= model.WINDOW_BYTES
    # a full-precision peer side by side shares the budget: half the steps
    # for a sentence; 64 of them run one stack after the other
    largest.clear()
    peer = EncoderStack(dataclasses.replace(
        cfg, quant_mode=QuantMode.FULL_PRECISION), np.random.default_rng(2))
    stack.temporal_simulate(tokens, 100 if batch == 1 else 3,
                            peers=[(peer, None)])
    assert max(largest) <= eqspike.MMAP_THRESHOLD
    if batch == 1:
        assert model.WINDOW_BYTES // 2 < max(largest) <= model.WINDOW_BYTES
