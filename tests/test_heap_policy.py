"""Importing the package keeps freed numpy temporaries in the heap.

`eqspike/__init__.py` raises glibc's mmap and trim thresholds, so an
array of up to 4 MiB that is freed and allocated again reuses heap pages
instead of faulting in fresh zeroed ones from the kernel.  Under glibc's
defaults the last three cycles below take about 1,440 minor faults.
"""

import ctypes
import os
import subprocess
import sys

import pytest

import eqspike

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
