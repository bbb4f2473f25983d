"""Extremely weight-quantized spiking encoder with equilibrium training."""

import ctypes

__version__ = "0.1.0"

# The heap policy set once at import, for the whole process (mallopt(3)).
# Under glibc's defaults an allocation above the mmap threshold (128 KiB at
# start, sliding up) gets a mapping of its own that free unmaps, and the heap
# top is trimmed once more than twice that threshold is free; the rate path
# frees and reallocates 0.1-1 MiB numpy temporaries on every call, so each
# comes back from the kernel as fresh zeroed pages.  The mmap threshold is
# above the largest temporary the spike path allocates per call: a
# window's widest array stays within `model.WINDOW_BYTES` (720 KiB) once
# one step fits, and one step of 64 sentences is 0.56 MiB at d=32 and
# 1.1 MiB at d=64 (`tests/test_heap_policy.py`).  The trim threshold is
# above the most memory the default pipeline frees at once and then needs
# again: `energy --eval-size 64` holds up to 10.2 MiB (its tracemalloc
# peak) while one model's T=200 simulation runs, frees it, and builds it
# again for the other model.  At most 16 MiB of freed heap is retained.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 16 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # parameter numbers, malloc.h


def _keep_freed_memory_in_heap():
    """Sets the heap policy through libc's mallopt; a no-op without one."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory_in_heap()
