"""Test helpers: a TraceRecord builder for tests that need one layer's
attention data, the names of a cache layer's columns, and the name of
the BLAS kernel the golden pins hold for.

``TraceRecord`` has no field defaults, so ``layer_record`` passes every
field: the given key ids, raw column sums and maps, with no budget, no
eviction and zero counts around them.
"""

import ctypes
from pathlib import Path

import numpy as np

from boundedkv.telemetry import TraceRecord

# A LayerCache's columns, named here rather than read from the cache, so
# that a column the cache forgets to grow or compact shows in the tests.
CACHE_COLUMNS = ("token_id", "birth_step", "cum_score", "protected", "K", "V")


def layer_bytes(layer) -> dict[str, bytes]:
    """The bytes of every column of ``layer`` and of its eviction log,
    dead entries included: equal snapshots mean nothing moved."""
    return {name: getattr(layer, name).tobytes() for name in (*CACHE_COLUMNS, "_log")}


def layer_record(step, key_ids, col_sums_raw=None, maps=None, layer=0):
    """A record of ``key_ids``' attention at ``step``. The raw column sums
    default to zeros."""
    key_ids = np.array(key_ids, dtype=np.int64)
    raw = np.zeros(len(key_ids)) if col_sums_raw is None else np.array(col_sums_raw, dtype=np.float64)
    return TraceRecord(
        step=step, layer=layer, n_keys=len(key_ids), budget_pre=None, budget_post=None,
        occupancy_pre=0, occupancy_post=len(key_ids), protected_count=0, clamped=False, reason=None,
        evicted_ids=np.empty(0, dtype=np.int64), evicted_importances=np.empty(0, dtype=np.float64),
        sigma=0.0, pi=None, multiplies=0, footprint_bytes=0,
        key_ids=key_ids, col_sums_raw=raw, maps=maps,
    )


def blas_kernel() -> str:
    """The compute kernel that numpy's bundled OpenBLAS picked for this CPU
    at run time (``SkylakeX``, ``Haswell``, ...), or ``"unknown"``.

    Output bits depend on that kernel, so the golden pins hold for one
    kernel and their failures name the one in use."""
    try:
        library = next(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"))
        corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except (StopIteration, OSError, AttributeError, ValueError):
        return "unknown"
