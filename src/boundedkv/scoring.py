"""Per-token importance from per-step attention maps.

The per-step attention of one layer is an (H, M, N) stack of softmax
maps: M query rows per head against N resident keys. Importance uses
two normalizations on the per-key column sums:

* row-length: each step's contribution is divided by N, the key count
  visible at that step, so early short rows do not dominate;
* exposure: the accumulated score is divided by the number of steps the
  token has been resident, so tenure alone earns nothing; the cache
  derives it from the birth step and the layer's last scored step.

Protected tokens have an importance like any other; eviction never
ranks them because only unprotected tokens are candidates.
"""

from __future__ import annotations

import numpy as np

from .cache import LayerCache
from .errors import StaleStats
from .telemetry import TraceRecord


def stats_from_maps(maps: np.ndarray) -> np.ndarray:
    """Column sums of an (H, M, N) stack of float64 attention maps.

    Sums weights over all heads and queries (totals H*M). The column sums
    of the head-averaged map (totals M) are these divided by H.
    """
    return maps.sum(axis=(0, 1))


def accumulate(cache_layer: LayerCache, record: TraceRecord) -> None:
    """Fold one step's column sums into the layer's resident tokens.

    ``record`` is the step's (step, layer) record. Adds
    ``col_sums_raw[j] / n_keys`` to each token's cumulative score and
    records the step as the layer's last scored step, which counts it
    into every resident token's exposure.
    """
    n = cache_layer.n
    if record.n_keys != n or not np.array_equal(record.key_ids, cache_layer.token_id[:n]):
        raise StaleStats(
            f"layer {cache_layer.layer_index}: record covers {record.n_keys} keys, "
            f"cache holds {n}"
        )
    inv_n = 1.0 / n
    cache_layer.cum_score[:n] += record.col_sums_raw * inv_n
    cache_layer.scored_step = record.step


def importances(cache_layer: LayerCache, rows: np.ndarray) -> np.ndarray:
    """Final importance of the given rows of a layer, as one array.

    Each row's cumulative score discounted by its exposure.
    """
    return cache_layer.cum_score[rows] / cache_layer.exposure(rows)


def layer_sparsity(headmean: np.ndarray) -> float:
    """Negative population variance of a layer's head-mean column sums,
    ``col_sums_raw / heads``.

    Near-uniform (dense) attention gives a value near zero; concentrated
    attention gives a strictly more negative value. Defined for a single
    key (variance 0).
    """
    # np.var's own operation order (sum, divide, subtract, square, sum,
    # divide), without its dispatch: the value is bit-identical.
    deviation = headmean - np.add.reduce(headmean) / len(headmean)
    deviation *= deviation
    return -float(np.add.reduce(deviation) / len(headmean))
