"""Per-token importance from per-step attention maps.

The per-step attention of one layer is an (H, M, N) stack of softmax
maps: M query rows per head against N resident keys. Importance uses
two normalizations on the per-key column sums:

* row-length: each step's contribution is divided by N, the key count
  visible at that step, so early short rows do not dominate;
* exposure: the accumulated score is divided by the number of steps the
  token has been resident, so tenure alone earns nothing.

Protected tokens short-circuit to +inf importance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import LayerCache, TokenRow
from .errors import StaleStats


@dataclass
class AttentionStats:
    """Column statistics of one step's attention in one layer.

    ``col_sums_raw`` sums weights over all heads and queries (totals H*M);
    ``col_sums_headmean`` is the column sum of the head-averaged map
    (totals M). ``key_ids`` names the column owners in cache order.
    """

    step: int
    layer_index: int
    n_keys: int
    col_sums_raw: np.ndarray
    col_sums_headmean: np.ndarray
    key_ids: list[int]


def stats_from_maps(step: int, layer_index: int, maps: np.ndarray, key_ids: list[int]) -> AttentionStats:
    """Build column statistics from an (H, M, N) stack of attention maps."""
    raw = maps.sum(axis=(0, 1)).astype(np.float64, copy=False)
    return AttentionStats(
        step=step,
        layer_index=layer_index,
        n_keys=maps.shape[2],
        col_sums_raw=raw,
        col_sums_headmean=raw / maps.shape[0],
        key_ids=key_ids,
    )


def accumulate(cache_layer: LayerCache, stats: AttentionStats) -> None:
    """Fold one step's column sums into the layer's resident tokens.

    Adds ``col_sums_raw[j] / n_keys`` to each token's cumulative score
    and counts the step into every resident token's exposure. Tokens
    born this step already carry the step in their admission exposure
    of 1, so only older residents are incremented here.
    """
    ids = cache_layer.token_ids()
    if stats.n_keys != len(ids) or stats.key_ids != ids:
        raise StaleStats(
            f"layer {cache_layer.layer_index}: stats cover {stats.n_keys} keys, "
            f"cache holds {len(ids)}"
        )
    if len(stats.col_sums_raw) != stats.n_keys:
        raise StaleStats(
            f"layer {cache_layer.layer_index}: {len(stats.col_sums_raw)} column sums "
            f"for {stats.n_keys} keys"
        )
    n = stats.n_keys
    inv_n = 1.0 / n
    cache_layer.cum_score[:n] += np.asarray(stats.col_sums_raw, dtype=np.float64) * inv_n
    cache_layer.exposure[:n] += cache_layer.birth_step[:n] < stats.step


def importance(token: TokenRow) -> float:
    """Final importance: cumulative score discounted by exposure.

    Protected tokens map to +inf and are thereby exempt from eviction.
    """
    if token.protected:
        return math.inf
    return token.cum_score / token.exposure


def importances(cache_layer: LayerCache, rows: np.ndarray) -> np.ndarray:
    """``importance`` of the given rows of a layer, as one array."""
    values = cache_layer.cum_score[rows] / cache_layer.exposure[rows]
    values[cache_layer.protected[rows]] = math.inf
    return values


def layer_sparsity(stats: AttentionStats) -> float:
    """Negative population variance of the head-mean column sums.

    Near-uniform (dense) attention gives a value near zero; concentrated
    attention gives a strictly more negative value. Defined for a single
    key (variance 0).
    """
    return -float(np.var(np.asarray(stats.col_sums_headmean, dtype=np.float64)))
