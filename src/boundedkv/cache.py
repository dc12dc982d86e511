"""Bounded per-layer KV store with token metadata.

Every other module mutates this substrate: admission writes a frame's
keys/values under ids it assigns, eviction removes rows a policy chose,
and the scoring module updates the per-token accumulators in place.

A layer is a struct of arrays: token ids, birth steps, cumulative
scores, the protected mask, keys and values are six preallocated
columns (``_COLUMNS``), entry i of every column is the i-th resident
token in admission order, and only entries ``[:n]`` are live. Ids,
taken from the session's counter, increase down the rows, and birth
steps, taken from the step counter, never decrease; exposure is derived
from the birth step. Attention reads the key/value columns as views;
eviction compacts every column by one gather per array. Columns grow
by doubling into new arrays, so a bounded layer settles at its largest
occupancy. An unbounded layer admits every token of the stream, so
its first admission reserves the stream's ``frames * tokens_per_frame``
rows, and its eviction compacts the ids into a fresh array: no live id
prefix of an unbounded layer is ever rewritten, and a view of one, as
an unbounded stream's records hold, never changes. A layer's
``records`` is a ``_RECORD`` array copied from its columns and
``evicted`` a read-only view of its eviction log, a ``_RECORD`` array
too; no Python object per token is built.

Admission marks which tokens eviction may never remove; the cache keeps
that mark in its ``protected`` column and knows no token kinds (the
paper's rule lives in ``simulate.frame_protection``).
When a layer's budget falls below ``protected_count + M`` the effective
budget is clamped to that floor and the step report carries a warning
flag; correctness wins over strict budgets at pathological settings.
"""

from __future__ import annotations

import numpy as np

from .config import StreamConfig
from .errors import AdmissionOverflow, ProtectedEviction, UnknownLayer, UnknownToken

# A layer's columns, one array each: entry i of every column is the i-th
# resident token.
_COLUMNS = ("token_id", "birth_step", "cum_score", "protected", "K", "V")

# One token's scalars as a record: the fields of ``records`` and of the eviction log.
_RECORD = np.dtype([("token_id", np.int64), ("birth_step", np.int64), ("exposure", np.int64),
                    ("cum_score", np.float64)])

_MIN_ROWS = 64


def _grow(array: np.ndarray, live: int, rows: int) -> np.ndarray:
    """A copy of ``array`` with room for ``rows`` entries (at least double
    its capacity), keeping its first ``live`` entries."""
    grown = np.empty((max(rows, 2 * len(array), _MIN_ROWS), *array.shape[1:]), dtype=array.dtype)
    grown[:live] = array[:live]
    return grown


class LayerCache:
    """Insertion-ordered bounded store of one layer's tokens.

    Each name in ``_COLUMNS`` is one array: ``token_id`` and
    ``birth_step`` int64, ``cum_score`` float64, ``protected`` bool, and
    ``K`` and ``V`` (capacity, dim) in the compute dtype. Compaction
    gathers each column once. ``scored_step`` is the last step scored
    (-1 before any). The eviction log is a ``_RECORD`` array, one token
    per entry in eviction order, each frozen at eviction.
    """

    def __init__(self, layer_index: int, dim: int, dtype):
        self.layer_index = layer_index
        self.budget: int | None = None
        self.protected_count = 0
        self.n = 0
        self.scored_step = -1
        self.token_id = np.empty(0, dtype=np.int64)
        self.birth_step = np.empty(0, dtype=np.int64)
        self.cum_score = np.empty(0, dtype=np.float64)
        self.protected = np.empty(0, dtype=np.bool_)
        self.K = np.empty((0, dim), dtype=dtype)
        self.V = np.empty((0, dim), dtype=dtype)
        self.n_evicted = 0
        self._log = np.empty(0, dtype=_RECORD)

    def _reserve(self, rows: int) -> None:
        if rows > len(self.token_id):
            for name in _COLUMNS:
                setattr(self, name, _grow(getattr(self, name), self.n, rows))

    def exposure(self, rows: np.ndarray) -> np.ndarray:
        """Steps each given row has resided, birth and last scored step included."""
        return self.scored_step + 1 - self.birth_step[rows]

    def _scalars(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the given rows' scalars into ``out``, a ``_RECORD`` array."""
        out["token_id"] = self.token_id[rows]
        out["birth_step"] = self.birth_step[rows]
        out["exposure"] = self.exposure(rows)
        out["cum_score"] = self.cum_score[rows]
        return out

    @property
    def records(self) -> np.recarray:
        """Residents' scalars in cache order; a copy."""
        return self._scalars(np.arange(self.n), np.empty(self.n, dtype=_RECORD)).view(np.recarray)

    @property
    def evicted(self) -> np.recarray:
        """Evicted tokens' scalars in eviction order, frozen at eviction;
        a read-only view of the log, which later evictions extend but
        never rewrite."""
        log = self._log[: self.n_evicted].view(np.recarray)
        log.flags.writeable = False
        return log

    def occupancy(self) -> int:
        return self.n

    def effective_budget(self, new_tokens: int) -> int | None:
        """Budget clamped to the protected floor (None when unbounded).

        A layer must always be able to hold its protected residents plus
        one incoming frame of ``new_tokens`` tokens.
        """
        if self.budget is None:
            return None
        return max(self.budget, self.protected_count + new_tokens)

    def keys_matrix(self) -> np.ndarray:
        """Resident keys; a view, valid until the layer next changes."""
        return self.K[: self.n]

    def values_matrix(self) -> np.ndarray:
        """Resident values; a view, valid until the layer next changes."""
        return self.V[: self.n]

    def evict(self, rows: np.ndarray) -> int:
        """Move the given distinct rows, in any order, to the eviction log
        in row order, keeping survivor order; returns how many moved.

        The one way tokens leave a layer: it refuses protected rows
        before any change. Rows before the first evicted one never move.
        """
        rows = np.sort(rows)
        shielded = self.protected[rows]
        if shielded.any():
            raise ProtectedEviction(f"layer {self.layer_index}: protected token ids {self.token_id[rows[shielded]]}")
        if not len(rows):
            return 0
        low = int(rows[0])
        gone = np.zeros(self.n - low, dtype=bool)
        gone[rows - low] = True
        survivors = (~gone).nonzero()[0]
        survivors += low
        stop = low + len(survivors)
        logged = self.n_evicted + len(rows)
        if logged > len(self._log):
            self._log = _grow(self._log, self.n_evicted, logged)
        self._scalars(rows, self._log[self.n_evicted:logged])
        self.n_evicted = logged
        if self.budget is None:
            # Unbounded: records may view the ids, so compact into a fresh array.
            self.token_id = self.token_id.copy()
        for name in _COLUMNS:
            column = getattr(self, name)
            column[low:stop] = column.take(survivors, axis=0)
        self.n = stop
        return len(rows)


class CacheSession:
    """All layer caches plus allocation state for one stream.

    Single-writer: no concurrent mutation. Per-layer budgets are refreshed
    each step by the allocator and sum to the config's total exactly
    whenever the total is attainable within the stream horizon.
    """

    def __init__(self, config: StreamConfig):
        self.config = config
        dtype = np.dtype(config.attn_dtype)
        self.layers = [LayerCache(i, config.dim, dtype) for i in range(config.layers)]
        self.step_counter = 0
        self._next_token_id = 0

    def layer(self, layer_index: int) -> LayerCache:
        if not 0 <= layer_index < len(self.layers):
            raise UnknownLayer(f"layer {layer_index} out of range")
        return self.layers[layer_index]


def admit(session: CacheSession, layer_index: int, keys, values, protected) -> np.ndarray:
    """Append one frame's tokens to a layer, born at the current step,
    under the next ids from the session's counter; returns those ids.

    ``keys`` and ``values`` are (count, dim) arrays and ``protected`` is
    the (count,) bool mask of the tokens eviction may never remove; it is
    all the cache knows of a token's role. Raises AdmissionOverflow when
    a bounded layer lacks room, which means the eviction pass did not
    run (or did not free enough slots) first. Validation happens before
    any mutation.
    """
    layer = session.layer(layer_index)
    cfg = session.config
    count, start = len(keys), layer.n
    if cfg.bounded:
        effective = layer.effective_budget(count)
        if start + count > effective:
            raise AdmissionOverflow(
                f"layer {layer_index}: occupancy {start} + "
                f"{count} new tokens exceeds effective budget {effective}"
            )
    protected = np.asarray(protected)
    if (protected.shape != (count,) or protected.dtype != np.bool_
            or np.shape(keys) != (count, layer.K.shape[1]) or np.shape(values) != np.shape(keys)):
        raise ValueError(f"layer {layer_index}: {count} keys need {count} bool protection flags and values")

    ids = np.arange(session._next_token_id, session._next_token_id + count, dtype=np.int64)
    session._next_token_id += count
    stop = start + count
    # An unbounded layer admits every token of the stream, so its first
    # admission reserves the stream's rows.
    layer._reserve(stop if cfg.bounded else max(stop, cfg.frames * cfg.tokens_per_frame))
    layer.K[start:stop] = keys
    layer.V[start:stop] = values
    layer.token_id[start:stop] = ids
    layer.birth_step[start:stop] = session.step_counter
    layer.cum_score[start:stop] = 0.0
    layer.protected[start:stop] = protected
    layer.n = stop
    layer.protected_count += int(np.count_nonzero(protected))
    return ids


def remove(session: CacheSession, layer_index: int, token_ids) -> int:
    """Evict the given ids (an int64 array or a sequence of ints) from a
    layer: a lookup of their rows in front of ``LayerCache.evict``.

    A repeated id counts once; returns the number removed. Refuses ids
    not resident, and protected ids, before any mutation.
    """
    layer = session.layer(layer_index)
    wanted = np.unique(np.asarray(token_ids, dtype=np.int64))
    resident = layer.token_id[: layer.n]
    missing = np.setdiff1d(wanted, resident, assume_unique=True)
    if len(missing):
        raise UnknownToken(f"layer {layer_index}: unknown token ids {missing.tolist()}")
    return layer.evict(resident.searchsorted(wanted))
