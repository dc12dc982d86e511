"""Bounded per-layer KV store with token metadata.

Every other module mutates this substrate: admission writes a frame's
keys/values under ids it assigns, eviction removes rows a policy chose,
and the scoring module updates the per-token accumulators in place.

A layer is a struct of arrays: keys, values, the protected mask and each
stored scalar field are preallocated columns, entry i of every column
is the i-th resident token in admission order, and only entries ``[:n]``
are live. Ids, taken from the session's counter, increase down the rows,
and birth steps, taken from the step counter, never decrease; exposure
is derived from the birth step. Attention reads the key/value columns
as views; eviction compacts every column by one gather per array.
Columns grow by doubling, so a bounded layer settles at its largest
occupancy. A layer's ``records`` is a record array copied from its
metadata block, ``evicted`` a read-only record view of its eviction
log; no Python object per token is built.

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

# A token's stored scalars (the rows of a layer's metadata block) and all
# its scalars (the columns of its eviction log, the fields of ``records``).
_META = ("token_id", "birth_step", "cum_score")
_FIELDS = ("token_id", "birth_step", "exposure", "cum_score")

# One token's scalars as a record: every field int64 but ``cum_score``.
_RECORD = np.dtype([(name, np.float64 if name == "cum_score" else np.int64) for name in _FIELDS])

_MIN_ROWS = 64


def _grow(array: np.ndarray, live: int, rows: int, axis: int = 0) -> np.ndarray:
    """A copy of ``array`` with room for ``rows`` entries along ``axis``
    (at least double its capacity), keeping its first ``live`` entries."""
    shape = list(array.shape)
    shape[axis] = max(rows, 2 * shape[axis], _MIN_ROWS)
    grown = np.empty(shape, dtype=array.dtype)
    kept = (slice(None),) * axis + (slice(live),)
    grown[kept] = array[kept]
    return grown


def _record_array(rows: np.ndarray) -> np.recarray:
    """A C-contiguous (tokens, fields) int64 array read as one record per token; a view."""
    return rows.view(_RECORD)[:, 0].view(np.recarray)


class LayerCache:
    """Insertion-ordered bounded store of one layer's tokens.

    ``K`` and ``V`` (compute dtype) and ``protected`` are arrays. The
    ``_META`` fields are row views of one (fields, capacity) int64 block,
    ``cum_score`` read as float64, so compaction moves them with one
    gather. ``scored_step`` is the last step scored (-1 before any). The
    eviction log is a (capacity, ``_FIELDS``) int64 block, one token per
    row in eviction order, each frozen at eviction.
    """

    def __init__(self, layer_index: int, dim: int, dtype):
        self.layer_index = layer_index
        self.budget: int | None = None
        self.protected_count = 0
        self.n = 0
        self.scored_step = -1
        self._block = np.empty((len(_META), 0), dtype=np.int64)
        self.protected = np.empty(0, dtype=np.bool_)
        self.K = np.empty((0, dim), dtype=dtype)
        self.V = np.empty((0, dim), dtype=dtype)
        self._bind()
        self.n_evicted = 0
        self._log = np.empty((0, len(_FIELDS)), dtype=np.int64)

    def _bind(self) -> None:
        # setattr, not vars(self).update: on CPython 3.11 materialising the
        # instance dict makes every attribute read on the layer about 4x slower.
        for name, row in zip(_META, self._block):
            setattr(self, name, row.view(np.float64) if name == "cum_score" else row)

    def _reserve(self, rows: int) -> None:
        if rows > self._block.shape[1]:
            self._block = _grow(self._block, self.n, rows, axis=1)
            self._bind()
            self.protected, self.K, self.V = (_grow(a, self.n, rows) for a in (self.protected, self.K, self.V))

    def exposure(self, rows: np.ndarray) -> np.ndarray:
        """Steps each given row has resided, birth and last scored step included."""
        return self.scored_step + 1 - self.birth_step[rows]

    def _scalars(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the given rows' ``_FIELDS`` into ``out``, a (tokens, fields) int64 array."""
        token_id, birth_step, cum_score = self._block.take(rows, axis=1)
        fields = out.T
        fields[0], fields[1], fields[2], fields[3] = token_id, birth_step, self.exposure(rows), cum_score
        return out

    @property
    def records(self) -> np.recarray:
        """Residents' scalars in cache order; a copy."""
        return _record_array(self._scalars(np.arange(self.n), np.empty((self.n, len(_FIELDS)), dtype=np.int64)))

    @property
    def evicted(self) -> np.recarray:
        """Evicted tokens' scalars in eviction order, frozen at eviction;
        a read-only view of the log, which later evictions extend but
        never rewrite."""
        log = _record_array(self._log[: self.n_evicted])
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
        self._block[:, low:stop] = self._block.take(survivors, axis=1)
        for column in (self.protected, self.K, self.V):
            column[low:stop] = column.take(survivors, axis=0)
        self.n = stop
        return len(rows)


class CacheSession:
    """All layer caches plus allocation state for one stream.

    Single-writer: no concurrent mutation. ``budgets_total`` is the total
    token budget (None in unbounded baseline mode); per-layer budgets are
    refreshed each step by the allocator and sum to the total exactly
    whenever the total is attainable within the stream horizon.
    """

    def __init__(self, config: StreamConfig):
        self.config = config
        dtype = np.dtype(config.attn_dtype)
        self.layers = [LayerCache(i, config.dim, dtype) for i in range(config.layers)]
        self.step_counter = 0
        self.budgets_total = config.total_budget_tokens()
        self._next_token_id = 0

    @property
    def unbounded(self) -> bool:
        return self.budgets_total is None

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
    count, start = len(keys), layer.n
    if not session.unbounded:
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
    layer._reserve(stop)
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
