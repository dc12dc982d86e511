"""Bounded per-layer KV store with token metadata.

Every other module mutates this substrate: admission writes a frame's
keys/values, eviction removes ids chosen by a policy, and the scoring
module updates the per-token accumulators in place.

A layer is a struct of arrays: keys, values, the protected mask and each
scalar metadata field are preallocated columns, entry i of every column
is the i-th resident token in admission order, and only entries ``[:n]``
are live. Attention reads the key/value columns as views; eviction
compacts every column by one gather per array. Columns grow by
doubling, so a bounded layer settles at its largest occupancy.

Protected tokens (first frame, camera, register) are never removable.
When a layer's budget falls below ``protected_count + M`` the effective
budget is clamped to that floor and the step report carries a warning
flag; correctness wins over strict budgets at pathological settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import KIND_CAMERA, KIND_PATCH, KIND_REGISTER, StreamConfig
from .errors import AdmissionOverflow, ProtectedEviction, UnknownLayer, UnknownToken

# Values of the ``kind`` column index this tuple.
_KINDS = (KIND_PATCH, KIND_CAMERA, KIND_REGISTER)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

# Scalar fields of a token, in TokenRow order.
_META = ("token_id", "frame_index", "kind", "birth_step", "exposure", "cum_score")

_MIN_ROWS = 64


def is_protected(frame_index: int, token_kind: str) -> bool:
    """First-frame tokens plus camera/register tokens of every frame."""
    return frame_index == 0 or token_kind in (KIND_CAMERA, KIND_REGISTER)


@dataclass(frozen=True)
class TokenRow:
    """Snapshot of one cached (or evicted) token's metadata.

    ``exposure`` counts steps resided in cache, including the birth step;
    it is 1 immediately after admission. ``cum_score`` is the running
    row-length-normalized cumulative attention, non-decreasing over the
    token's lifetime and frozen at eviction.
    """

    token_id: int
    frame_index: int
    token_kind: str
    birth_step: int
    exposure: int = 1
    cum_score: float = 0.0
    eviction_step: int | None = None

    @property
    def protected(self) -> bool:
        return is_protected(self.frame_index, self.token_kind)


class _Columns:
    """Growable per-token columns; entries ``[:n]`` are live.

    The scalar fields are the rows of one (fields, capacity) int64 block,
    so compaction and logging move all of them with one gather. Each
    field is a contiguous row view; ``cum_score`` reads its row as
    float64. ``arrays`` names separate columns as (name, dtype, row shape).
    """

    def __init__(self, fields: tuple, arrays: tuple = ()):
        self._fields = fields
        self._arrays = [name for name, _, _ in arrays]
        self._block = np.empty((len(fields), 0), dtype=np.int64)
        for name, dtype, shape in arrays:
            setattr(self, name, np.empty((0,) + shape, dtype=dtype))
        self.n = 0
        self._bind()

    def _bind(self) -> None:
        for name, row in zip(self._fields, self._block):
            setattr(self, name, row.view(np.float64) if name == "cum_score" else row)

    def _reserve(self, rows: int) -> None:
        capacity = self._block.shape[1]
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity, _MIN_ROWS)
        block = np.empty((len(self._fields), capacity), dtype=np.int64)
        block[:, : self.n] = self._block[:, : self.n]
        self._block = block
        self._bind()
        for name in self._arrays:
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def _rows(self) -> list[TokenRow]:
        n = self.n
        fields = self._block[:, :n].tolist()
        fields[_META.index("kind")] = [_KINDS[code] for code in fields[_META.index("kind")]]
        fields[_META.index("cum_score")] = self.cum_score[:n].tolist()
        if len(fields) == len(_META):  # resident: no eviction step yet
            fields.append([None] * n)
        return [TokenRow(*values) for values in zip(*fields)]


class EvictionLog(_Columns):
    """Scalars of every token evicted from a layer, in eviction order."""

    def __init__(self):
        super().__init__(_META + ("eviction_step",))

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self._rows())

    def append(self, layer: LayerCache, rows: np.ndarray, step: int) -> None:
        start, stop = self.n, self.n + len(rows)
        self._reserve(stop)
        self._block[: len(_META), start:stop] = layer._block.take(rows, axis=1)
        self.eviction_step[start:stop] = step
        self.n = stop


class LayerCache(_Columns):
    """Insertion-ordered bounded store of one layer's tokens.

    ``K`` and ``V`` hold keys and values in the compute dtype; the
    metadata columns are ``token_id``, ``frame_index``, ``kind``,
    ``birth_step``, ``exposure``, ``cum_score`` and ``protected``.
    ``id_objects`` holds the ids as Python ints, shared by every step's
    AttentionStats.key_ids instead of fresh ints per key per step.
    Token ids increase down the rows (admission order is id order).
    """

    def __init__(self, layer_index: int, dim: int, dtype=np.float64):
        super().__init__(_META, (
            ("protected", np.bool_, ()),
            ("id_objects", object, ()),
            ("K", dtype, (dim,)),
            ("V", dtype, (dim,)),
        ))
        self.layer_index = layer_index
        self.budget: int | None = None
        self.protected_count = 0
        self.evicted = EvictionLog()

    @property
    def records(self) -> list[TokenRow]:
        return self._rows()

    def occupancy(self) -> int:
        return self.n

    def token_ids(self) -> list[int]:
        return self.id_objects[: self.n].tolist()

    def effective_budget(self, new_tokens: int) -> int | None:
        """Budget clamped to the protected floor (None when unbounded).

        A layer must always be able to hold its protected residents plus
        one incoming frame of ``new_tokens`` tokens.
        """
        if self.budget is None:
            return None
        return max(self.budget, self.protected_count + new_tokens)

    def keys_matrix(self, dtype) -> np.ndarray:
        """Resident keys; a view, valid until the layer next changes."""
        return self.K[: self.n].astype(dtype, copy=False)

    def values_matrix(self, dtype) -> np.ndarray:
        """Resident values; a view, valid until the layer next changes."""
        return self.V[: self.n].astype(dtype, copy=False)

    def _evict(self, rows: np.ndarray, step: int) -> int:
        """Move the given sorted rows to the eviction log, keeping
        survivor order; returns the number of distinct rows evicted.

        Rows before the first evicted one never move.
        """
        low = int(rows[0])
        gone = np.zeros(self.n - low, dtype=bool)
        gone[rows - low] = True
        survivors = (~gone).nonzero()[0]
        survivors += low
        stop = low + len(survivors)
        if self.n - stop != len(rows):  # repeated ids
            rows = np.unique(rows)
        self.evicted.append(self, rows, step)
        self._block[:, low:stop] = self._block.take(survivors, axis=1)
        for name in self._arrays:
            column = getattr(self, name)
            column[low:stop] = column.take(survivors, axis=0)
        self.n = stop
        return len(rows)


@dataclass
class CacheSession:
    """All layer caches plus allocation state for one stream.

    Single-writer: no concurrent mutation. ``budgets_total`` is the total
    token budget (None in unbounded baseline mode); per-layer budgets are
    refreshed each step by the allocator and sum to the total exactly
    whenever the total is attainable within the stream horizon.
    """

    config: StreamConfig
    layers: list[LayerCache] = field(default_factory=list)
    step_counter: int = 0
    budgets_total: int | None = None
    last_sigmas: list[float] | None = None
    _next_token_id: int = 0

    def __post_init__(self):
        if not self.layers:
            dtype = np.dtype(self.config.attn_dtype)
            self.layers = [LayerCache(i, self.config.dim, dtype) for i in range(self.config.layers)]
        if self.budgets_total is None:
            self.budgets_total = self.config.total_budget_tokens()

    @property
    def unbounded(self) -> bool:
        return self.budgets_total is None

    def layer(self, layer_index: int) -> LayerCache:
        if not 0 <= layer_index < len(self.layers):
            raise UnknownLayer(f"layer {layer_index} out of range")
        return self.layers[layer_index]

    def issue_token_ids(self, count: int) -> range:
        ids = range(self._next_token_id, self._next_token_id + count)
        self._next_token_id += count
        return ids


def admit(session: CacheSession, layer_index: int, token_ids, keys, values,
          frame_index: int, kinds) -> None:
    """Append one frame's tokens to a layer, born at the current step.

    ``keys`` and ``values`` are (count, dim) arrays and ``kinds`` names
    each token's kind. Ids must be new to the layer and increasing,
    above every resident id. Raises AdmissionOverflow when a bounded
    layer lacks room, which means the eviction pass did not run (or did
    not free enough slots) first. Validation happens before any mutation.
    """
    layer = session.layer(layer_index)
    ids = list(token_ids)
    count, start = len(ids), layer.n
    if not session.unbounded:
        effective = layer.effective_budget(count)
        if start + count > effective:
            raise AdmissionOverflow(
                f"layer {layer_index}: occupancy {start} + "
                f"{count} new tokens exceeds effective budget {effective}"
            )
    new_ids = np.array(ids, dtype=np.int64)
    if np.any(new_ids[1:] <= new_ids[:-1]) or (count and start and new_ids[0] <= layer.token_id[start - 1]):
        raise ValueError(f"layer {layer_index}: token ids {ids} are not new and increasing")
    if len(kinds) != count or np.shape(keys) != (count, layer.K.shape[1]) or np.shape(values) != np.shape(keys):
        raise ValueError(f"layer {layer_index}: {count} ids need {count} kinds, keys and values")
    codes = np.array([_KIND_CODE[kind] for kind in kinds], dtype=np.int64)
    protected = (codes != _KIND_CODE[KIND_PATCH]) | (frame_index == 0)

    stop = start + count
    layer._reserve(stop)
    layer.K[start:stop] = keys
    layer.V[start:stop] = values
    layer.token_id[start:stop] = new_ids
    layer.frame_index[start:stop] = frame_index
    layer.kind[start:stop] = codes
    layer.birth_step[start:stop] = session.step_counter
    layer.exposure[start:stop] = 1
    layer.cum_score[start:stop] = 0.0
    layer.protected[start:stop] = protected
    layer.id_objects[start:stop] = ids
    layer.n = stop
    layer.protected_count += int(np.count_nonzero(protected))


def remove(session: CacheSession, layer_index: int, token_ids) -> int:
    """Remove the given ids from a layer, preserving survivor order.

    Evicted tokens' scalars move to the layer's eviction log. Returns
    the number removed. Refuses protected ids and ids that are not
    resident; validation happens before any mutation.
    """
    layer = session.layer(layer_index)
    wanted = np.array(list(token_ids), dtype=np.int64)
    wanted.sort()
    resident = layer.token_id[: layer.n]
    rows = resident.searchsorted(wanted)
    if len(wanted) and (not layer.n or (resident.take(rows, mode="clip") != wanted).any()):
        missing = sorted(set(wanted.tolist()) - set(resident.tolist()))
        raise UnknownToken(f"layer {layer_index}: unknown token ids {missing}")
    shielded = layer.protected[rows]
    if shielded.any():
        raise ProtectedEviction(f"layer {layer_index}: protected token ids {wanted[shielded].tolist()}")
    return layer._evict(rows, session.step_counter) if len(rows) else 0


def occupancy(session: CacheSession, layer_index: int) -> int:
    return session.layer(layer_index).occupancy()


def footprint_bytes(session: CacheSession, scalar_bytes: int) -> int:
    """Bytes held by cached keys and values only (no metadata).

    Each resident token stores a key and a value of ``dim`` scalars.
    """
    width = 2 * session.config.dim * scalar_bytes
    return sum(layer.occupancy() * width for layer in session.layers)
