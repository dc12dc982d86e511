"""Cache substrate: admission, removal, occupancy, footprint."""

import tracemalloc

import numpy as np
import pytest

from boundedkv.cache import CacheSession, admit, remove
from boundedkv.config import StreamConfig
from boundedkv.errors import AdmissionOverflow, ProtectedEviction, UnknownLayer, UnknownToken

from builders import CACHE_COLUMNS, layer_bytes


def admit_tokens(session, layer, step, count=1, protected=None):
    """Admit ``count`` zero-key tokens born at ``step`` (the session's
    step counter is set to it); returns their ids.

    ``protected`` lists each token's flag; by default every token born
    at step 0 is protected and none born later."""
    session.step_counter = step
    protected = [step == 0] * count if protected is None else protected
    zeros = np.zeros((len(protected), session.config.dim))
    return admit(session, layer, zeros, zeros, np.array(protected, dtype=bool)).tolist()


def make_session(**kwargs) -> CacheSession:
    cfg = StreamConfig(**kwargs)
    cfg.validate()
    return CacheSession(config=cfg)


def test_admit_to_empty_layer():
    session = make_session(tokens_per_frame=8)
    admit_tokens(session, 0, 0, 3)
    layer = session.layers[0]
    assert layer.occupancy() == 3
    assert layer.records.birth_step.tolist() == [0, 0, 0]
    assert layer.records.exposure.tolist() == [0, 0, 0]  # step 0 is not scored yet
    layer.scored_step = 0
    assert layer.records.exposure.tolist() == [1, 1, 1]


def test_unbounded_growth_is_frames_times_tokens():
    session = make_session(tokens_per_frame=5, registers=0, frames=10)
    for t in range(10):
        admit_tokens(session, 0, t, 5)
        session.step_counter += 1
    assert session.layers[0].occupancy() == 50


def test_bounded_admit_without_evict_overflows():
    session = make_session(tokens_per_frame=2, registers=0, budget_tokens=8, frames=4)
    session.layers[0].budget = 2
    admit_tokens(session, 0, 5, 2)  # born at step 5: unprotected
    with pytest.raises(AdmissionOverflow):
        admit_tokens(session, 0, 6, 2)


def test_admission_fills_the_effective_budget_exactly():
    # Budget 3 and nothing protected: two tokens plus two overflow by
    # one, and two plus one fill the budget.
    session = make_session(tokens_per_frame=2, registers=0, budget_tokens=8, frames=4)
    session.layers[0].budget = 3
    admit_tokens(session, 0, 5, 2)
    with pytest.raises(AdmissionOverflow):
        admit_tokens(session, 0, 6, 2)
    admit_tokens(session, 0, 6, 1)
    assert session.layers[0].occupancy() == 3


def test_admit_takes_a_list_mask():
    session = make_session()
    zeros = np.zeros((3, session.config.dim))
    admit(session, 0, zeros, zeros, [True, False, False])
    layer = session.layers[0]
    assert layer.protected[: layer.n].tolist() == [True, False, False]
    assert layer.protected_count == 1


def test_protected_floor_lifts_effective_budget():
    session = make_session(tokens_per_frame=2, registers=0, budget_tokens=8, frames=4)
    session.layers[0].budget = 2
    # Step-0 tokens are protected and lift the floor to protected + M.
    admit_tokens(session, 0, 0, 2)
    admit_tokens(session, 0, 1, 2)
    assert session.layers[0].occupancy() == 4
    assert session.layers[0].effective_budget(2) == 4


def test_remove_preserves_survivor_order():
    session = make_session()
    ids = admit_tokens(session, 0, 3, 10)
    doomed = [ids[1], ids[4], ids[7]]
    assert remove(session, 0, doomed) == 3
    assert session.layers[0].occupancy() == 7
    survivors = [r.token_id for r in session.layers[0].records]
    expected = [tid for tid in ids if tid not in doomed]
    assert survivors == expected


def test_remove_frame0_token_is_protected():
    session = make_session()
    first = admit_tokens(session, 0, 0)
    admit_tokens(session, 0, 1)
    with pytest.raises(ProtectedEviction):
        remove(session, 0, first)


def test_admitted_protected_is_never_removable():
    session = make_session()
    ids = admit_tokens(session, 0, 9, protected=[True])
    assert session.layers[0].protected[0]
    with pytest.raises(ProtectedEviction):
        remove(session, 0, ids)


def test_remove_unknown_token():
    session = make_session()
    admit_tokens(session, 0, 1)
    with pytest.raises(UnknownToken):
        remove(session, 0, [123456])


def test_token_ids_unique_across_layers_and_steps():
    # admit returns the layer's newest ids, and the session's counter
    # runs on across layers and steps, so ids never repeat.
    session = make_session(layers=3)
    issued = []
    for t in range(4):
        for li, layer in enumerate(session.layers):
            ids = admit_tokens(session, li, t, 4)
            assert ids == layer.token_id[layer.n - 4:layer.n].tolist()
            issued += ids
        session.step_counter += 1
    assert issued == list(range(4 * 3 * 4))


@pytest.mark.parametrize("mask", [
    np.zeros(2, dtype=bool),                # one flag short
    np.zeros(4, dtype=bool),                # one flag over
    np.array([1, 0, 0], dtype=np.int64),    # kind codes, not a mask
    np.zeros((3, 1), dtype=bool),           # not one flag per token
], ids=["short", "long", "int64_codes", "column"])
def test_bad_protection_mask_rejected_before_mutation(mask):
    session = make_session(registers=1)
    admit_tokens(session, 0, 0, 2)
    admit_tokens(session, 0, 1, protected=[True, False, False])
    layer = session.layers[0]
    n, protected_count = layer.n, layer.protected_count
    before = layer_bytes(layer)
    zeros = np.zeros((3, session.config.dim))
    with pytest.raises(ValueError, match="bool protection flags"):
        admit(session, 0, zeros, zeros, mask)
    assert (layer.n, layer.protected_count) == (n, protected_count)
    assert layer_bytes(layer) == before


def test_values_wider_than_keys_rejected_before_mutation():
    session = make_session()
    admit_tokens(session, 0, 0, 2)
    layer = session.layers[0]
    n, next_id, before = layer.n, session._next_token_id, layer_bytes(layer)
    dim = session.config.dim
    with pytest.raises(ValueError, match="bool protection flags and values"):
        admit(session, 0, np.zeros((3, dim)), np.zeros((3, dim + 1)), np.zeros(3, dtype=bool))
    assert (layer.n, session._next_token_id) == (n, next_id)
    assert layer_bytes(layer) == before


def test_protected_count_tracks_admissions():
    session = make_session(registers=2)
    admit_tokens(session, 0, 0)                                     # protected: step 0
    admit_tokens(session, 0, 1, protected=[True, True, False])  # two of three protected
    assert session.layers[0].protected_count == 3


def test_bad_layer_index_is_unknown_layer():
    session = make_session(layers=2)
    with pytest.raises(UnknownLayer):
        session.layer(9)
    with pytest.raises(UnknownLayer):
        admit_tokens(session, -1, 0)


def test_remove_logs_scalars_once_per_token():
    session = make_session()
    ids = admit_tokens(session, 0, 2, 4)
    layer = session.layers[0]
    layer.cum_score[:4] = [0.1, 0.2, 0.3, 0.4]
    before = layer.records
    assert remove(session, 0, [ids[2], ids[0], ids[2]]) == 2
    assert layer.records.token_id.tolist() == [ids[1], ids[3]]
    assert layer.evicted.token_id.tolist() == [ids[0], ids[2]]
    assert layer.evicted.tolist() == before[[0, 2]].tolist()


def evict_frames(session, frames, count=8):
    """Admit ``count`` patches to layer 0 at each of the given steps
    (past step 0, so unprotected) and evict them again at once."""
    for frame in frames:
        remove(session, 0, admit_tokens(session, 0, frame, count))


def test_evicted_is_a_read_only_view():
    session = make_session(tokens_per_frame=8)
    evict_frames(session, [1])
    evicted = session.layers[0].evicted
    with pytest.raises(ValueError, match="read-only"):
        evicted.cum_score[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        evicted[0] = evicted[1]
    assert session.layers[0].records.flags.writeable  # records stay a writable copy


def test_earlier_evicted_view_survives_later_evictions_and_log_growth():
    session = make_session(tokens_per_frame=8)
    layer = session.layers[0]
    ids = admit_tokens(session, 0, 1, 8)
    layer.cum_score[:8] = np.arange(8) / 8
    layer.scored_step = 3  # born at step 1: exposure 3
    remove(session, 0, ids[:5])
    early = layer.evicted
    rows = early.tolist()
    evict_frames(session, range(2, 12))  # 85 logged rows: the log outgrows its first 64
    assert len(layer.evicted) == 85 and layer._log.shape[0] > 64
    assert not np.shares_memory(early, layer._log)
    assert early.tolist() == rows
    assert layer.evicted[:5].tolist() == rows


def test_evicted_fields():
    session = make_session(tokens_per_frame=8, registers=1)
    layer = session.layers[0]
    ids = admit_tokens(session, 0, 3, 4, protected=[True, True, False, False])
    layer.cum_score[:4] = [0.5, 0.25, 0.125, 2.0**-40]
    layer.scored_step = 4
    remove(session, 0, ids[2:])
    layer.scored_step = 9  # later scoring leaves logged exposures as they were
    evicted = layer.evicted
    assert evicted.dtype == layer.records.dtype
    assert evicted.dtype.names == ("token_id", "birth_step", "exposure", "cum_score")
    assert [evicted.dtype[name] for name in evicted.dtype.names] == [np.dtype(np.int64)] * 3 + [np.dtype(np.float64)]
    assert evicted.itemsize == 32
    assert evicted.tolist() == [(ids[2], 3, 2, 0.125), (ids[3], 3, 2, 2.0**-40)]
    assert layer.records.tolist() == [(ids[0], 3, 7, 0.5), (ids[1], 3, 7, 0.25)]
    assert layer.protected[:layer.n].all()


def test_len_of_evicted_copies_nothing():
    session = make_session(tokens_per_frame=8)
    layer = session.layers[0]
    evict_frames(session, range(1, 126))
    assert layer.evicted.nbytes == 1000 * 32
    tracemalloc.start()
    try:
        len(layer.evicted)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert len(layer.evicted) == 1000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The view's array headers only: a copy of the log would take 32,000 bytes.
    assert peak - before < 1024


def assert_layer_is(layer, residents, log):
    """Every column of ``layer``, its ``records`` and its ``evicted``
    equal the model: ``residents`` holds one (token_id, birth_step,
    cum_score, protected, key, value) tuple per resident in cache order,
    ``log`` one (token_id, birth_step, exposure, cum_score) tuple per
    evicted token in eviction order."""
    n = len(residents)
    assert layer.n == n and layer.protected_count == sum(r[3] for r in residents)
    for name, values in zip(CACHE_COLUMNS, zip(*residents)):
        assert getattr(layer, name)[:n].tolist() == list(values), name
    assert layer.records.tolist() == [(r[0], r[1], layer.scored_step + 1 - r[1], r[2]) for r in residents]
    assert layer.evicted.tolist() == log


def test_columns_stay_aligned_through_growth():
    # Admission, scoring and eviction by row and by id, mixed, until the
    # columns have doubled twice past their first 64 rows and the log once;
    # after each operation the layer equals a pure-Python model of it.
    session = make_session(heads=1, dim=3)
    layer = session.layers[0]
    rng = np.random.Generator(np.random.PCG64(23))
    residents, log = [], []
    for step in range(60):
        session.step_counter = step
        count = int(rng.integers(1, 13))
        keys, values = rng.normal(size=(2, count, 3))
        protected = rng.random(count) < 0.15
        ids = admit(session, 0, keys, values, protected)
        residents += zip(ids.tolist(), [step] * count, [0.0] * count, protected.tolist(),
                         keys.tolist(), values.tolist())
        assert_layer_is(layer, residents, log)

        scores = rng.random(layer.n)
        layer.cum_score[: layer.n] += scores
        layer.scored_step = step
        residents = [(*r[:2], r[2] + s, *r[3:]) for r, s in zip(residents, scores.tolist())]
        assert_layer_is(layer, residents, log)

        candidates = np.array([i for i, r in enumerate(residents) if not r[3]], dtype=np.int64)
        rows = rng.permutation(candidates)[: int(rng.integers(0, 5))]
        if step % 2:
            assert layer.evict(rows) == len(rows)
        else:
            assert remove(session, 0, [residents[i][0] for i in rows]) == len(rows)
        gone = set(rows.tolist())
        log += [(r[0], r[1], step + 1 - r[1], r[2]) for i, r in enumerate(residents) if i in gone]
        residents = [r for i, r in enumerate(residents) if i not in gone]
        assert_layer_is(layer, residents, log)
    assert len(layer.token_id) >= 4 * 64 and len(layer._log) >= 2 * 64
