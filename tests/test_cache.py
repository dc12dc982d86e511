"""Cache substrate: admission, removal, occupancy, footprint."""

import numpy as np
import pytest

from boundedkv.cache import CacheSession, admit, footprint_bytes, occupancy, remove
from boundedkv.config import StreamConfig
from boundedkv.errors import AdmissionOverflow, ProtectedEviction, UnknownLayer, UnknownToken


def admit_tokens(session, layer, frame_index, count=1, kinds=None, ids=None):
    """Admit ``count`` zero-key tokens of one frame; returns their ids."""
    kinds = kinds or ["patch"] * count
    ids = list(session.issue_token_ids(len(kinds)) if ids is None else ids)
    zeros = np.zeros((len(ids), session.config.dim))
    admit(session, layer, ids, zeros, zeros, frame_index, kinds)
    return ids


def make_session(**kwargs) -> CacheSession:
    cfg = StreamConfig(**kwargs)
    cfg.validate()
    return CacheSession(config=cfg)


def test_admit_to_empty_layer():
    session = make_session(tokens_per_frame=8)
    admit_tokens(session, 0, 0, 3)
    assert occupancy(session, 0) == 3
    assert all(r.exposure == 1 for r in session.layers[0].records)
    assert all(r.birth_step == 0 for r in session.layers[0].records)


def test_unbounded_growth_is_frames_times_tokens():
    session = make_session(tokens_per_frame=5, registers=0, frames=10)
    for t in range(10):
        admit_tokens(session, 0, t, 5)
        session.step_counter += 1
    assert occupancy(session, 0) == 50


def test_bounded_admit_without_evict_overflows():
    session = make_session(tokens_per_frame=2, registers=0, budget_tokens=8, frames=4)
    session.layers[0].budget = 2
    admit_tokens(session, 0, 5, 2)  # frame 5: unprotected
    with pytest.raises(AdmissionOverflow):
        admit_tokens(session, 0, 6, 2)


def test_protected_floor_lifts_effective_budget():
    session = make_session(tokens_per_frame=2, registers=0, budget_tokens=8, frames=4)
    session.layers[0].budget = 2
    # Frame-0 tokens are protected and lift the floor to protected + M.
    admit_tokens(session, 0, 0, 2)
    admit_tokens(session, 0, 1, 2)
    assert occupancy(session, 0) == 4
    assert session.layers[0].effective_budget(2) == 4


def test_remove_preserves_survivor_order():
    session = make_session()
    ids = admit_tokens(session, 0, 3, 10)
    doomed = [ids[1], ids[4], ids[7]]
    assert remove(session, 0, doomed) == 3
    assert occupancy(session, 0) == 7
    survivors = [r.token_id for r in session.layers[0].records]
    expected = [tid for tid in ids if tid not in doomed]
    assert survivors == expected


def test_remove_frame0_token_is_protected():
    session = make_session()
    first = admit_tokens(session, 0, 0)
    admit_tokens(session, 0, 1)
    with pytest.raises(ProtectedEviction):
        remove(session, 0, first)


@pytest.mark.parametrize("kind", ["camera", "register"])
def test_camera_and_register_always_protected(kind):
    session = make_session()
    ids = admit_tokens(session, 0, 9, kinds=[kind])
    assert session.layers[0].records[0].protected
    with pytest.raises(ProtectedEviction):
        remove(session, 0, ids)


def test_remove_unknown_token():
    session = make_session()
    admit_tokens(session, 0, 1)
    with pytest.raises(UnknownToken):
        remove(session, 0, [123456])


def test_footprint_direct_product():
    # 4 frames x 6 tokens x 2 layers x 2*8 scalars x 4 bytes = 3072
    session = make_session(layers=2, heads=2, dim=8, tokens_per_frame=6, registers=0, frames=4)
    for t in range(4):
        for layer in range(2):
            admit_tokens(session, layer, t, 6)
        session.step_counter += 1
    assert footprint_bytes(session, 4) == 3072


def test_footprint_empty_session():
    session = make_session()
    assert footprint_bytes(session, 4) == 0


def test_token_ids_unique_across_layers_and_steps():
    session = make_session(layers=3)
    seen = set()
    for t in range(4):
        for layer in range(3):
            for tid in admit_tokens(session, layer, t, 4):
                assert tid not in seen
                seen.add(tid)
        session.step_counter += 1
    assert len(seen) == 4 * 3 * 4


def test_duplicate_token_id_rejected():
    session = make_session()
    ids = admit_tokens(session, 0, 2)
    with pytest.raises(ValueError):
        admit_tokens(session, 0, 2, ids=ids)


def test_protected_count_tracks_admissions():
    session = make_session(registers=2)
    admit_tokens(session, 0, 0)                                        # protected: frame 0
    admit_tokens(session, 0, 1, kinds=["camera", "register", "patch"])  # camera, register protected
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
    session.step_counter = 3
    assert remove(session, 0, [ids[2], ids[0], ids[2]]) == 2
    layer = session.layers[0]
    assert [r.token_id for r in layer.records] == [ids[1], ids[3]]
    assert [(r.token_id, r.eviction_step) for r in layer.evicted] == [(ids[0], 3), (ids[2], 3)]
    assert len(layer.evicted) == 2
