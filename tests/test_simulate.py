"""Simulator: kernels, determinism, growth laws, pipeline contracts."""

import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedkv.cache import remove
from boundedkv.config import StreamConfig, config_from_dict
from boundedkv.errors import AdmissionOverflow, BadTemperature, ConfigError
from boundedkv.oracle import baseline_run, compare_runs
from boundedkv import simulate
from boundedkv.simulate import (
    StreamSimulator,
    _multihead_attention,
    _rms_rows,
    _softmax_rows_f64,
    anchor_direction,
    frame_protection,
    generate_frame,
    run_stream,
    sharpness_profile,
)
from boundedkv.telemetry import write_trace

from builders import blas_kernel
from refimpl import per_head_attention, slow_attention


def attend(q, k, v, heads, scale_mult):
    """``_multihead_attention`` into a fresh maps buffer of its own."""
    return _multihead_attention(q, k, v, heads, scale_mult, np.empty((heads, len(q), len(k))))


SMALL = dict(layers=2, heads=2, dim=16, tokens_per_frame=4, registers=0, frames=6, seed=13)


def output_digest(run) -> str:
    h = hashlib.sha256()
    for out in run.outputs:
        h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_generate_frame_deterministic():
    cfg = StreamConfig(**SMALL)
    a = generate_frame(cfg, 3)
    b = generate_frame(cfg, 3)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.landmark_mask, b.landmark_mask)
    c = generate_frame(cfg, 4)
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_frame_layout():
    cfg = StreamConfig(layers=2, tokens_per_frame=8, registers=2, frames=2)
    frame = generate_frame(cfg, 0)
    # Camera, two registers, then five patches: all of frame 0 is
    # protected, and the camera and registers of every later frame.
    assert frame_protection(cfg, 0).tolist() == [True] * 8
    assert frame_protection(cfg, 1).tolist() == [True] * 3 + [False] * 5
    assert frame.landmark_mask[:3].sum() == 0  # mask covers patches only
    assert frame.embeddings.shape == (8, cfg.dim)
    # One landmark of five patches in every frame, never on the camera or a register.
    masks = np.array([generate_frame(cfg, t).landmark_mask for t in range(16)])
    assert not masks[:, :3].any()
    assert masks.sum(axis=1).tolist() == [1] * 16


def test_zero_gain_masks_have_no_effect():
    cfg = StreamConfig(**SMALL, landmark_gain=0.0)
    bare = replace(cfg, landmark_frac=0.0)
    with_mask = generate_frame(cfg, 2)
    without = generate_frame(bare, 2)
    assert np.array_equal(with_mask.embeddings, without.embeddings)


def test_attention_rows_sum_to_one():
    cfg = StreamConfig(**SMALL, keep_maps=True)
    run = run_stream(cfg)
    for rec in run.records:
        rows = rec.maps.sum(axis=2)
        assert np.max(np.abs(rows - 1.0)) <= 1e-6


def test_kernel_matches_slow_reference():
    cfg = StreamConfig(layers=1, heads=2, dim=8, tokens_per_frame=3, registers=0,
                       frames=3, seed=5, keep_maps=True)
    sim = StreamSimulator(cfg)
    for t in range(3):
        frame = generate_frame(cfg, t)
        _, report = sim.step(frame)
    z = frame.embeddings.astype(sim.dtype)
    # The frame-wise stage attends the frame to itself (q is k).
    zin = _rms_rows(z)
    d = cfg.dim
    q, v = zin @ sim.fw_qv[:, :d], zin @ sim.fw_qv[:, d:]
    ctx, maps = attend(q, q, v, 2, 1.0)
    slow_ctx, slow_maps = slow_attention(q, q, v, heads=2, scale_mult=1.0)
    assert np.max(np.abs(slow_ctx - ctx)) <= 1e-12
    assert np.max(np.abs(slow_maps - maps)) <= 1e-12
    # Global layer 0: its queries project the frame-wise stage's output
    # and attend every resident key.
    layer = sim.session.layers[0]
    keys = layer.keys_matrix()
    values = layer.values_matrix()
    q = _rms_rows(sim._framewise(z)) @ sim.w_qkv[0][:, :d]
    ctx, maps = attend(q, keys, values, 2, sim.sharpness[0])
    assert np.array_equal(maps, report.layers[0].maps)
    slow_ctx, slow_maps = slow_attention(q, keys, values, heads=2, scale_mult=sim.sharpness[0])
    assert np.max(np.abs(slow_ctx - ctx)) <= 1e-12
    assert np.max(np.abs(slow_maps - maps)) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [8, 32, 64, 128])
@pytest.mark.parametrize("m", [1, 4, 32])
def test_fused_projection_equals_separate_products(dtype, d, m):
    # A layer projects q/k/v with one product against the (d, 3d) block
    # matrix, the frame-wise stage q/v against a (d, 2d) one. Each column
    # slice must equal the separate product, and attention over a sliced
    # (strided) q must equal attention over a contiguous copy.
    rng = np.random.default_rng([d, m])
    z = rng.standard_normal((m, d)).astype(dtype)
    w = [rng.standard_normal((d, d)).astype(dtype) for _ in range(3)]
    for blocks in (2, 3):
        fused = z @ np.concatenate(w[:blocks], axis=1)
        for i in range(blocks):
            assert np.array_equal(fused[:, i * d:(i + 1) * d], z @ w[i])
    q, k = fused[:, :d], fused[:, d:2 * d]
    for a, b in zip(attend(q, k, k, 2, 1.3), attend(z @ w[0], k, k, 2, 1.3)):
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), n=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]), dtype=st.sampled_from([np.float32, np.float64]))
def test_rms_rows_equals_np_mean_form_bit_for_bit(rows, n, seed, scale, dtype):
    z = (np.random.default_rng(seed).standard_normal((rows, n)) * scale).astype(dtype)
    expected = z / np.sqrt(np.mean(z * z, axis=1, keepdims=True) + 1e-12)
    result = _rms_rows(z)
    assert result.dtype == expected.dtype and np.array_equal(result, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n_keys", ["q", 1, 32, 410, 2100])
def test_batched_kernel_equals_per_head_loop(dtype, heads, n_keys):
    rng = np.random.default_rng([heads, 0 if n_keys == "q" else n_keys])
    q = rng.standard_normal((32, 64)).astype(dtype)
    # "q": the frame-wise stage passes q itself as k, and BLAS may take
    # a symmetric path for q @ q.T.
    k = q if n_keys == "q" else rng.standard_normal((n_keys, 64)).astype(dtype)
    v = rng.standard_normal(k.shape).astype(dtype)
    ctx, maps = attend(q, k, v, heads, 1.7)
    ref_ctx, ref_maps = per_head_attention(q, k, v, heads, 1.7)
    assert maps.dtype == ctx.dtype == np.float64
    assert np.array_equal(maps, ref_maps)
    assert np.array_equal(ctx, ref_ctx)
    # Into a view of a larger, dirty scratch buffer, as a stream does.
    scratch = np.full(2 * ref_maps.size + 5, np.nan)
    out = scratch[:ref_maps.size].reshape(ref_maps.shape)
    ctx, maps = _multihead_attention(q, k, v, heads, 1.7, out)
    assert maps is out
    assert np.array_equal(maps, ref_maps)
    assert np.array_equal(ctx, ref_ctx)


def test_run_deterministic_and_matches_the_oracle():
    cfg = StreamConfig(beta=1.0, budget_mode="fixed-horizon")  # default desk config, full budget
    first = run_stream(cfg)
    second = run_stream(cfg)
    assert output_digest(first) == output_digest(second)
    base = baseline_run(cfg)
    div = compare_runs(first, base)
    assert div.overall_max_abs <= 1e-12


def test_run_deterministic_and_golden():
    # Locked once from the reference run above, cross-validated there
    # against the unbounded oracle path. Anchored to the BLAS kernel
    # picked at run time (SkylakeX), not to the build.
    run = run_stream(StreamConfig(beta=1.0, budget_mode="fixed-horizon"))
    assert output_digest(run) == GOLDEN_DIGEST, f"golden output digest under BLAS kernel {blas_kernel()}"


GOLDEN_DIGEST = "a169b2d1cf3f0c03a86b8344c0013e3bd04a23ae248f683d3fb6ce44ccba5303"


def test_trace_bytes_reproducible(tmp_path):
    cfg = StreamConfig(**SMALL, beta=0.5)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_trace(run_stream(cfg), a)
    write_trace(run_stream(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_beta_one_zero_evictions():
    cfg = StreamConfig(**SMALL, beta=1.0)
    run = run_stream(cfg)
    assert sum(len(lr.evicted_ids) for rep in run.reports for lr in rep.layers) == 0


def test_policy_none_unbounded_keeps_every_frame():
    cfg = StreamConfig(**SMALL, policy="none")
    run = run_stream(cfg)
    m = cfg.tokens_per_frame
    for t, report in enumerate(run.reports):
        for layer in range(cfg.layers):
            ids = report.layers[layer].key_ids.tolist()
            assert len(ids) == (t + 1) * m
            assert ids == sorted(ids)


def test_single_frame_never_evicts():
    cfg = StreamConfig(**{**SMALL, "frames": 1}, beta=0.01)
    run = run_stream(cfg)
    assert sum(len(lr.evicted_ids) for rep in run.reports for lr in rep.layers) == 0


def test_empty_stream():
    cfg = StreamConfig(**{**SMALL, "frames": 0})
    run = run_stream(cfg)
    assert run.reports == [] and run.outputs == []


def test_frame_must_arrive_at_its_step():
    cfg = StreamConfig(**SMALL)
    sim = StreamSimulator(cfg)
    with pytest.raises(ValueError, match="frame 1 arrived at step 0"):
        sim.step(generate_frame(cfg, 1))
    sim.step(generate_frame(cfg, 0))
    with pytest.raises(ValueError, match="frame 0 arrived at step 1"):
        sim.step(generate_frame(cfg, 0))


def test_maps_scratch_reallocations_stay_logarithmic():
    # An unbounded stream attends over one more frame of keys each step.
    # The maps scratch grows by doubling, so it is allocated once and then
    # replaced at each doubling of the key count, not at every step.
    cfg = StreamConfig(**{**SMALL, "frames": 64})
    sim = StreamSimulator(cfg)
    replaced = 0
    for t in range(cfg.frames):
        scratch = sim._maps_scratch
        sim.step(generate_frame(cfg, t))
        replaced += sim._maps_scratch is not scratch
    assert replaced <= math.log2(cfg.frames) + 1


def test_multiply_count_follows_occupancy_rule():
    cfg = StreamConfig(**SMALL, beta=0.6)
    run = run_stream(cfg)
    for rep in run.reports:
        for lr in rep.layers:
            assert lr.multiplies == 2 * cfg.tokens_per_frame * lr.occupancy_post * cfg.dim
        assert rep.multiplies_total == sum(lr.multiplies for lr in rep.layers)


def test_unbounded_multiplies_grow_linearly():
    cfg = StreamConfig(**{**SMALL, "frames": 8})
    run = run_stream(cfg)
    counts = [rep.multiplies_total for rep in run.reports]
    per_frame = 2 * cfg.tokens_per_frame * cfg.tokens_per_frame * cfg.dim * cfg.layers
    assert counts == [per_frame * (t + 1) for t in range(8)]


def test_absolute_budget_multiplies_flat_after_warmup():
    cfg = StreamConfig(layers=1, heads=2, dim=16, tokens_per_frame=8, registers=0,
                       frames=30, budget_tokens=120, seed=3)
    run = run_stream(cfg)
    counts = [rep.multiplies_total for rep in run.reports]
    assert counts[-1] == counts[-5]
    assert max(counts) == counts[-1]


def test_admission_overflow_with_none_policy_bounded():
    cfg = StreamConfig(**SMALL, policy="none", budget_tokens=16)
    with pytest.raises(ConfigError):
        StreamSimulator(cfg)


def test_none_policy_budget_boundary():
    full = SMALL["layers"] * SMALL["frames"] * SMALL["tokens_per_frame"]
    with pytest.raises(ConfigError):
        StreamConfig(**SMALL, policy="none", budget_tokens=full - 1).validate()
    StreamConfig(**SMALL, policy="none", budget_tokens=full).validate()
    # Two frames never fault: the protected floor holds frame 0 plus one frame.
    two = StreamConfig(**{**SMALL, "frames": 2}, policy="none", budget_tokens=0)
    two.validate()
    assert len(run_stream(two).outputs) == 2


@pytest.mark.parametrize("field, value", [
    ("tau", float("nan")),
    ("tau", float("inf")),
    ("landmark_gain", float("nan")),
    ("landmark_gain", float("inf")),
    ("sharpness", float("nan")),
    ("sharpness", float("inf")),
    ("sharpness_profile", [2.0, float("nan")]),
    ("sharpness_profile", [float("-inf"), 2.0]),
], ids=["nan_tau", "inf_tau", "nan_landmark_gain", "inf_landmark_gain", "nan_sharpness", "inf_sharpness",
        "nan_profile_entry", "inf_profile_entry"])
def test_non_finite_config_is_rejected(field, value):
    # Each of these passed validate() once and then faulted part-way
    # through the run (BadTemperature, or "sigmas must be finite").
    cfg = StreamConfig(**SMALL, beta=0.5, **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.validate = lambda: None
    with np.errstate(invalid="ignore"), pytest.raises((BadTemperature, ValueError)):
        run_stream(cfg)


@pytest.mark.parametrize("field, value, faults", [
    ("frames", 3.0, True),
    ("layers", 2.0, True),
    ("tokens_per_frame", 4.0, True),
    ("budget_tokens", 12.5, True),
    ("seed", 1.5, True),
    ("beta", "0.5", True),
    ("layers", True, False),
    ("keep_maps", 1, False),
], ids=["float_frames", "float_layers", "float_tokens_per_frame", "float_budget_tokens", "float_seed",
        "string_beta", "bool_layers", "int_keep_maps"])
def test_mistyped_config_is_rejected(field, value, faults):
    # validate() checks each field's type as annotated first: a bool is
    # no int and a float no int. The cases marked to fault once passed
    # validate() (or raised TypeError in it) and then faulted part-way
    # through the run.
    cfg = StreamConfig(**{**SMALL, field: value})
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        cfg.validate()
    if faults:
        cfg.validate = lambda: None
        with pytest.raises(TypeError):
            run_stream(cfg)


@pytest.mark.parametrize("values", [
    dict(seed=-1),
    dict(seed=2**63),
    dict(budget_tokens=2**63),
    dict(beta=0.5, budget_mode="steady-state", ref_frames=2**63),
    dict(beta=1.0, budget_mode="steady-state", ref_frames=2**61),
], ids=["negative_seed", "seed_past_int64", "budget_past_int64", "ref_frames_past_int64", "budget_from_ref_frames"])
def test_config_ints_past_int64_are_rejected(values):
    # A trace carries them as JSON ints of at most 64 bits; a negative
    # seed cannot seed the generators.
    with pytest.raises(ConfigError):
        StreamConfig(**{**SMALL, **values}).validate()


def test_config_from_dict_refuses_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['bogus'\]"):
        config_from_dict({"frames": 3, "bogus": 1})


def test_budget_ceiling_ignores_binary_float_fuzz():
    # 0.05 * 3 * 10 * 8 is 12.000000000000002 in binary floats.
    assert StreamConfig(layers=3, frames=10, tokens_per_frame=8, beta=0.05).total_budget_tokens() == 12


@pytest.mark.parametrize("budget, mode", [
    (dict(beta=0.5), "steady-state"), (dict(budget_tokens=40), None), ({}, None),
], ids=["beta", "budget_tokens", "unbounded"])
def test_budget_metadata_names_a_mode_only_for_beta(budget, mode):
    cfg = StreamConfig(**SMALL, **budget, budget_mode="steady-state")
    assert cfg.budget_metadata()["budget_mode"] == mode


def test_negative_sharpness_profile_entry_is_rejected():
    # Like a negative sharpness, it would invert that layer's logits.
    with pytest.raises(ConfigError, match="sharpness_profile"):
        StreamConfig(**SMALL, sharpness_profile=[1.0, -1.0]).validate()


def test_none_policy_with_budget_below_stream_faults_without_validation():
    # The rule validate() enforces: past two frames, a short budget faults.
    cfg = StreamConfig(**{**SMALL, "frames": 3}, policy="none", budget_tokens=0)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.validate = lambda: None
    with pytest.raises(AdmissionOverflow):
        run_stream(cfg)


def test_none_policy_with_roomy_budget_matches_baseline():
    cfg = StreamConfig(**SMALL, policy="none",
                       budget_tokens=SMALL["layers"] * SMALL["frames"] * SMALL["tokens_per_frame"])
    run = run_stream(cfg)
    base = baseline_run(cfg)
    div = compare_runs(run, base)
    assert div.overall_max_abs <= 1e-12


def test_run_stats_are_the_step_records():
    run = run_stream(StreamConfig(**SMALL, beta=0.4))
    assert len(run.stats) == len(run.reports) == run.config.frames
    for t, report in enumerate(run.reports):
        assert run.stats[t] is report.layers


def test_records_retain_one_float_per_key():
    # The long_stream benchmark shape cut to 48 frames. A kept record
    # holds one int64 id and one float64 column sum per key, and one id
    # and one importance per victim: nothing else, and no view of a
    # larger buffer. The head-mean sums are col_sums_raw / heads and are
    # not kept.
    cfg = StreamConfig(layers=4, heads=2, dim=64, tokens_per_frame=32, registers=0, frames=48,
                       budget_tokens=1024, policy="attention", seed=0)
    run = run_stream(cfg)
    arrays = [value for rec in run.records for value in vars(rec).values() if isinstance(value, np.ndarray)]
    assert all(array.base is None for array in arrays)
    expected = sum(16 * rec.n_keys + 16 * len(rec.evicted_ids) for rec in run.records)
    assert sum(array.nbytes for array in arrays) == expected
    assert sum(len(rec.evicted_ids) for rec in run.records) > 0


def test_kept_maps_own_their_memory():
    # Every attention call writes into the simulator's one maps scratch,
    # so a kept map must be a copy: of neither the scratch nor another record.
    cfg = StreamConfig(**SMALL, beta=0.4, keep_maps=True)
    sim = StreamSimulator(cfg)
    kept = []
    for t in range(cfg.frames):
        _, report = sim.step(generate_frame(cfg, t))
        for rec in report.layers:
            assert not np.shares_memory(rec.maps, sim._maps_scratch)
            kept.append(rec.maps)
    assert len(kept) == cfg.frames * cfg.layers
    for i, a in enumerate(kept):
        assert not np.shares_memory(a, sim._maps_scratch)
        assert not any(np.shares_memory(a, b) for b in kept[i + 1:])


def test_unbounded_records_view_their_layers_id_column():
    # An unbounded layer reserves the stream's frames * tokens_per_frame
    # rows once and only appends, so each record's key ids are a read-only
    # view of that one id column as it was at that step: the records hold
    # each id once, not the sum of every step's occupancy.
    cfg = StreamConfig(**{**SMALL, "frames": 40}, policy="none")
    run = run_stream(cfg)
    for li, layer in enumerate(run.session.layers):
        records = [report.layers[li] for report in run.reports]
        assert all(not rec.key_ids.flags.writeable for rec in records)
        assert len(layer.token_id) == cfg.frames * cfg.tokens_per_frame
        assert all(rec.key_ids.base is layer.token_id for rec in records)
        assert sum(rec.key_ids.nbytes for rec in records) > 2 * layer.token_id.nbytes


def test_bounded_records_own_their_key_ids():
    # A bounded layer compacts almost every step, so a view would pin a
    # whole capacity-sized buffer per record: its records own exactly
    # n_keys ids.
    run = run_stream(StreamConfig(**{**SMALL, "frames": 20}, beta=0.4))
    assert sum(len(rec.evicted_ids) for rec in run.records) > 0
    for rec in run.records:
        assert rec.key_ids.base is None
        assert rec.key_ids.shape == (rec.n_keys,)
        assert not rec.key_ids.flags.writeable


def test_unbounded_records_keep_their_ids_when_a_caller_removes_tokens():
    # remove compacts the layer, and eviction writes the ids into a fresh
    # array, so a record made before the removal still reads its own ids.
    cfg = StreamConfig(**{**SMALL, "frames": 8}, policy="none")
    sim = StreamSimulator(cfg)
    made = []

    def step(t):
        _, report = sim.step(generate_frame(cfg, t))
        made.extend((rec, rec.key_ids.copy()) for rec in report.layers)

    for t in range(4):
        step(t)
    layer = sim.session.layers[0]
    unprotected = layer.token_id[: layer.n][~layer.protected[: layer.n]]
    assert remove(sim.session, 0, unprotected[:2]) == 2
    for t in range(4, cfg.frames):
        step(t)
    assert len(made) == cfg.frames * cfg.layers
    for rec, ids in made:
        assert np.array_equal(rec.key_ids, ids)
    last_layer0_ids = made[-cfg.layers][1]
    assert not np.isin(unprotected[:2], last_layer0_ids).any()


@pytest.mark.parametrize("budget", [dict(beta=0.4), dict(policy="none")])
def test_writing_a_records_key_ids_raises(budget):
    run = run_stream(StreamConfig(**SMALL, **budget))
    for rec in run.records:
        with pytest.raises(ValueError, match="read-only"):
            rec.key_ids[0] = -1


def test_steady_state_step_allocates_less_than_one_maps_stack():
    # Once a bounded stream's cache and maps scratch have settled, a step
    # reuses the scratch: it allocates less than one fresh (H, M, N)
    # float64 stack, where a buffer per attention call takes several.
    cfg = StreamConfig(layers=2, heads=4, dim=16, tokens_per_frame=32, beta=0.2)
    sim = StreamSimulator(cfg)
    for t in range(cfg.frames - 1):
        sim.step(generate_frame(cfg, t))
    frame = generate_frame(cfg, cfg.frames - 1)
    tracemalloc.start()
    try:
        _, report = sim.step(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = cfg.heads * cfg.tokens_per_frame * max(rec.n_keys for rec in report.layers) * 8
    assert peak < stack, f"step peaked at {peak / stack:.2f} maps stacks"


# A stream whose attention blocks outgrow numpy's default ufunc buffer
# from its third step on, so those steps run under the step's own size.
WIDE = dict(layers=2, heads=4, dim=16, tokens_per_frame=32, registers=1, frames=8, keep_maps=True)


@pytest.mark.parametrize("attn_dtype", ["float64", "float32"])
@pytest.mark.parametrize("budget", [dict(beta=0.5), dict(beta=0.5, policy="random"), dict(policy="none")],
                         ids=["attention", "random", "unbounded"])
def test_step_ufunc_buffer_keeps_every_bit(monkeypatch, tmp_path, attn_dtype, budget):
    cfg = StreamConfig(**WIDE, attn_dtype=attn_dtype, **budget)
    shipped = run_stream(cfg)
    monkeypatch.setattr(simulate, "_ROW_BUFSIZE", simulate._NUMPY_BUFSIZE)
    default = run_stream(cfg)
    assert cfg.heads * cfg.tokens_per_frame * max(rec.n_keys for rec in shipped.records) > simulate._NUMPY_BUFSIZE
    assert [out.tobytes() for out in shipped.outputs] == [out.tobytes() for out in default.outputs]
    write_trace(shipped, tmp_path / "shipped.jsonl")
    write_trace(default, tmp_path / "default.jsonl")
    assert (tmp_path / "shipped.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()


@pytest.mark.parametrize("n_keys", [410, simulate._NUMPY_BUFSIZE + 100], ids=["short_rows", "long_rows"])
def test_softmax_bits_do_not_depend_on_the_ufunc_buffer(n_keys):
    logits = 4.0 * np.random.default_rng(5).standard_normal((2, 3, n_keys))
    results = []
    for size in (simulate._NUMPY_BUFSIZE, simulate._ROW_BUFSIZE):
        previous = np.setbufsize(size)
        try:
            results.append(_softmax_rows_f64(logits.copy()).tobytes())
        finally:
            np.setbufsize(previous)
    assert results[0] == results[1]


def test_step_buffer_follows_the_widest_block(monkeypatch):
    # Unbounded, step t attends (4, 32, 32 (t + 1)): blocks of 4,096 and
    # 8,192 elements fit numpy's default buffer, later ones do not.
    cfg = StreamConfig(**WIDE, policy="none")
    callers = np.getbufsize()
    sizes = []

    def rms_rows(z):
        sizes.append(np.getbufsize())
        return _rms_rows(z)

    monkeypatch.setattr(simulate, "_rms_rows", rms_rows)
    run_stream(cfg)
    per_step = [set(sizes[i:i + cfg.layers + 1]) for i in range(0, len(sizes), cfg.layers + 1)]
    assert per_step == [{callers}] * 2 + [{simulate._ROW_BUFSIZE}] * (cfg.frames - 2)


def test_step_restores_the_callers_ufunc_buffer():
    cfg = StreamConfig(**WIDE, beta=0.5)
    sim = StreamSimulator(cfg)
    previous = np.setbufsize(4096)  # the caller's own size, not numpy's default
    try:
        for t in range(4):
            sim.step(generate_frame(cfg, t))
            assert np.getbufsize() == 4096
        # The next step's block outgrows the default buffer, so the
        # frame-index check raises inside the step's buffer scope.
        keys = max(layer.occupancy() for layer in sim.session.layers) + cfg.tokens_per_frame
        assert cfg.heads * cfg.tokens_per_frame * keys > simulate._NUMPY_BUFSIZE
        with pytest.raises(ValueError, match="arrived at step"):
            sim.step(generate_frame(cfg, 5))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(previous)


def test_steady_state_attention_skips_the_default_ufunc_buffer(monkeypatch):
    # At the scale_evict shape, numpy's default buffer adds about 31 KiB
    # to a (4, 32, 410) attention call: the broadcast softmax operand
    # streamed through 8,192 float64 elements. Under the step's
    # row-sized buffer the call allocates only its context, (H, M, d/H)
    # and its (M, d) copy.
    cfg = StreamConfig(layers=1, heads=4, dim=64, tokens_per_frame=32, budget_tokens=410, frames=16)
    sim = StreamSimulator(cfg)
    for t in range(cfg.frames - 1):
        sim.step(generate_frame(cfg, t))
    peaks = {}

    def traced(q, k, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = _multihead_attention(q, k, *args)
        peaks[len(k)] = tracemalloc.get_traced_memory()[1] - before
        return result

    monkeypatch.setattr(simulate, "_multihead_attention", traced)
    tracemalloc.start()
    try:
        sim.step(generate_frame(cfg, cfg.frames - 1))
    finally:
        tracemalloc.stop()
    context = 2 * cfg.tokens_per_frame * cfg.dim * 8
    assert peaks[410] - context < 8 * 1024, f"a (4, 32, 410) call allocated {peaks[410]} B"


# Split attention. A forced split lowers the threshold to one element and
# answers the CPU check yes, so every global-layer call of a small stream
# splits on any host. Each test compares runs made in one process, so
# its equalities hold under any BLAS kernel.


def force_split(mp):
    mp.setattr(simulate, "_SPLIT_ELEMENTS", 1)
    mp.setattr(simulate, "_many_cpus", lambda: True)


def record_heads(mp) -> list[int]:
    """Patch the kernel to log the heads of each call, on any thread."""
    heads_seen = []

    def kernel(q, k, v, heads, scale_mult, out):
        heads_seen.append(heads)
        return _multihead_attention(q, k, v, heads, scale_mult, out)

    mp.setattr(simulate, "_multihead_attention", kernel)
    return heads_seen


def wide_inputs(heads, n_keys):
    """q, k and v of a call with 32 queries and 16 dimensions per head."""
    rng = np.random.default_rng([7, heads, n_keys])
    d = 16 * heads
    return rng.standard_normal((32, d)), rng.standard_normal((n_keys, d)), rng.standard_normal((n_keys, d))


@settings(max_examples=30, deadline=None)
@given(heads=st.sampled_from([2, 3]), head_dim=st.sampled_from([2, 4]), tokens=st.integers(2, 6),
       frames=st.integers(1, 6), attn_dtype=st.sampled_from(["float64", "float32"]),
       budget=st.sampled_from([dict(beta=0.5), dict(policy="none")]), keep_maps=st.booleans(),
       seed=st.integers(0, 2**16))
def test_split_attention_keeps_every_bit(heads, head_dim, tokens, frames, attn_dtype, budget, keep_maps, seed):
    cfg = StreamConfig(layers=2, heads=heads, dim=heads * head_dim, tokens_per_frame=tokens, registers=0,
                       frames=frames, seed=seed, attn_dtype=attn_dtype, keep_maps=keep_maps, **budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_SPLIT_ELEMENTS", math.inf)
        whole = run_stream(cfg)
    with pytest.MonkeyPatch.context() as mp:
        force_split(mp)
        heads_seen = record_heads(mp)
        split = run_stream(cfg)
    # Per step: the frame-wise call whole, then two halves per layer.
    assert heads_seen.count(heads) == frames
    assert len(heads_seen) == frames * (1 + 2 * cfg.layers)
    assert [out.tobytes() for out in split.outputs] == [out.tobytes() for out in whole.outputs]
    assert split.records == whole.records


def test_split_rule_follows_the_heads_and_the_block_size(monkeypatch):
    monkeypatch.setattr(simulate, "_many_cpus", lambda: True)
    seen = []

    def kernel(q, k, v, heads, scale_mult, out):
        seen.append((heads, np.getbufsize()))
        return _multihead_attention(q, k, v, heads, scale_mult, out)

    monkeypatch.setattr(simulate, "_multihead_attention", kernel)
    callers = np.getbufsize()
    at_threshold = simulate._SPLIT_ELEMENTS // (4 * 32)
    assert 4 * 32 * at_threshold == simulate._SPLIT_ELEMENTS
    # The helper's half runs under the row-sized ufunc buffer, whatever
    # the caller's size.
    cases = [
        (4, at_threshold, [(2, callers), (2, simulate._ROW_BUFSIZE)]),
        (4, at_threshold - 1, [(4, callers)]),
        (3, 2 * at_threshold, [(2, callers), (1, simulate._ROW_BUFSIZE)]),
        (1, 8 * at_threshold, [(1, callers)]),
    ]
    for heads, n_keys, calls in cases:
        q, k, v = wide_inputs(heads, n_keys)
        seen.clear()
        ctx, maps = simulate._attention(q, k, v, heads, 1.3, np.empty((heads, len(q), n_keys)))
        ref_ctx, ref_maps = attend(q, k, v, heads, 1.3)
        assert sorted(seen) == sorted(calls), (heads, n_keys)
        assert ctx.tobytes() == ref_ctx.tobytes() and maps.tobytes() == ref_maps.tobytes()


def test_many_cpus_reads_the_affinity_then_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not simulate._many_cpus()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert simulate._many_cpus()
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, many in ((None, False), (1, False), (2, True)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert simulate._many_cpus() is many


def test_no_helper_below_the_threshold_or_on_one_cpu(monkeypatch):
    monkeypatch.setattr(simulate, "_HELPER", None)
    heads_seen = record_heads(monkeypatch)
    cfg = StreamConfig(**SMALL, beta=0.5)
    run_stream(cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simulate, "_SPLIT_ELEMENTS", 1)
    run_stream(cfg)
    assert simulate._HELPER is None
    assert heads_seen == [cfg.heads] * (2 * cfg.frames * (1 + cfg.layers))


@pytest.mark.parametrize("faulty", ["caller", "helper"])
def test_a_fault_in_either_half_propagates_after_the_helper_finishes(monkeypatch, faulty):
    monkeypatch.setattr(simulate, "_many_cpus", lambda: True)
    heads = 4
    q, k, v = wide_inputs(heads, 512)
    caller = threading.current_thread()
    finished = []

    def kernel(q, k, v, heads, scale_mult, out):
        half = "caller" if threading.current_thread() is caller else "helper"
        if half == "helper":
            time.sleep(0.05)  # so that the caller's half ends first
        if half == faulty:
            raise RuntimeError(f"fault in the {half}'s half")
        result = _multihead_attention(q, k, v, heads, scale_mult, out)
        finished.append(half)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_multihead_attention", kernel)
        with pytest.raises(RuntimeError, match=f"fault in the {faulty}'s half"):
            simulate._attention(q, k, v, heads, 1.3, np.empty((heads, len(q), len(k))))
        assert finished == ["helper" if faulty == "caller" else "caller"]
    assert not simulate._HELPER_FREE.locked()
    heads_seen = record_heads(monkeypatch)
    ctx, maps = simulate._attention(q, k, v, heads, 1.3, np.empty((heads, len(q), len(k))))
    ref_ctx, ref_maps = attend(q, k, v, heads, 1.3)
    assert heads_seen == [2, 2]
    assert ctx.tobytes() == ref_ctx.tobytes() and maps.tobytes() == ref_maps.tobytes()


def test_a_helper_that_fails_to_start_leaves_the_helper_free(monkeypatch):
    def no_thread():
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(simulate, "_many_cpus", lambda: True)
    monkeypatch.setattr(simulate, "_HELPER", None)
    monkeypatch.setattr(simulate, "_Helper", no_thread)
    q, k, v = wide_inputs(4, 512)
    with pytest.raises(RuntimeError, match="can't start"):
        simulate._attention(q, k, v, 4, 1.3, np.empty((4, len(q), len(k))))
    assert not simulate._HELPER_FREE.locked()


def test_a_call_that_finds_the_helper_busy_runs_unsplit(monkeypatch):
    force_split(monkeypatch)
    cfg = StreamConfig(**WIDE, beta=0.5)
    expected = output_digest(run_stream(cfg))
    heads_seen = record_heads(monkeypatch)
    digests = []
    # As if another thread's stream held the helper.
    assert simulate._HELPER_FREE.acquire(blocking=False)
    try:
        stream = threading.Thread(target=lambda: digests.append(output_digest(run_stream(cfg))))
        stream.start()
        stream.join(timeout=30)
        waited = stream.is_alive()
    finally:
        simulate._HELPER_FREE.release()
    stream.join(timeout=30)
    assert not waited, "a call waited for the busy helper"
    assert digests == [expected]
    assert heads_seen == [cfg.heads] * (cfg.frames * (1 + cfg.layers))


def test_streams_in_threads_match_sequential_runs(monkeypatch):
    # More streams than this host's two CPUs, switching threads often: one
    # stream at a time holds the helper, the others' calls run unsplit.
    force_split(monkeypatch)
    configs = [StreamConfig(**WIDE, beta=0.5, seed=seed) for seed in (3, 4)] + [
        StreamConfig(**WIDE, policy="none", seed=5)]
    sequential = [output_digest(run_stream(cfg)) for cfg in configs]
    digests = [None] * len(configs)
    start = threading.Barrier(len(configs))

    def stream(i):
        start.wait()
        digests[i] = output_digest(run_stream(configs[i]))

    threads = [threading.Thread(target=stream, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == sequential


def test_split_streams_keep_one_daemon_helper_and_free_their_scratch(monkeypatch):
    force_split(monkeypatch)
    scratches = []
    maps_buffer = StreamSimulator._maps_buffer

    def recorded(self, n_keys):
        out = maps_buffer(self, n_keys)
        scratches.append(weakref.ref(self._maps_scratch))
        return out

    monkeypatch.setattr(StreamSimulator, "_maps_buffer", recorded)
    before = threading.active_count()
    for seed in range(3):
        run_stream(StreamConfig(**WIDE, beta=0.5, seed=seed))
        assert scratches[-1]() is None, "the helper pinned a finished stream's maps scratch"
    assert threading.active_count() <= before + 1
    helpers = [thread for thread in threading.enumerate() if thread.name == simulate._HELPER_NAME]
    assert len(helpers) == 1 and helpers[0].daemon


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no os.fork on this platform")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    force_split(monkeypatch)
    cfg = StreamConfig(**WIDE, beta=0.5)
    expected = output_digest(run_stream(cfg))
    parents = simulate._HELPER
    assert parents is not None

    def child():
        # Only the forking thread survives a fork, so a live helper here
        # is the child's own.
        assert output_digest(run_stream(cfg)) == expected
        assert simulate._HELPER is not parents
        assert [thread.name for thread in threading.enumerate()].count(simulate._HELPER_NAME) == 1

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=30)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


@pytest.mark.parametrize("registers", [0, 2])
@pytest.mark.parametrize("beta", [0.4, None], ids=["bounded", "unbounded"])
def test_token_id_layout_marks_protection(registers, beta):
    # Each (frame, layer) admits one block of M ids in step-then-layer
    # order, so a token's slot in its frame is token_id % M: the layout
    # that verify and A8 restate the protection rule from. Frame t is
    # born at step t, so the birth step is token_id // (layers * M).
    cfg = replace(StreamConfig(**SMALL), registers=registers, beta=beta)
    run = run_stream(cfg)
    m = cfg.tokens_per_frame
    for rec in run.records:
        block = (rec.step * cfg.layers + rec.layer) * m + np.arange(m)
        assert rec.key_ids[-m:].tolist() == block.tolist()
    for lc in run.session.layers:
        rows = lc.records
        assert lc.protected[:lc.n].tolist() == ((rows.birth_step == 0) | (rows.token_id % m <= registers)).tolist()
        for tokens in (rows, lc.evicted):
            assert tokens.birth_step.tolist() == (tokens.token_id // (cfg.layers * m)).tolist()
    assert (sum(len(rec.evicted_ids) for rec in run.records) > 0) == (beta is not None)


def test_report_internal_consistency():
    cfg = StreamConfig(**SMALL, beta=0.4)
    run = run_stream(cfg)
    m = cfg.tokens_per_frame
    for rep in run.reports:
        for lr in rep.layers:
            assert lr.occupancy_post == lr.occupancy_pre - len(lr.evicted_ids) + m
            assert lr.n_keys == lr.occupancy_post
            assert lr.footprint_bytes == lr.n_keys * 2 * cfg.dim * cfg.scalar_bytes


def landmark_percentiles(run, layer):
    """Mean column-sum percentile of landmark columns, pooled over the
    back half of the stream (ranks in a single map are winner-take-all
    noisy in sharpened layers)."""
    from boundedkv.oracle import landmark_token_ids

    planted = landmark_token_ids(run, layer)
    pcts = []
    frames = run.config.frames
    for t in range(frames // 2, frames):
        st = run.reports[t].layers[layer]
        sums = st.col_sums_raw / run.config.heads
        order = np.argsort(-sums)
        rank = {st.key_ids[i]: r for r, i in enumerate(order)}
        pcts += [1.0 - rank[tid] / len(sums) for tid in planted if tid in rank]
    return float(np.mean(pcts))


def test_half_budget_halves_footprint():
    # At steady state the resident total is pinned to the budget, so the
    # final-step footprint is half the unbounded one, within one frame
    # of keys per layer.
    cfg = StreamConfig(layers=4, heads=2, dim=32, tokens_per_frame=16, registers=0,
                       frames=24, seed=7, beta=0.5, budget_mode="fixed-horizon")
    bounded = run_stream(cfg)
    base = baseline_run(cfg)
    final = bounded.reports[-1].footprint_total
    final_base = base.reports[-1].footprint_total
    frame_bytes = cfg.layers * cfg.tokens_per_frame * 2 * cfg.dim * cfg.scalar_bytes
    assert abs(final - 0.5 * final_base) <= frame_bytes


def test_landmark_gain_attracts_attention():
    # Measured on this canonical baseline: strong planted landmarks
    # receive top-decile column sums overall (pooled percentile 0.93
    # here), cleanest in the anchor-coupled dense edge layers (0.97).
    cfg = StreamConfig(frames=12, seed=9, landmark_gain=6.0, landmark_frac=1 / 14,
                       tokens_per_frame=16, registers=1)
    run = baseline_run(cfg)
    per_layer = [landmark_percentiles(run, layer) for layer in range(cfg.layers)]
    assert np.mean(per_layer) >= 0.88
    assert min(per_layer) >= 0.75
    assert per_layer[0] >= 0.93 and per_layer[-1] >= 0.93


def test_zero_gain_landmarks_unremarkable():
    cfg = StreamConfig(frames=12, seed=9, landmark_gain=0.0, landmark_frac=1 / 14,
                       tokens_per_frame=16, registers=1)
    run = baseline_run(cfg)
    for layer in range(cfg.layers):
        assert abs(landmark_percentiles(run, layer) - 0.5) <= 0.2


def test_sharpness_profile_shapes():
    cfg = StreamConfig(layers=4, sharpness=2.0)
    prof = sharpness_profile(cfg)
    assert prof[0] == prof[-1] == min(prof)  # dense edges
    assert max(prof[1:3]) > prof[0] + 1.0    # selective middle
    explicit = StreamConfig(layers=2, sharpness_profile=[1.0, 3.0])
    assert sharpness_profile(explicit) == [1.0, 3.0]
    assert len(sharpness_profile(StreamConfig(layers=1))) == 1


def test_anchor_unit_norm():
    cfg = StreamConfig()
    u = anchor_direction(cfg)
    assert np.linalg.norm(u) == pytest.approx(1.0)
