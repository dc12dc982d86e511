"""Stream-level properties over edge cases, and eviction-log memory."""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundedkv.config import StreamConfig
from boundedkv.simulate import StreamSimulator, generate_frame, run_stream

from refimpl import cumulative_scores


def budget_kwargs(kind, value, ref_frames):
    if kind == "tokens":
        return dict(budget_tokens=value)
    beta = max(value, 1) / 100
    if kind == "beta":
        return dict(beta=beta)
    return dict(beta=beta, budget_mode="steady-state", ref_frames=ref_frames)


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.sampled_from([1, 2]),
    patches=st.integers(1, 3),
    registers=st.integers(0, 1),
    frames=st.integers(0, 7),
    budget=st.sampled_from(["tokens", "beta", "steady"]),
    value=st.integers(0, 100),
    ref_frames=st.integers(1, 20),
    attn_dtype=st.sampled_from(["float64", "float32"]),
    policy=st.sampled_from(["attention", "random"]),
    seed=st.integers(0, 2**16),
)
@example(layers=2, heads=2, patches=2, registers=1, frames=0, budget="beta", value=30,
         ref_frames=1, attn_dtype="float64", policy="attention", seed=1)          # zero frames
@example(layers=2, heads=1, patches=3, registers=1, frames=6, budget="tokens", value=0,
         ref_frames=1, attn_dtype="float64", policy="attention", seed=2)          # zero budget
@example(layers=2, heads=2, patches=3, registers=0, frames=7, budget="beta", value=25,
         ref_frames=1, attn_dtype="float32", policy="attention", seed=3)          # float32
@example(layers=2, heads=2, patches=2, registers=0, frames=5, budget="steady", value=50,
         ref_frames=20, attn_dtype="float64", policy="attention", seed=4)         # ref past horizon
@example(layers=1, heads=2, patches=3, registers=0, frames=7, budget="tokens", value=3,
         ref_frames=1, attn_dtype="float64", policy="random", seed=5)             # clamped floor
def test_stream_properties(layers, heads, patches, registers, frames, budget, value,
                           ref_frames, attn_dtype, policy, seed):
    m = 1 + registers + patches
    cfg = StreamConfig(layers=layers, heads=heads, dim=4 * heads, tokens_per_frame=m,
                       registers=registers, frames=frames, attn_dtype=attn_dtype,
                       policy=policy, seed=seed, keep_maps=True,
                       **budget_kwargs(budget, value, ref_frames))
    run = run_stream(cfg)

    for layer in range(layers):
        lc = run.session.layers[layer]
        # Scores and exposures of every token ever admitted match the
        # pure-Python recomputation from the logged maps.
        expected = cumulative_scores(
            (step_stats[layer].key_ids, step_maps[layer])
            for step_stats, step_maps in zip(run.stats, run.maps)
        )
        rows = list(lc.records) + list(lc.evicted)
        assert sorted(r.token_id for r in rows) == sorted(expected)
        for row in rows:
            ref_score, ref_exposure = expected[row.token_id]
            assert row.exposure == ref_exposure
            assert abs(row.cum_score - ref_score) <= 1e-9 * max(abs(ref_score), 1e-300)

        # Survivors keep admission order: each step's keys are the last
        # step's keys minus this step's victims, then the new frame.
        previous = []
        for step_stats, report in zip(run.stats, run.reports):
            ids = step_stats[layer].key_ids
            cell = report.layers[layer]
            victims = set(cell.evicted_ids)
            assert len(victims) == len(cell.evicted_ids) and victims <= set(previous)
            survivors = [tid for tid in previous if tid not in victims]
            assert ids[: len(survivors)] == survivors and len(ids) == len(survivors) + m
            if policy == "attention":
                assert cell.evicted_importances == sorted(cell.evicted_importances)
            assert cell.occupancy_post <= max(cell.budget_pre, cell.protected_count + m)
            previous = ids
        assert [r.token_id for r in lc.records] == previous


def held_bytes(frames):
    """Traced bytes held after stepping a fixed-budget stream, and the
    number of tokens it evicted; outputs are discarded as they come."""
    cfg = StreamConfig(layers=4, dim=64, tokens_per_frame=32, registers=0,
                       frames=frames, budget_tokens=1024)
    tracemalloc.start()
    try:
        sim = StreamSimulator(cfg)
        for t in range(frames):
            sim.step(generate_frame(cfg, t))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, sum(len(layer.evicted) for layer in sim.session.layers)


def test_eviction_log_memory_per_evicted_token():
    held_bytes(50)  # warm-up: first-use allocations land outside the comparison
    short_bytes, short_evicted = held_bytes(100)
    long_bytes, long_evicted = held_bytes(400)
    assert long_evicted > short_evicted
    per_token = (long_bytes - short_bytes) / (long_evicted - short_evicted)
    assert per_token < 256, f"{per_token:.0f} B held per extra evicted token"
