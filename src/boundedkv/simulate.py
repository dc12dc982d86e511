"""Desk-scale deterministic causal streaming-attention simulator.

Per frame the pipeline is: evict-before-admit maintenance, one
frame-wise self-attention stage, then a stack of global layers that
admit the frame's keys/values into the bounded cache and attend the
frame's queries against every resident key. Column statistics from each
global layer feed the scoring accumulators and the per-step budget
reallocation.

All randomness (embeddings, projection weights, landmark placement, the
random policy's draws) derives from the config seed through tagged seed
sequences, so a (config, seed) pair fully determines the run. Softmax
and score arithmetic run in double width regardless of the configured
compute width.

The synthetic generator plants landmark tokens whose embeddings carry a
session-global anchor direction. Each layer's query and key projections
are independent random matrices except for a rank-1 correction that
maps the anchor to the same (per-head unit) image in both, so the
landmark bias survives projection with a guaranteed sign in every layer
and head; ``landmark_gain = 0`` switches the mechanism off bit-exactly.
A per-layer logit sharpness profile (dense first/last, sharper middle)
gives layers genuinely different attention-concentration statistics, so
sparsity-driven budget allocation has structure to work with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import bootstrap_budgets, reallocate_step
from .cache import CacheSession, admit
from .config import KIND_CAMERA, KIND_PATCH, KIND_REGISTER, StreamConfig
from .eviction import maintain_step, make_policy
from .scoring import AttentionStats, accumulate, layer_sparsity, stats_from_maps

_TAG_FRAME = 11
_TAG_LANDMARK = 12
_TAG_ANCHOR = 13
_TAG_Q = 14
_TAG_V = 15
_TAG_OUT = 16
_TAG_FRAMEWISE = 17
_TAG_K = 19
_TAG_ANCHOR_IMAGE = 20

# Amplitude of the anchor's image under the q/k projections. Sized so a
# landmark_gain of a few units turns into a clear logit margin.
ANCHOR_COUPLING = 2.5

# Fraction of the coupling energy the sharpest layer keeps. The anchor
# couples strongly where attention is dense and flat (first/last
# layers): landmark mass there spreads evenly over the landmark set
# (low column variance, stable ranking). Selective middle layers see
# landmarks barely at all; their column mass concentrates on few
# arbitrary keys (high variance).
ANCHOR_FLOOR = 0.3

# Logit scale of the dense (first/last) layers; middle layers add the
# configured sharpness on top. Below 1 flattens within-set logit
# differences so dense-layer rankings are churn-stable.
DENSE_LOGIT_SCALE = 0.6


@dataclass
class FrameTokens:
    """One synthetic frame: embeddings plus ground-truth landmark mask.

    The mask is generator truth for retention analysis and is never
    visible to eviction policies.
    """

    frame_index: int
    embeddings: np.ndarray
    kinds: list[str]
    landmark_mask: np.ndarray


@dataclass
class LayerReport:
    """Telemetry for one (step, layer) cell."""

    layer: int
    n_keys: int
    occupancy_pre: int
    occupancy_post: int
    protected_count: int
    budget_pre: int | None
    budget_post: int | None
    clamped: bool
    sigma: float
    pi: float | None
    evicted_ids: list[int] = field(default_factory=list)
    evicted_importances: list[float] = field(default_factory=list)
    reason: str | None = None
    multiplies: int = 0
    footprint_bytes: int = 0


@dataclass
class StepReport:
    """Per-step telemetry across all global layers."""

    step: int
    layers: list[LayerReport]
    multiplies_total: int
    footprint_total: int


@dataclass
class RunSummary:
    """Everything a finished stream produced."""

    config: StreamConfig
    budget: dict
    reports: list[StepReport]
    outputs: list[np.ndarray]
    stats: list[list[AttentionStats]]
    maps: list[list[np.ndarray]] | None
    frame_kinds: list[list[str]]
    landmark_masks: list[np.ndarray]
    session: CacheSession


def frame_kind_layout(config: StreamConfig) -> list[str]:
    """Token kinds within a frame: camera, registers, then patches."""
    return [KIND_CAMERA] + [KIND_REGISTER] * config.registers + [KIND_PATCH] * config.patch_tokens


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def anchor_direction(config: StreamConfig) -> np.ndarray:
    v = _rng(config.seed, _TAG_ANCHOR).standard_normal(config.dim)
    return v / np.linalg.norm(v)


def generate_frame(config: StreamConfig, frame_index: int) -> FrameTokens:
    """Deterministic synthetic frame for (config.seed, frame_index).

    All tokens share a unit component along the anchor direction (this
    is what makes queries lean toward it); landmark patches get an extra
    ``landmark_gain`` multiple of the anchor on top.
    """
    m, d = config.tokens_per_frame, config.dim
    kinds = frame_kind_layout(config)
    u = anchor_direction(config)
    emb = _rng(config.seed, _TAG_FRAME, frame_index).standard_normal((m, d))
    emb += u

    mask = np.zeros(m, dtype=bool)
    n_landmarks = int(round(config.landmark_frac * config.patch_tokens))
    if n_landmarks > 0:
        patch_offset = 1 + config.registers
        slots = _rng(config.seed, _TAG_LANDMARK, frame_index).choice(
            config.patch_tokens, size=n_landmarks, replace=False
        )
        mask[patch_offset + np.sort(slots)] = True
        emb[mask] += config.landmark_gain * u
    return FrameTokens(frame_index=frame_index, embeddings=emb, kinds=kinds, landmark_mask=mask)


def sharpness_profile(config: StreamConfig) -> list[float]:
    """Per-layer logit scale: damped at the first/last layer, peaked
    mid-stack (dense edges, selective middle)."""
    if config.sharpness_profile is not None:
        return [float(s) for s in config.sharpness_profile]
    L = config.layers
    if L == 1:
        return [DENSE_LOGIT_SCALE]
    return [
        DENSE_LOGIT_SCALE + config.sharpness * math.sin(math.pi * i / (L - 1)) ** 2
        for i in range(L)
    ]


def _rms_rows(z: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(z * z, axis=1, keepdims=True) + 1e-12)
    return z / scale


def _softmax_rows_f64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _multihead_attention(q, k, v, heads: int, scale_mult: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled-dot attention; returns (context M x d, maps H x M x N in f64)."""
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    head_dim = q.shape[1] // heads
    scale = scale_mult / math.sqrt(head_dim)
    maps = np.empty((heads, q.shape[0], k.shape[0]), dtype=np.float64)
    ctx = np.empty((heads, q.shape[0], head_dim), dtype=np.float64)
    for h in range(heads):
        logits = (qh[h] @ kh[h].T).astype(np.float64) * scale
        maps[h] = _softmax_rows_f64(logits)
        ctx[h] = maps[h] @ vh[h].astype(np.float64)
    merged = ctx.transpose(1, 0, 2).reshape(q.shape[0], q.shape[1])
    return merged, maps


class StreamSimulator:
    """Single-writer pipeline for one stream."""

    def __init__(self, config: StreamConfig):
        config.validate()
        self.config = config
        self.dtype = np.float64 if config.attn_dtype == "float64" else np.float32
        self.session = CacheSession(config=config)
        self.policy = make_policy(config)
        d, seed = config.dim, config.seed
        anchor = anchor_direction(config)
        self.w_q = [
            self._aligned(self._weights(seed, _TAG_Q, i, d), anchor, self._anchor_image(i))
            for i in range(config.layers)
        ]
        self.w_k = [
            self._aligned(self._weights(seed, _TAG_K, i, d), anchor, self._anchor_image(i))
            for i in range(config.layers)
        ]
        self.w_v = [self._weights(seed, _TAG_V, i, d) for i in range(config.layers)]
        self.w_out = [
            self._anchor_free(self._weights(seed, _TAG_OUT, i, d), anchor)
            for i in range(config.layers)
        ]
        self.fw_qk = self._weights(seed, _TAG_FRAMEWISE, 0, d)
        self.fw_v = self._weights(seed, _TAG_FRAMEWISE, 1, d)
        self.fw_out = self._anchor_free(self._weights(seed, _TAG_FRAMEWISE, 2, d), anchor)
        self.sharpness = sharpness_profile(config)
        if not self.session.unbounded:
            bootstrap_budgets(self.session)

    def _weights(self, seed: int, tag: int, index: int, d: int) -> np.ndarray:
        w = _rng(seed, tag, index).standard_normal((d, d)) / math.sqrt(d)
        return w.astype(self.dtype)

    def _anchor_image(self, layer: int) -> np.ndarray:
        """Per-layer target image of the anchor, unit length per head,
        strongest in the densest (least sharp) layers."""
        cfg = self.config
        a = _rng(cfg.seed, _TAG_ANCHOR_IMAGE, layer).standard_normal(cfg.dim)
        heads = a.reshape(cfg.heads, cfg.dim // cfg.heads)
        heads /= np.linalg.norm(heads, axis=1, keepdims=True)
        profile = sharpness_profile(cfg)
        lo, peak = min(profile), max(profile)
        # Flat profile: no layer differentiation, full coupling everywhere.
        denseness = 1.0 if peak <= lo else (peak - profile[layer]) / (peak - lo)
        energy = ANCHOR_FLOOR + (1.0 - ANCHOR_FLOOR) * denseness
        scale = ANCHOR_COUPLING * math.sqrt(energy)
        return scale * heads.reshape(cfg.dim)

    def _aligned(self, w: np.ndarray, anchor: np.ndarray, image: np.ndarray) -> np.ndarray:
        # Rank-1 correction: the anchor maps to the same image under the
        # layer's q and k projections, everything orthogonal stays random.
        return (w + np.outer(anchor, image - anchor @ w)).astype(self.dtype)

    def _anchor_free(self, w: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        # Output mixes write nothing along the anchor, so every token's
        # anchor coefficient is depth-invariant and planted landmark
        # identity survives the whole stack.
        return (w - np.outer(w @ anchor, anchor)).astype(self.dtype)

    def _framewise(self, z: np.ndarray) -> np.ndarray:
        zin = _rms_rows(z)
        q = zin @ self.fw_qk
        v = zin @ self.fw_v
        ctx, _ = _multihead_attention(q, q, v, self.config.heads, 1.0)
        return z + ctx.astype(self.dtype) @ self.fw_out

    def step(self, frame: FrameTokens) -> tuple[np.ndarray, StepReport]:
        """Process one frame; returns its output embeddings and telemetry.

        The step's per-layer column statistics (and full maps when
        ``keep_maps`` is set) are left on ``last_stats`` / ``last_maps``.
        """
        cfg = self.config
        session = self.session
        t = session.step_counter
        if frame.frame_index != t:
            raise ValueError(f"frame {frame.frame_index} arrived at step {t}")

        budgets_pre = [layer.budget for layer in session.layers]
        occupancy_pre = [layer.occupancy() for layer in session.layers]
        clamped = [
            layer.budget is not None
            and layer.protected_count + cfg.tokens_per_frame > layer.budget
            for layer in session.layers
        ]
        plans = {p.layer_index: p for p in maintain_step(session, self.policy)}

        z = frame.embeddings.astype(self.dtype)
        z = self._framewise(z)

        sigmas: list[float] = []
        step_stats: list[AttentionStats] = []
        step_maps: list[np.ndarray] = []
        layer_reports: list[LayerReport] = []
        queries: list[np.ndarray] = []
        for li, layer in enumerate(session.layers):
            zin = _rms_rows(z)
            q = zin @ self.w_q[li]
            k = zin @ self.w_k[li]
            v = zin @ self.w_v[li]
            queries.append(q)
            ids = session.issue_token_ids(cfg.tokens_per_frame)
            admit(session, li, ids, k, v, frame.frame_index, frame.kinds)

            keys = layer.keys_matrix(self.dtype)
            values = layer.values_matrix(self.dtype)
            ctx, maps = _multihead_attention(q, keys, values, cfg.heads, self.sharpness[li])
            z = z + ctx.astype(self.dtype) @ self.w_out[li]

            stats = stats_from_maps(t, li, maps, layer.token_ids())
            accumulate(layer, stats)
            sigmas.append(layer_sparsity(stats))
            step_stats.append(stats)
            if cfg.keep_maps:
                step_maps.append(maps)

            n_keys = layer.occupancy()
            plan = plans.get(li)
            layer_reports.append(
                LayerReport(
                    layer=li,
                    n_keys=n_keys,
                    occupancy_pre=occupancy_pre[li],
                    occupancy_post=n_keys,
                    protected_count=layer.protected_count,
                    budget_pre=budgets_pre[li],
                    budget_post=None,
                    clamped=clamped[li],
                    sigma=sigmas[li],
                    pi=None,
                    evicted_ids=list(plan.victim_ids) if plan else [],
                    evicted_importances=list(plan.importances_at_eviction) if plan else [],
                    reason=plan.reason if plan else None,
                    multiplies=2 * cfg.tokens_per_frame * n_keys * cfg.dim,
                    footprint_bytes=n_keys * 2 * cfg.dim * cfg.scalar_bytes,
                )
            )

        allocation = reallocate_step(session, sigmas)
        if allocation is not None:
            for report, budget, share in zip(layer_reports, allocation.budgets, allocation.shares):
                report.budget_post = budget
                report.pi = share

        session.step_counter += 1
        self.last_stats = step_stats
        self.last_maps = step_maps if cfg.keep_maps else None
        self.last_queries = queries
        report = StepReport(
            step=t,
            layers=layer_reports,
            multiplies_total=sum(r.multiplies for r in layer_reports),
            footprint_total=sum(r.footprint_bytes for r in layer_reports),
        )
        return z, report


def run_stream(config: StreamConfig) -> RunSummary:
    """Generate and process every frame of the configured stream."""
    sim = StreamSimulator(config)
    reports: list[StepReport] = []
    outputs: list[np.ndarray] = []
    all_stats: list[list[AttentionStats]] = []
    all_maps: list[list[np.ndarray]] = []
    frame_kinds: list[list[str]] = []
    masks: list[np.ndarray] = []
    for t in range(config.frames):
        frame = generate_frame(config, t)
        out, report = sim.step(frame)
        reports.append(report)
        outputs.append(out)
        all_stats.append(sim.last_stats)
        frame_kinds.append(list(frame.kinds))
        masks.append(frame.landmark_mask.copy())
        if config.keep_maps:
            all_maps.append(sim.last_maps)
    return RunSummary(
        config=config,
        budget=config.budget_metadata(),
        reports=reports,
        outputs=outputs,
        stats=all_stats,
        maps=all_maps if config.keep_maps else None,
        frame_kinds=frame_kinds,
        landmark_masks=masks,
        session=sim.session,
    )
