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

A global-layer attention call splits its heads in two when it has at
least two heads, its (heads, tokens_per_frame, keys) maps block has at
least ``_SPLIT_ELEMENTS`` elements, and the process may run on more than
one CPU. The calling thread attends the first half of the heads and one
daemon helper thread per process, started on the first such call, the
second half. Each half is the same batched kernel over column slices of
the same q, k and v and over its own heads' block of the maps buffer:
the same products and the same row softmax over the same memory and
strides, so the maps and the joined context keep every bit of the
unsplit call. The helper serves one call at a time; a call that finds
it busy with another thread's stream runs unsplit on its caller's
thread. A forked child forgets the parent's helper and starts its own
when it needs one.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .allocation import bootstrap_budgets, reallocate_step
from .cache import CacheSession, admit
from .config import StreamConfig
from .eviction import maintain_step, make_policy
from .scoring import accumulate, layer_sparsity, stats_from_maps
from .telemetry import TraceRecord

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

# numpy streams a ufunc operand that needs buffering, such as the
# softmax's broadcast row max and row sum, through an iterator buffer of
# np.getbufsize() elements, _NUMPY_BUFSIZE by default. Rows shorter than
# the buffer are copied through it, and filling and draining it is most
# of the time of the broadcast -= and /=. Under a buffer no longer than a
# row, numpy loops over each row in place, with the same bits. A small
# buffer slows numpy's reductions on short rows, so only a step whose
# largest (heads, tokens_per_frame, keys) block outgrows the default
# buffer runs under _ROW_BUFSIZE. numpy < 2 takes only multiples of 16.
_ROW_BUFSIZE = 16
_NUMPY_BUFSIZE = 8192

# A global-layer attention call whose (heads, tokens_per_frame, keys)
# block has at least this many elements splits its heads with the
# helper thread (see _attention). Below it, waking the helper costs more
# than its half saves.
_SPLIT_ELEMENTS = 32768


@dataclass
class FrameTokens:
    """One synthetic frame: embeddings plus ground-truth landmark mask.

    The mask is generator truth for retention analysis and is never
    visible to eviction policies.
    """

    frame_index: int
    embeddings: np.ndarray
    landmark_mask: np.ndarray


@dataclass
class StepReport:
    """Per-step telemetry across all global layers."""

    step: int
    layers: list[TraceRecord]
    multiplies_total: int
    footprint_total: int


@dataclass
class RunSummary:
    """Everything a finished stream produced.

    ``stats[t]`` is the same list object as ``reports[t].layers``, not a
    copy; the field stays for callers that build a run with
    ``dataclasses.replace(run, reports=..., stats=...)``.
    """

    config: StreamConfig
    budget: dict
    reports: list[StepReport]
    outputs: list[np.ndarray]
    stats: list[list[TraceRecord]]
    landmark_masks: list[np.ndarray]
    session: CacheSession

    @property
    def records(self) -> list[TraceRecord]:
        """Every (step, layer) record, in step then layer order."""
        return [rec for report in self.reports for rec in report.layers]


def frame_protection(config: StreamConfig, frame_index: int) -> np.ndarray:
    """Which of a frame's tokens eviction may never remove, as a bool mask.

    A frame is its camera token, then ``registers`` register tokens, then
    patches. The paper never evicts the first frame, nor any frame's
    camera and register tokens: every token of frame 0 is protected, and
    of each later frame the leading ``1 + registers`` slots.
    """
    if frame_index == 0:
        return np.ones(config.tokens_per_frame, dtype=bool)
    return np.arange(config.tokens_per_frame) <= config.registers


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def anchor_direction(config: StreamConfig) -> np.ndarray:
    """Unit anchor direction of the config's seed; cached, so read-only."""
    return _anchor(config.seed, config.dim)


@functools.lru_cache(maxsize=16)
def _anchor(seed: int, dim: int) -> np.ndarray:
    v = _rng(seed, _TAG_ANCHOR).standard_normal(dim)
    u = v / np.linalg.norm(v)
    u.flags.writeable = False
    return u


def generate_frame(config: StreamConfig, frame_index: int) -> FrameTokens:
    """Deterministic synthetic frame for (config.seed, frame_index).

    All tokens share a unit component along the anchor direction (this
    is what makes queries lean toward it); landmark patches get an extra
    ``landmark_gain`` multiple of the anchor on top.
    """
    m, d = config.tokens_per_frame, config.dim
    u = anchor_direction(config)
    emb = _rng(config.seed, _TAG_FRAME, frame_index).standard_normal((m, d))
    emb += u

    mask = np.zeros(m, dtype=bool)
    n_landmarks = int(round(config.landmark_frac * config.patch_tokens))
    patch_offset = 1 + config.registers
    slots = _rng(config.seed, _TAG_LANDMARK, frame_index).choice(
        config.patch_tokens, size=n_landmarks, replace=False
    )
    mask[patch_offset + np.sort(slots)] = True
    emb[mask] += config.landmark_gain * u
    return FrameTokens(frame_index=frame_index, embeddings=emb, landmark_mask=mask)


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
    # np.mean(z * z, axis=1, keepdims=True) in its own operation order
    # (row sums, then one division), without its dispatch.
    scale = np.add.reduce(z * z, axis=1, keepdims=True)
    scale /= z.shape[1]
    scale += 1e-12
    return z / np.sqrt(scale, out=scale)


def _softmax_rows_f64(logits: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, in place: ``logits`` is a float64
    buffer the caller owns, overwritten with the result and returned."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _multihead_attention(q, k, v, heads: int, scale_mult: float,
                         out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled-dot attention; returns (context M x d, maps H x M x N in f64).

    One batched matmul per product covers every head; the logits land in
    ``out``, a float64 (H, M, N) buffer, upcast from the compute dtype
    before scaling, and the softmax overwrites them there.
    The returned maps are ``out`` itself, valid until it is next written."""
    qh = _split_heads(q, heads)
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    logits = np.matmul(qh, kh.transpose(0, 2, 1), out=out)
    logits *= scale_mult / math.sqrt(q.shape[1] // heads)
    maps = _softmax_rows_f64(logits)
    ctx = np.matmul(maps, vh.astype(np.float64, copy=False))
    return ctx.transpose(1, 0, 2).reshape(q.shape), maps


def _many_cpus() -> bool:
    """Whether this process may run on more than one CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Job:
    """The helper's half of one split call: its context or its error, and
    a completion of its own."""

    __slots__ = ("done", "context", "error")

    def __init__(self):
        self.done = threading.Event()
        self.context = None
        self.error = None


class _Helper:
    """The daemon thread that attends a split call's second half of the heads.

    It serves one job at a time: the caller takes _HELPER_FREE without
    blocking before it hands a job over, and the helper releases it once
    the job is finished."""

    def __init__(self):
        self._wake = threading.Semaphore(0)
        self._slot = None
        threading.Thread(target=self._serve, name=_HELPER_NAME, daemon=True).start()

    def hand_over(self, job: _Job, args: tuple) -> None:
        self._slot = job, args
        self._wake.release()

    def _serve(self) -> None:
        # numpy's ufunc buffer size is per thread; every split call runs
        # inside a step that is scoped to _ROW_BUFSIZE.
        np.setbufsize(_ROW_BUFSIZE)
        while True:
            self._wake.acquire()
            (job, args), self._slot = self._slot, None
            try:
                job.context = _multihead_attention(*args)[0]
            except BaseException as error:
                job.error = error
            # Hold nothing of the job while idle: a view of its maps would
            # pin the caller's maps scratch past the end of its stream.
            done = job.done
            del job, args
            _HELPER_FREE.release()
            done.set()


def _drop_helper() -> None:
    """In a forked child, which has no copy of the parent's helper thread."""
    global _HELPER, _HELPER_FREE
    _HELPER, _HELPER_FREE = None, threading.Lock()


_HELPER_NAME = "boundedkv-attention"
_HELPER: _Helper | None = None
_HELPER_FREE = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _attention(q, k, v, heads: int, scale_mult: float,
               out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_multihead_attention``, with the same bits, its heads split between
    this thread and the helper when the call is wide enough and the helper
    is free (see the module docstring)."""
    global _HELPER
    if heads < 2 or out.size < _SPLIT_ELEMENTS or not _many_cpus() or not _HELPER_FREE.acquire(blocking=False):
        return _multihead_attention(q, k, v, heads, scale_mult, out)
    h = (heads + 1) // 2
    c = h * (q.shape[1] // heads)
    job = _Job()
    try:
        if _HELPER is None:
            _HELPER = _Helper()
        _HELPER.hand_over(job, (q[:, c:], k[:, c:], v[:, c:], heads - h, scale_mult, out[h:]))
    except BaseException:
        _HELPER_FREE.release()
        raise
    try:
        context, _ = _multihead_attention(q[:, :c], k[:, :c], v[:, :c], h, scale_mult, out[:h])
    finally:
        job.done.wait()
    if job.error is not None:
        raise job.error
    return np.concatenate((context, job.context), axis=1), out


class StreamSimulator:
    """Single-writer pipeline for one stream."""

    def __init__(self, config: StreamConfig):
        config.validate()
        self.config = config
        self.dtype = np.dtype(config.attn_dtype)
        self.session = CacheSession(config=config)
        self.policy = make_policy(config)
        # Frame 0's protection mask, then every later frame's.
        self.protection = (frame_protection(config, 0), frame_protection(config, 1))
        d, seed = config.dim, config.seed
        anchor = anchor_direction(config)
        self.sharpness = sharpness_profile(config)
        # Each layer's q/k/v projections are the column blocks of one
        # (d, 3d) matrix, so one matmul projects all three. The frame-wise
        # stage does the same for q/v.
        self.w_qkv = []
        for i in range(config.layers):
            image = self._anchor_image(i)
            self.w_qkv.append(np.concatenate([
                self._aligned(self._weights(seed, _TAG_Q, i, d), anchor, image),
                self._aligned(self._weights(seed, _TAG_K, i, d), anchor, image),
                self._weights(seed, _TAG_V, i, d),
            ], axis=1))
        self.w_out = [
            self._anchor_free(self._weights(seed, _TAG_OUT, i, d), anchor)
            for i in range(config.layers)
        ]
        self.fw_qv = np.concatenate([self._weights(seed, _TAG_FRAMEWISE, 0, d),
                                     self._weights(seed, _TAG_FRAMEWISE, 1, d)], axis=1)
        self.fw_out = self._anchor_free(self._weights(seed, _TAG_FRAMEWISE, 2, d), anchor)
        # Every attention call of the stream writes its maps here; grown by
        # doubling, so a bounded stream settles at its largest (H, M, N).
        self._maps_scratch = np.empty(0, dtype=np.float64)
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
        profile = self.sharpness
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

    def _maps_buffer(self, n_keys: int) -> np.ndarray:
        """A (heads, tokens_per_frame, n_keys) view of the maps scratch."""
        cfg = self.config
        size = cfg.heads * cfg.tokens_per_frame * n_keys
        if size > self._maps_scratch.size:
            self._maps_scratch = np.empty(max(size, 2 * self._maps_scratch.size), dtype=np.float64)
        return self._maps_scratch[:size].reshape(cfg.heads, cfg.tokens_per_frame, n_keys)

    def _framewise(self, z: np.ndarray) -> np.ndarray:
        d = self.config.dim
        qv = _rms_rows(z) @ self.fw_qv
        q = qv[:, :d]
        ctx, _ = _multihead_attention(q, q, qv[:, d:], self.config.heads, 1.0,
                                      self._maps_buffer(len(q)))
        return z + ctx.astype(self.dtype, copy=False) @ self.fw_out

    def step(self, frame: FrameTokens) -> tuple[np.ndarray, StepReport]:
        """Process one frame; returns its output embeddings and telemetry.

        The caller's ufunc buffer size comes back on return and on an
        exception alike."""
        cfg = self.config
        keys = max(layer.occupancy() for layer in self.session.layers) + cfg.tokens_per_frame
        if cfg.heads * cfg.tokens_per_frame * keys <= _NUMPY_BUFSIZE:
            return self._advance(frame)
        previous = np.setbufsize(_ROW_BUFSIZE)
        try:
            return self._advance(frame)
        finally:
            np.setbufsize(previous)

    def _advance(self, frame: FrameTokens) -> tuple[np.ndarray, StepReport]:
        cfg = self.config
        session = self.session
        t = session.step_counter
        if frame.frame_index != t:
            raise ValueError(f"frame {frame.frame_index} arrived at step {t}")

        budgets_pre = [layer.budget for layer in session.layers]
        occupancy_pre = [layer.occupancy() for layer in session.layers]
        clamped = [layer.effective_budget(cfg.tokens_per_frame) != layer.budget for layer in session.layers]
        plans = maintain_step(session, self.policy)

        z = frame.embeddings.astype(self.dtype)
        z = self._framewise(z)

        d = cfg.dim
        protected = self.protection[frame.frame_index > 0]
        records: list[TraceRecord] = []
        for li, layer in enumerate(session.layers):
            qkv = _rms_rows(z) @ self.w_qkv[li]
            admit(session, li, qkv[:, d:2 * d], qkv[:, 2 * d:], protected)

            keys = layer.keys_matrix()
            values = layer.values_matrix()
            ctx, maps = _attention(qkv[:, :d], keys, values, cfg.heads, self.sharpness[li],
                                   self._maps_buffer(len(keys)))
            z = z + ctx.astype(self.dtype, copy=False) @ self.w_out[li]

            n_keys = layer.occupancy()
            multiplies, footprint_bytes = cfg.layer_costs(n_keys)
            # An unbounded layer only appends and evict compacts into a fresh
            # id column, so a view of the live ids never changes. A bounded
            # layer compacts almost every step; a view would pin its buffer.
            key_ids = layer.token_id[:n_keys].copy() if cfg.bounded else layer.token_id[:n_keys]
            key_ids.flags.writeable = False
            plan = plans[li]
            record = TraceRecord(
                step=t,
                layer=li,
                n_keys=n_keys,
                budget_pre=budgets_pre[li],
                budget_post=None,
                occupancy_pre=occupancy_pre[li],
                occupancy_post=n_keys,
                protected_count=layer.protected_count,
                clamped=clamped[li],
                reason=plan.reason,
                evicted_ids=plan.victim_ids,
                evicted_importances=plan.importances_at_eviction,
                sigma=0.0,
                pi=None,
                multiplies=multiplies,
                footprint_bytes=footprint_bytes,
                key_ids=key_ids,
                col_sums_raw=stats_from_maps(maps),
                maps=maps.copy() if cfg.keep_maps else None,
            )
            accumulate(layer, record)
            record.sigma = layer_sparsity(record.col_sums_raw / cfg.heads)
            records.append(record)

        allocation = reallocate_step(session, [r.sigma for r in records])
        if allocation is not None:
            for record, budget, share in zip(records, allocation.budgets, allocation.shares):
                record.budget_post = budget
                record.pi = share

        session.step_counter += 1
        report = StepReport(
            step=t,
            layers=records,
            multiplies_total=sum(r.multiplies for r in records),
            footprint_total=sum(r.footprint_bytes for r in records),
        )
        return z, report


def run_stream(config: StreamConfig) -> RunSummary:
    """Generate and process every frame of the configured stream."""
    sim = StreamSimulator(config)
    reports: list[StepReport] = []
    outputs: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for t in range(config.frames):
        frame = generate_frame(config, t)
        out, report = sim.step(frame)
        reports.append(report)
        outputs.append(out)
        masks.append(frame.landmark_mask)
    return RunSummary(
        config=config,
        budget=config.budget_metadata(),
        reports=reports,
        outputs=outputs,
        stats=[report.layers for report in reports],
        landmark_masks=masks,
        session=sim.session,
    )
