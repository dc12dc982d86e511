"""Stream configuration and budget resolution.

A stream is bounded when either a fractional budget (``beta``) or an
absolute token budget (``budget_tokens``) is set; otherwise the cache
grows without limit (baseline behaviour).

Fractional budgets support two readings of the denominator, recorded in
run metadata:

* ``fixed-horizon``: total tokens = ceil(beta * layers * frames * tokens_per_frame)
* ``steady-state``:  total tokens = ceil(beta * layers * ref_frames * tokens_per_frame)
  for a configured reference length (defaults to ``frames`` when unset).
"""

from __future__ import annotations

import math
from dataclasses import Field, asdict, dataclass, field, fields

from .errors import ConfigError

POLICIES = ("attention", "random", "uniform_budget", "none")
BUDGET_MODES = ("fixed-horizon", "steady-state")
ATTN_DTYPES = ("float64", "float32")
# Why a layer evicted: to make room for the incoming frame, or because
# its budget fell below its occupancy. A trace record holds one or None.
REASON_ADMIT = "budget_admit"
REASON_SHRINK = "budget_shrink"
REASONS = (REASON_ADMIT, REASON_SHRINK)

# Allocation temperature used by the uniform-budget ablation.
UNIFORM_BUDGET_TAU = 100.0

# The exact Python types, as JSON decodes them, that each part of a field
# annotation admits: a bool is no int, a float also takes an int (JSON
# has one number type), and a list holds floats.
_ANNOTATION_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "None": (type(None),),
    "list[float]": (list,),
}


def admits(f: Field, value) -> bool:
    """Whether field ``f`` may hold ``value``: a value of an exact type its
    annotation (a string such as ``"int | None"``) names and, when the
    field declares ``choices`` in its metadata, one of them."""
    kinds = [kind for part in f.type.split(" | ") for kind in _ANNOTATION_TYPES[part]]
    return type(value) in kinds and (
        type(value) is not list or all(type(entry) in _ANNOTATION_TYPES["float"] for entry in value)) and (
        "choices" not in f.metadata or value in f.metadata["choices"])


def allowed(f: Field, value) -> str:
    """What field ``f`` allows, as an error names it for ``value``: its
    choices when ``value`` has the type of one, else its annotation."""
    choices = f.metadata.get("choices", ())
    return f"one of {choices}" if type(value) in map(type, choices) else f.type


@dataclass
class StreamConfig:
    """Parameters of one simulated stream."""

    layers: int = 4
    heads: int = 2
    dim: int = 32
    tokens_per_frame: int = 8
    registers: int = 1
    frames: int = 24
    beta: float | None = None
    budget_tokens: int | None = None
    budget_mode: str = field(default="fixed-horizon", metadata={"choices": BUDGET_MODES})
    ref_frames: int | None = None
    tau: float = 1.5
    policy: str = field(default="attention", metadata={"choices": POLICIES})
    seed: int = 7
    landmark_frac: float = 0.25
    landmark_gain: float = 6.0
    sharpness: float = 2.0
    sharpness_profile: list[float] | None = None
    attn_dtype: str = field(default="float64", metadata={"choices": ATTN_DTYPES})
    keep_maps: bool = field(default=False, metadata={"flag": "--trace-full-maps"})

    @property
    def patch_tokens(self) -> int:
        return self.tokens_per_frame - 1 - self.registers

    @property
    def scalar_bytes(self) -> int:
        return 8 if self.attn_dtype == "float64" else 4

    def layer_costs(self, n_keys: int) -> tuple[int, int]:
        """Modelled multiplies and KV footprint bytes of one layer's step
        over ``n_keys`` resident keys: every query of the frame meets each
        key and value, and each key and value is stored."""
        return 2 * self.tokens_per_frame * n_keys * self.dim, n_keys * 2 * self.dim * self.scalar_bytes

    @property
    def bounded(self) -> bool:
        return self.beta is not None or self.budget_tokens is not None

    @property
    def effective_tau(self) -> float:
        """Allocation temperature; the uniform-budget ablation pins 100."""
        return UNIFORM_BUDGET_TAU if self.policy == "uniform_budget" else self.tau

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not admits(f, value):
                raise ConfigError(f"{f.name} must be {allowed(f, value)}")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.dim < 1 or self.dim % self.heads != 0:
            raise ConfigError("dim must be a positive multiple of heads")
        if self.registers < 0:
            raise ConfigError("registers must be >= 0")
        if self.patch_tokens < 1:
            raise ConfigError(
                "tokens_per_frame must leave at least one patch token "
                "(tokens_per_frame = patches + 1 camera + registers)"
            )
        if self.frames < 0:
            raise ConfigError("frames must be >= 0")
        if self.beta is not None and self.budget_tokens is not None:
            raise ConfigError("set either beta or budget_tokens, not both")
        if self.beta is not None and not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must be in (0, 1]")
        if self.budget_tokens is not None and self.budget_tokens < 0:
            raise ConfigError("budget_tokens must be >= 0")
        if self.ref_frames is not None and self.ref_frames < 1:
            raise ConfigError("ref_frames must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError("tau must be finite and > 0")
        if self.policy == "none" and self.bounded and self.frames >= 3 and (
            self.total_budget_tokens() < self.layers * self.frames * self.tokens_per_frame
        ):
            # Never evicting, the stream outgrows the budget and faults
            # part-way; with two frames or fewer the protected floor
            # (frame 0 plus one incoming frame) always makes room.
            raise ConfigError(
                "policy 'none' never evicts: a budget needs at least "
                "layers * frames * tokens_per_frame tokens"
            )
        if not 0.0 <= self.landmark_frac <= 1.0:
            raise ConfigError("landmark_frac must be in [0, 1]")
        if not (math.isfinite(self.landmark_gain) and self.landmark_gain >= 0.0):
            raise ConfigError("landmark_gain must be finite and >= 0")
        if not (math.isfinite(self.sharpness) and self.sharpness >= 0.0):
            raise ConfigError("sharpness must be finite and >= 0")
        if self.sharpness_profile is not None:
            if len(self.sharpness_profile) != self.layers:
                raise ConfigError("sharpness_profile must have one entry per layer")
            if not all(math.isfinite(s) and s >= 0.0 for s in self.sharpness_profile):
                raise ConfigError("sharpness_profile entries must be finite and >= 0")
        # A trace carries these as JSON ints, which its encoder and decoder hold in 64 bits.
        if not 0 <= self.seed < 2**63:
            raise ConfigError("seed must be in [0, 2**63)")
        if max(self.ref_frames or 0, self.total_budget_tokens() or 0) >= 2**63:
            raise ConfigError("ref_frames and the token budget must be < 2**63")

    def total_budget_tokens(self) -> int | None:
        """Resolve the configured budget to a token count (None = unbounded)."""
        if self.budget_tokens is not None:
            return self.budget_tokens
        if self.beta is None:
            return None
        if self.budget_mode == "steady-state":
            horizon = self.ref_frames if self.ref_frames is not None else self.frames
        else:
            horizon = self.frames
        # round() strips binary-float fuzz (0.1 * 12800 -> 1280.0000000000002)
        # so the ceiling matches the exact rational product.
        return math.ceil(round(self.beta * self.layers * horizon * self.tokens_per_frame, 6))

    def budget_metadata(self) -> dict:
        """Budget interpretation, recorded in run outputs."""
        return {
            "bounded": self.bounded,
            "beta": self.beta,
            "budget_mode": self.budget_mode if self.beta is not None else None,
            "ref_frames": self.ref_frames,
            "budget_tokens": self.total_budget_tokens(),
        }

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(values: dict) -> StreamConfig:
    unknown = values.keys() - StreamConfig.__dataclass_fields__.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = StreamConfig(**values)
    cfg.validate()
    return cfg
