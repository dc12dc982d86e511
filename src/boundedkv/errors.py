"""Exception types raised by the bounded KV-cache engine."""


class BoundedKVError(Exception):
    """Base class for all engine errors."""


class ConfigError(BoundedKVError):
    """Invalid stream or CLI configuration."""


class AdmissionOverflow(BoundedKVError):
    """Admission would exceed the layer budget in bounded mode.

    Signals a policy bug: eviction must free slots before admission.
    """


class ProtectedEviction(BoundedKVError):
    """Attempted removal of a protected token."""


class UnknownToken(BoundedKVError):
    """Referenced token id is not resident in the layer."""


class StaleStats(BoundedKVError):
    """Attention statistics do not match the layer's current contents."""


class BadTemperature(BoundedKVError):
    """Softmax temperature must be strictly positive."""


class IncompleteLog(BoundedKVError):
    """Attention-map log is missing steps or map payloads."""


class ConfigMismatch(BoundedKVError):
    """Two runs are structurally incompatible for comparison."""


class MalformedTrace(BoundedKVError):
    """Trace file failed to parse.

    ``line`` is the 1-based line number of the offending record.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonFiniteRecord(BoundedKVError):
    """A trace record holds a NaN or infinite value, which JSON cannot carry.

    ``step``, ``layer`` and ``field`` name the record and its field.
    """

    def __init__(self, step: int, layer: int, field: str):
        super().__init__(f"step {step} layer {layer}: {field} is not finite")
        self.step, self.layer, self.field = step, layer, field


class UnknownLayer(BoundedKVError):
    """Layer index not present in the trace or session."""
