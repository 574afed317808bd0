"""Architecture data model: layer descriptors, document parsing, validation.

Layer descriptors are immutable and validated on construction. A network is
an ordered chain of layers whose widths must agree: a dense layer emits
``n_n`` features, a 1-D convolution emits ``n_f * output_size`` (flattened
feature maps), recurrent layers emit ``n_h`` per time step and an echo state
network emits ``n_o`` per step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import SchemaError, SpecSyntaxError

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")


def _require_count(value, name: str, minimum: int = 1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _require_fraction(value, name: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    if not 0.0 < float(value) <= 1.0:
        raise ValueError(f"{name} must be in (0, 1]")


def _require_activation(value):
    if value not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}")


def round_half_up(x: float) -> int:
    """Nearest integer with halves rounded up (0.5 -> 1, 1.5 -> 2)."""
    return int(math.floor(x + 0.5))


def conv1d_output_size(n_s: int, n_k: int, padding: int = 0,
                       dilation: int = 1, stride: int = 1) -> int:
    """Number of valid kernel placements of a 1-D convolution.

    Equals ``floor((n_s + 2*padding - dilation*(n_k - 1) - 1) / stride) + 1``
    clamped at zero. Width 0 marks an unusable configuration; it is not an
    error so that search code can penalize degenerate candidates.
    """
    numer = n_s + 2 * padding - dilation * (n_k - 1) - 1
    if numer < 0:
        return 0
    return numer // stride + 1


@dataclass(frozen=True)
class Dense:
    """Fully connected layer: n_n neurons over n_i input features."""

    n_n: int
    n_i: int
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_n, "n_n")
        _require_count(self.n_i, "n_i")
        _require_activation(self.activation)


@dataclass(frozen=True)
class Conv1D:
    """1-D convolution: n_f filters of size n_k over n_i channels.

    ``n_s`` is the input sequence length; padding/dilation/stride follow the
    usual convolution conventions.
    """

    n_f: int
    n_i: int
    n_k: int
    n_s: int
    padding: int = 0
    dilation: int = 1
    stride: int = 1
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_f, "n_f")
        _require_count(self.n_i, "n_i")
        _require_count(self.n_k, "n_k")
        _require_count(self.n_s, "n_s")
        _require_count(self.padding, "padding", minimum=0)
        _require_count(self.dilation, "dilation")
        _require_count(self.stride, "stride")
        _require_activation(self.activation)

    @property
    def output_size(self) -> int:
        return conv1d_output_size(self.n_s, self.n_k, self.padding,
                                  self.dilation, self.stride)


@dataclass(frozen=True)
class VanillaRNN:
    """Simple recurrent layer: h_t = phi(W x_t + U h_{t-1} + b)."""

    n_i: int
    n_h: int
    n_s: int
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_i, "n_i")
        _require_count(self.n_h, "n_h")
        _require_count(self.n_s, "n_s")
        _require_activation(self.activation)


@dataclass(frozen=True)
class LSTM:
    """LSTM layer; gates are sigmoid, ``activation`` is the cell nonlinearity."""

    n_i: int
    n_h: int
    n_s: int
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_i, "n_i")
        _require_count(self.n_h, "n_h")
        _require_count(self.n_s, "n_s")
        _require_activation(self.activation)


@dataclass(frozen=True)
class GRU:
    """GRU layer; gates are sigmoid, ``activation`` is the candidate nonlinearity."""

    n_i: int
    n_h: int
    n_s: int
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_i, "n_i")
        _require_count(self.n_h, "n_h")
        _require_count(self.n_s, "n_s")
        _require_activation(self.activation)


@dataclass(frozen=True)
class EchoState:
    """Leaky echo state network layer.

    ``N_r`` reservoir units with recurrent sparsity ``s_p`` (fraction of
    nonzero reservoir weights per row), ``n_o`` readout units and leak rate
    ``leak`` blending the previous state into the new activation.
    """

    n_i: int
    N_r: int
    s_p: float
    n_o: int
    n_s: int
    leak: float = 1.0
    activation: str = "tanh"

    def __post_init__(self):
        _require_count(self.n_i, "n_i")
        _require_count(self.N_r, "N_r")
        _require_count(self.n_o, "n_o")
        _require_count(self.n_s, "n_s")
        _require_fraction(self.s_p, "s_p")
        _require_fraction(self.leak, "leak")
        _require_activation(self.activation)

    @property
    def row_nonzeros(self) -> int:
        """Nonzero recurrent weights per reservoir row: round(s_p * N_r), at least 1."""
        return max(1, round_half_up(self.s_p * self.N_r))


LayerSpec = Dense | Conv1D | VanillaRNN | LSTM | GRU | EchoState

_TYPE_TAGS = {
    "dense": Dense,
    "conv1d": Conv1D,
    "rnn": VanillaRNN,
    "lstm": LSTM,
    "gru": GRU,
    "esn": EchoState,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in _TYPE_TAGS.items()}

# JSON fields with defaults; everything else is required per layer type.
_OPTIONAL_FIELDS = {"activation", "padding", "dilation", "stride", "leak"}


def layer_type_name(layer: LayerSpec) -> str:
    return _TAG_BY_TYPE[type(layer)]


def input_width(layer: LayerSpec) -> int:
    """Features the layer consumes per sample (feedforward) or per step."""
    return layer.n_i


def output_width(layer: LayerSpec) -> int:
    """Features the layer emits, for chaining onto the next layer."""
    if isinstance(layer, Dense):
        return layer.n_n
    if isinstance(layer, Conv1D):
        return layer.n_f * layer.output_size
    if isinstance(layer, (VanillaRNN, LSTM, GRU)):
        return layer.n_h
    return layer.n_o


@dataclass(frozen=True)
class NetworkSpec:
    """Named linear chain of layers."""

    name: str
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            if not isinstance(layer, _TYPE_TAGS_VALUES):
                raise ValueError(f"unsupported layer object: {layer!r}")


_TYPE_TAGS_VALUES = tuple(_TYPE_TAGS.values())


@dataclass(frozen=True)
class BitwidthConfig:
    """Fixed-point operand widths: weights, inputs, activations."""

    b_w: int = 8
    b_i: int = 8
    b_a: int = 8

    def __post_init__(self):
        for name in ("b_w", "b_i", "b_a"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer")
            if not 1 <= value <= 64:
                raise ValueError(f"{name} must be in [1, 64]")


@dataclass(frozen=True)
class Violation:
    """One failed structural rule, locating the offending layer."""

    layer_index: int
    rule: str
    message: str

    def __str__(self):
        return f"layer {self.layer_index}: [{self.rule}] {self.message}"


def validate_network(net: NetworkSpec) -> list[Violation]:
    """Check width chaining and usable convolution widths.

    Returns an empty list iff the network is structurally sound; each
    violation names the layer index and the broken rule.
    """
    violations = []
    for index, layer in enumerate(net.layers):
        if isinstance(layer, Conv1D) and layer.output_size == 0:
            violations.append(Violation(
                index, "zero-output-width",
                f"dilated kernel span {layer.dilation * (layer.n_k - 1) + 1} "
                f"admits no placement on padded input "
                f"{layer.n_s + 2 * layer.padding}"))
        if index > 0:
            produced = output_width(net.layers[index - 1])
            consumed = input_width(layer)
            if produced != consumed:
                violations.append(Violation(
                    index, "width-mismatch",
                    f"previous layer emits {produced} features but this "
                    f"layer consumes {consumed}"))
    return violations


def _parse_layer(obj, path: str) -> LayerSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "layer must be an object")
    if "type" not in obj:
        raise SchemaError(f"{path}.type", "missing field")
    tag = obj["type"]
    cls = _TYPE_TAGS.get(tag)
    if cls is None:
        raise SchemaError(f"{path}.type",
                          f"unknown layer type {tag!r}; expected one of "
                          f"{sorted(_TYPE_TAGS)}")
    declared = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key == "type":
            continue
        if key not in declared:
            raise SchemaError(f"{path}.{key}", "unknown field")
        kwargs[key] = value
    for name in declared - _OPTIONAL_FIELDS:
        if name not in kwargs:
            raise SchemaError(f"{path}.{name}", "missing field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # Construction names the offending field first, e.g. "s_p must be...".
        field_name = str(exc).split(" ", 1)[0]
        suffix = field_name if field_name in declared else ""
        where = f"{path}.{suffix}" if suffix else path
        raise SchemaError(where, str(exc)) from exc


def parse_spec(text: str) -> NetworkSpec:
    """Parse a JSON architecture document into a NetworkSpec.

    Document shape: ``{"name": str, "layers": [{"type": ..., ...}, ...]}``.
    Unknown keys are rejected; counts must be JSON integers. Raises
    SpecSyntaxError for malformed JSON and SchemaError (with the path of the
    offending field) for schema violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(f"malformed document: {exc}") from exc
    return parse_document(doc)


def parse_document(doc) -> NetworkSpec:
    """Parse an already decoded architecture document (see parse_spec).

    Raises SchemaError, with the path of the offending field, exactly where
    parse_spec would for the JSON text of ``doc``.
    """
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    for key in doc:
        if key not in ("name", "layers"):
            raise SchemaError(f"$.{key}", "unknown field")
    if "name" not in doc:
        raise SchemaError("$.name", "missing field")
    if not isinstance(doc["name"], str):
        raise SchemaError("$.name", "must be a string")
    if "layers" not in doc:
        raise SchemaError("$.layers", "missing field")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise SchemaError("$.layers", "must be a nonempty array")
    layers = [_parse_layer(item, f"layers[{i}]")
              for i, item in enumerate(doc["layers"])]
    return NetworkSpec(name=doc["name"], layers=tuple(layers))


def serialize(net: NetworkSpec) -> str:
    """Inverse of parse_spec: emit the JSON document for a NetworkSpec."""
    layers = []
    for layer in net.layers:
        entry = {"type": layer_type_name(layer)}
        for f in fields(layer):
            entry[f.name] = getattr(layer, f.name)
        layers.append(entry)
    return json.dumps({"name": net.name, "layers": layers}, indent=2)
