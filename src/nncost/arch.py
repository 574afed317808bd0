"""Architecture data model: layer descriptors, document parsing and template
compilation, validation.

Layer descriptors are immutable and validated on construction. A network is
an ordered chain of layers whose widths must agree: a dense layer emits
``n_n`` features, a 1-D convolution emits ``n_f * output_size`` (flattened
feature maps), recurrent layers emit ``n_h`` per time step and an echo state
network emits ``n_o`` per step.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from operator import itemgetter
from typing import Callable

from .errors import DomainError, SchemaError, SpecSyntaxError

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


class _Spec:
    """Checks every field on construction: ``activation`` is one of
    ACTIVATIONS, float fields are fractions in (0, 1] and the rest are
    integer counts >= 1 (``padding`` >= 0). Errors name the field first."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "activation":
                _require_activation(value)
            elif f.type == "float":
                _require_fraction(value, f.name)
            else:
                _require_count(value, f.name,
                               0 if f.name == "padding" else 1)


@dataclass(frozen=True)
class Dense(_Spec):
    """Fully connected layer: n_n neurons over n_i input features."""

    n_n: int
    n_i: int
    activation: str = "tanh"


@dataclass(frozen=True)
class Conv1D(_Spec):
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

    @property
    def output_size(self) -> int:
        return conv1d_output_size(self.n_s, self.n_k, self.padding,
                                  self.dilation, self.stride)


@dataclass(frozen=True)
class _Cell(_Spec):
    """Fields shared by the recurrent cells: n_i inputs and n_h hidden
    units per step, n_s steps."""

    n_i: int
    n_h: int
    n_s: int
    activation: str = "tanh"


@dataclass(frozen=True)
class VanillaRNN(_Cell):
    """Simple recurrent layer: h_t = phi(W x_t + U h_{t-1} + b)."""


@dataclass(frozen=True)
class LSTM(_Cell):
    """LSTM layer; gates are sigmoid, ``activation`` is the cell nonlinearity."""


@dataclass(frozen=True)
class GRU(_Cell):
    """GRU layer; gates are sigmoid, ``activation`` is the candidate nonlinearity."""


@dataclass(frozen=True)
class EchoState(_Spec):
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

    @property
    def row_nonzeros(self) -> int:
        """Nonzero recurrent weights per reservoir row: round(s_p * N_r), at least 1."""
        return max(1, round_half_up(self.s_p * self.N_r))


LayerSpec = Dense | Conv1D | VanillaRNN | LSTM | GRU | EchoState


def acc_bits(n: int, b_w: int, b_i: int) -> int:
    """Accumulator width for summing n partial products of width b_w + b_i."""
    if n < 1:
        raise DomainError("accumulation length must be >= 1")
    return b_w + b_i + (n - 1).bit_length()


def mult_bits(n: int, b_w: int, b_i: int) -> int:
    """Bit cost of n multiplications of b_w-bit by b_i-bit operands."""
    if n < 0:
        raise DomainError("multiplication count must be >= 0")
    return n * b_w * b_i


@dataclass(frozen=True)
class LayerKind:
    """What nncost knows about one layer type, as functions of its spec.

    ``weights`` names the stored arrays and their shapes; ``pruned`` lists
    the multiplicative ones in prune-mask order, and ``sparse`` names the
    one stored with ``row_nonzeros`` entries per row. ``state`` names the
    recurrent state vectors (none: feedforward), ``readout`` the one read
    by the kind's own linear readout, if any. ``input_shape`` is the
    nominal input of one pass; ``reuse`` is how many multiplications one
    stored weight performs in it. ``rm(spec)``, ``bop(spec, b_w, b_i, b_a)``
    and ``nabs(spec, b_w, b_i, b_a, x_w)`` are the analytic counts (see
    ``costmodel``). The interpreter's runner per kind is ``interp.EXECUTION``.
    """

    tag: str
    input_shape: Callable
    output_width: Callable
    weights: Callable
    pruned: tuple
    reuse: Callable
    rm: Callable
    bop: Callable
    nabs: Callable
    state: Callable = lambda spec: {}
    sparse: str | None = None
    readout: str | None = None


def _cell(tag, gates, rm, bop, nabs, state=("h",)) -> LayerKind:
    """A recurrent cell with, per gate (leading axis ``gates``), W (n_h, n_i),
    U (n_h, n_h) and b (n_h,); it emits h."""
    return LayerKind(
        tag=tag,
        input_shape=lambda c: (c.n_s, c.n_i),
        output_width=lambda c: c.n_h,
        weights=lambda c: {"W": gates + (c.n_h, c.n_i),
                           "U": gates + (c.n_h, c.n_h), "b": gates + (c.n_h,)},
        pruned=("W", "U"),
        reuse=lambda c: c.n_s,
        rm=rm, bop=bop, nabs=nabs,
        state=lambda c: dict.fromkeys(state, (c.n_h,)))


def _conv_bop(c, w, i, a):
    taps = c.n_i * c.n_k
    return (c.output_size * c.n_f * mult_bits(taps, w, i)
            + c.n_f * acc_bits(taps, w, i)) if c.output_size else 0


def _conv_nabs(c, w, i, a, x):
    taps = c.n_i * c.n_k
    acc = acc_bits(taps, w, i)
    return (c.output_size * c.n_f * (taps * (x + 1) - 1) * acc
            + c.n_f * acc) if c.output_size else 0


def _esn_nabs(e, w, i, a, x):
    # Sparsity term evaluated with the integer per-row count r = s_p*N_r:
    # N_r * [s_p*(N_r*(X_w+1) - 1) + 4] == r*(N_r*(X_w+1) - 1) + 4*N_r.
    n_s, N_r, r = e.n_s, e.N_r, e.row_nonzeros
    return (n_s * N_r * (e.n_i * (x + 1) - 1) * acc_bits(e.n_i, w, i)
            + n_s * (r * (N_r * (x + 1) - 1) + 4 * N_r) * acc_bits(N_r, w, a)
            + n_s * N_r * (e.n_o * (x + 1) - 1) * acc_bits(e.n_o, w, a)
            + 4 * n_s * N_r * a)


# The layer-kind table: one entry per spec class.
KINDS = {
    Dense: LayerKind(
        tag="dense",
        input_shape=lambda d: (d.n_i,),
        output_width=lambda d: d.n_n,
        weights=lambda d: {"W": (d.n_n, d.n_i), "b": (d.n_n,)},
        pruned=("W",),
        reuse=lambda d: 1,
        rm=lambda d: d.n_n * d.n_i,
        bop=lambda d, w, i, a: d.n_n * d.n_i * (w * i + acc_bits(d.n_i, w, i)),
        nabs=lambda d, w, i, a, x: (d.n_n * d.n_i * (x + 1)
                                    * acc_bits(d.n_i, w, i))),
    Conv1D: LayerKind(
        tag="conv1d",
        input_shape=lambda c: (c.n_s, c.n_i),
        output_width=lambda c: c.n_f * c.output_size,
        weights=lambda c: {"kernels": (c.n_f, c.n_k, c.n_i),
                           "biases": (c.n_f,)},
        pruned=("kernels",),
        reuse=lambda c: c.output_size,
        rm=lambda c: c.n_f * c.n_i * c.n_k * c.output_size,
        bop=_conv_bop,
        nabs=_conv_nabs),
    VanillaRNN: _cell(
        "rnn", (),
        rm=lambda c: c.n_s * c.n_h * (c.n_i + c.n_h),
        bop=lambda c, w, i, a: c.n_s * c.n_h * (
            mult_bits(c.n_i, w, i) + mult_bits(c.n_h, w, a)
            + 2 * acc_bits(c.n_h, w, a)),
        nabs=lambda c, w, i, a, x: c.n_s * c.n_h * (
            (c.n_i * (x + 1) - 1) * acc_bits(c.n_i, w, i)
            + (c.n_h * (x + 1) + 1) * acc_bits(c.n_h, w, a))),
    LSTM: _cell(
        "lstm", (4,), state=("h", "C"),
        rm=lambda c: c.n_s * c.n_h * (4 * c.n_i + 4 * c.n_h + 3),
        bop=lambda c, w, i, a: c.n_s * c.n_h * (
            4 * mult_bits(c.n_i, w, i) + 4 * mult_bits(c.n_h, w, a)
            + 3 * a ** 2 + 9 * acc_bits(c.n_h, w, a)),
        nabs=lambda c, w, i, a, x: c.n_s * c.n_h * (
            4 * (c.n_i * (x + 1) - 1) * acc_bits(c.n_i, w, i)
            + 4 * (c.n_h * (x + 1) + 1) * acc_bits(c.n_h, w, a) + 6 * a)),
    GRU: _cell(
        "gru", (3,),
        rm=lambda c: c.n_s * c.n_h * (3 * c.n_i + 3 * c.n_h + 3),
        bop=lambda c, w, i, a: c.n_s * c.n_h * (
            3 * mult_bits(c.n_i, w, i) + 3 * mult_bits(c.n_h, w, a)
            + 3 * a ** 2 + 8 * acc_bits(c.n_h, w, a)),
        nabs=lambda c, w, i, a, x: c.n_s * c.n_h * (
            3 * (c.n_i * (x + 1) - 1) * acc_bits(c.n_i, w, i)
            + (3 * c.n_h * (x + 1) + 5) * acc_bits(c.n_h, w, a) + 6 * a)),
    EchoState: LayerKind(
        tag="esn",
        input_shape=lambda e: (e.n_s, e.n_i),
        output_width=lambda e: e.n_o,
        weights=lambda e: {"W_in": (e.N_r, e.n_i), "W_r": (e.N_r, e.N_r),
                           "W_o": (e.n_o, e.N_r), "b_o": (e.n_o,),
                           "W_back": (e.N_r, e.n_o)},
        pruned=("W_in", "W_r", "W_o"),
        sparse="W_r",
        reuse=lambda e: e.n_s,
        rm=lambda e: e.n_s * e.N_r * (e.n_i + e.row_nonzeros + 2 + e.n_o),
        bop=lambda e, w, i, a: e.n_s * (
            e.N_r * mult_bits(e.n_i, w, i)
            + e.row_nonzeros * mult_bits(e.N_r, w, a)
            + e.N_r * mult_bits(e.n_o, w, a) + 2 * e.N_r * a ** 2
            + 4 * e.N_r * acc_bits(e.N_r, w, a)),
        nabs=_esn_nabs,
        state=lambda e: {"s": (e.N_r,), "y_prev": (e.n_o,)},
        readout="s"),
}
_TYPE_TAGS = {kind.tag: cls for cls, kind in KINDS.items()}


def layer_kind(layer) -> LayerKind:
    """The table entry of a layer spec; TypeError for anything else."""
    try:
        return KINDS[type(layer)]
    except KeyError:
        raise TypeError(f"unsupported layer: {layer!r}") from None


def layer_type_name(layer: LayerSpec) -> str:
    return layer_kind(layer).tag


def output_width(layer: LayerSpec) -> int:
    """Features the layer emits, for chaining onto the next layer."""
    return layer_kind(layer).output_width(layer)


@dataclass(frozen=True)
class NetworkSpec:
    """Named linear chain of layers."""

    name: str
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            if type(layer) not in KINDS:
                raise ValueError(f"unsupported layer object: {layer!r}")


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
            consumed = layer.n_i
            if produced != consumed:
                violations.append(Violation(
                    index, "width-mismatch",
                    f"previous layer emits {produced} features but this "
                    f"layer consumes {consumed}"))
    return violations


def _unknown_type(tag) -> str:
    return (f"unknown layer type {tag!r}; expected one of "
            f"{sorted(_TYPE_TAGS)}")


def _fail(path: str, message: str) -> Callable:
    """Build function that raises a fresh SchemaError on every call."""
    def build(values):
        raise SchemaError(path, message)
    return build


def _late(compile_node, get, *args) -> Callable:
    """Build function of a node that is itself a reference: its value is
    compiled when built, and every string in a value is literal."""
    return lambda values: compile_node(_Compiler(), get(values), *args)(())


# Each spec class's field annotations by name, and its required fields
# (those without a default) in declaration order.
_FIELD_TYPES = {cls: {f.name: f.type for f in fields(cls)} for cls in KINDS}
_REQUIRED = {cls: tuple(f.name for f in fields(cls) if f.default is MISSING)
             for cls in KINDS}
# What a spec field takes, by annotation, where no float is valid.
_TAKES = {"int": "an integer", "str": "a string"}


class _Compiler:
    """Compiles the nodes of a document into build functions of the tuple
    of reference values. Each node runs the checks ``parse_document``
    documents, in its order: checks that no reference can change are
    decided here, and one that fails becomes a build function raising its
    error, so a faulty template still compiles."""

    def __init__(self, names=()):
        self.refs = {f"${name}": i for i, name in enumerate(names)}
        self.typed = []

    def reference(self, node):
        """Getter of the value of a node that is a reference, else None."""
        if isinstance(node, str) and node in self.refs:
            return itemgetter(self.refs[node])
        return None

    def resolver(self, node):
        """Function of the values returning ``node`` with every reference
        in it replaced by its value; None for a node without references."""
        if not self.refs:
            return None
        if isinstance(node, dict):
            parts = {key: self.resolver(value) for key, value in node.items()}
            if any(parts.values()):
                return lambda values: {
                    key: value if parts[key] is None else parts[key](values)
                    for key, value in node.items()}
        elif isinstance(node, list):
            parts = [self.resolver(value) for value in node]
            if any(parts):
                return lambda values: [
                    value if part is None else part(values)
                    for value, part in zip(node, parts)]
        return self.reference(node)

    def document(self, doc) -> Callable:
        get = self.reference(doc)
        if get is not None:
            return _late(_Compiler.document, get)
        if not isinstance(doc, dict):
            return _fail("$", "top level must be an object")
        for key in doc:
            if key not in ("name", "layers"):
                return _fail(f"$.{key}", "unknown field")
        if "name" not in doc:
            return _fail("$.name", "missing field")
        name = self.name(doc["name"])
        layers = (self.layers(doc["layers"]) if "layers" in doc
                  else _fail("$.layers", "missing field"))
        return lambda values: NetworkSpec(name(values), layers(values))

    def name(self, node) -> Callable:
        get = self.reference(node)
        if get is not None:
            self.typed.append((".name", node[1:], "a string"))
            return _late(_Compiler.name, get)
        if not isinstance(node, str):
            return _fail("$.name", "must be a string")
        return lambda values: node

    def layers(self, node) -> Callable:
        get = self.reference(node)
        if get is not None:
            return _late(_Compiler.layers, get)
        if not isinstance(node, list) or not node:
            return _fail("$.layers", "must be a nonempty array")
        steps = [self.layer(item, f"layers[{i}]")
                 for i, item in enumerate(node)]
        return lambda values: [step(values) for step in steps]

    def layer(self, node, path: str) -> Callable:
        get = self.reference(node)
        if get is not None:
            return _late(_Compiler.layer, get, path)
        if not isinstance(node, dict):
            return _fail(path, "layer must be an object")
        if "type" not in node:
            return _fail(f"{path}.type", "missing field")
        tag = node["type"]
        resolve = self.resolver(tag)
        if resolve is None:
            cls = _TYPE_TAGS.get(tag) if isinstance(tag, str) else None
            if cls is None:
                return _fail(f"{path}.type", _unknown_type(tag))
            self.type_fields(node, path, (cls,))
            return self.spec(node, path, cls)
        if self.reference(tag) is not None:
            self.typed.append((f".{path}.type", tag[1:], "a string"))
        self.type_fields(node, path, KINDS)
        by_tag = {t: self.spec(node, path, cls)
                  for t, cls in _TYPE_TAGS.items()}

        def build(values):
            value = resolve(values)
            step = by_tag.get(value) if isinstance(value, str) else None
            if step is None:
                raise SchemaError(f"{path}.type", _unknown_type(value))
            return step(values)
        return build

    def type_fields(self, node, path: str, classes):
        """Record each reference fed straight into a field that every one
        of ``classes`` declaring it types as an integer, or as a string."""
        for key, value in node.items():
            if self.reference(value) is None:
                continue
            takes = {_TAKES.get(_FIELD_TYPES[cls][key]) for cls in classes
                     if key in _FIELD_TYPES[cls]}
            if len(takes) == 1 and None not in takes:
                self.typed.append((f".{path}.{key}", value[1:], takes.pop()))

    def spec(self, node, path: str, cls) -> Callable:
        """Build function of a layer node as a ``cls`` spec."""
        declared = _FIELD_TYPES[cls]
        fixed, fed = {}, []
        for key, value in node.items():
            if key == "type":
                continue
            if key not in declared:
                return _fail(f"{path}.{key}", "unknown field")
            resolve = self.resolver(value)
            if resolve is None:
                fixed[key] = value
            else:
                fed.append((key, resolve))
        for name in _REQUIRED[cls]:
            if name not in node:
                return _fail(f"{path}.{name}", "missing field")

        def build(values):
            kwargs = fixed.copy()
            for key, resolve in fed:
                kwargs[key] = resolve(values)
            try:
                return cls(**kwargs)
            except ValueError as exc:
                # Construction names the offending field first, e.g.
                # "s_p must be...".
                field_name = str(exc).split(" ", 1)[0]
                where = (f"{path}.{field_name}" if field_name in declared
                         else path)
                raise SchemaError(where, str(exc)) from exc
        return build


@dataclass(frozen=True)
class Template:
    """An architecture document compiled once for repeated construction.

    In a template, each string ``"$name"`` for a name in the compiled
    ``names`` is a reference, wherever it stands as a value (keys are never
    references). ``build(values)`` returns what ``parse_document`` returns
    for the document with each reference replaced by ``values[i]``, where
    ``names[i]`` is its name, and otherwise raises the same SchemaError,
    with the same path and message. A reference value is used as it is:
    strings in it are literal. The spec class of each layer, its fixed
    field values and which value feeds which field are worked out once.

    ``typed`` lists, name first and then layer by layer, each reference
    that feeds a place taking only an integer (a count field) or only a
    string (``name``, ``type``, ``activation``) as ``(path, name, what)``:
    the path from the template's root, e.g. ``.layers[0].n_n``, and what
    is "an integer" or "a string".
    """

    build: Callable
    typed: tuple


def compile_template(doc, names=()) -> Template:
    """Compile ``doc`` with references ``"$name"`` for each of ``names``;
    see Template. A fault of the document is raised when it is built."""
    compiler = _Compiler(names)
    build = compiler.document(doc)
    return Template(build, tuple(compiler.typed))


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
    parse_spec would for the JSON text of ``doc``. The checks run in this
    order, and the first that fails is raised: the top level is an object
    with no field but ``name`` and ``layers``, ``name`` is present and a
    string, ``layers`` is present and a nonempty array, then each layer in
    turn is an object with a known ``type``, no undeclared field, every
    required field, and valid field values. This is the compiled template
    with no references (``compile_template``), built once.
    """
    return compile_template(doc).build(())


def serialize(net: NetworkSpec) -> str:
    """Inverse of parse_spec: emit the JSON document for a NetworkSpec."""
    layers = []
    for layer in net.layers:
        entry = {"type": layer_type_name(layer)}
        for f in fields(layer):
            entry[f.name] = getattr(layer, f.name)
        layers.append(entry)
    return json.dumps({"name": net.name, "layers": layers}, indent=2)
