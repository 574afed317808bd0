"""Instrumented reference interpreter for the supported layer equations.

Executes each layer in float or fixed-point mode while counting the
multiplications, additions, bit shifts and activation evaluations actually
performed. The measured multiplication count is the brute-force oracle for
the analytic cost model: for every layer type (echo state networks with
output feedback disabled) it reproduces the analytic RM exactly.

``run_layer`` is the one entry point, and every forward pass runs its one
skeleton: check each weight, the input and any given state against the
shapes in ``arch.KINDS``, quantize the input in fixed point, build the
kind's step (``EXECUTION``), then apply it once to a feedforward input or
once per time step, from the given or zero state, into an output buffer.
Only the step differs between layer types, and each kind's equations are
in the docstring of its weights class.

A recurrent step is fused. Each gate's input products W_g x_t are hoisted
out of the time loop, one batched product per gate and block of steps; per
step one product of the (G, n_h, n_h) stack of the U_g with h, which numpy
runs as one gemv per gate, fills a (G, n_h) buffer, (W x + U h) + b is one
pair of adds over all gates and one sigmoid, with one exp, covers the
sigmoid gates. Counts are closed form: the per-step tally times the number
of steps. The gates are never stacked into one 2-D (G n_h, n) matrix, whose
product BLAS rounds apart from the per-gate products.

A recurrent step also allocates nothing. Its gate, exponent and candidate
buffers are allocated once per run; each step writes into them through
ufunc outputs, updates the run's state vectors in place, and ``run_layer``
copies the step's output out. The operations and their order are those of
the plain expressions, so the bits are too, provided every ufunc runs the
loop it would have run on fresh arrays: numpy's SIMD and scalar loops round
exp and tanh apart, and an output that partly overlaps an input can move a
ufunc off its SIMD loop. So every operand is contiguous, and an output
aliases an input only exactly (in place).

Counting conventions:

* element-wise (Hadamard) products count one multiplication per element;
* the leaky state update of an echo state layer costs two multiplications
  and one addition per reservoir unit;
* multiplications by stored zero weights are skipped (zero-skipping), which
  is how pruning masks lower the measured count;
* activation evaluations are tallied separately, never folded into
  mults/adds;
* in fixed-point mode, power-of-two weights turn every weight product into
  a single barrel shift (counted under ``shifts``) and additive
  power-of-two weights into one shift per term plus connecting adds.

Fixed-point mode quantizes the layer input symmetrically to ``b_i`` bits
and the weights per the chosen scheme; products and accumulations are then
exact, so the only deviation from float execution is the input rounding.
Accumulators are sized by ``acc_bits`` and saturate on overflow; overflow
counting is meaningful for the uniform scheme, whose integer codes match
that accumulator model, and by construction stays zero there.

The module also carries the classic FIR/IIR reference filters: a linear
zero-bias convolution is a bank of FIR filters and a linear one-unit
recurrent cell is a one-pole IIR filter, and tests hold the interpreter to
both correspondences.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import arch, costmodel, quant
from .arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                   NetworkSpec, VanillaRNN, layer_type_name)
from .errors import DomainError, EmptyOutput, ShapeError


@dataclass
class OpCounters:
    """Operation tallies of one or more interpreter executions."""

    mults: int = 0
    adds: int = 0
    shifts: int = 0
    activations: int = 0
    overflows: int = 0

    def merge(self, other: "OpCounters", times: int = 1) -> "OpCounters":
        for name, value in vars(other).items():
            vars(self)[name] += times * value
        return self

    def as_dict(self) -> dict:
        return {"mults": self.mults, "adds": self.adds,
                "shifts": self.shifts, "activations": self.activations}


@dataclass(frozen=True)
class FixedPoint:
    """Fixed-point execution mode: operand widths plus the weight scheme."""

    bits: BitwidthConfig
    scheme: quant.QuantScheme


Mode = str | FixedPoint


# Read-only operands: a Python float costs a conversion on every ufunc call
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _stable_sigmoid(v: np.ndarray, out=None, scratch=None):
    """1/(1+e) for v >= 0 and e/(1+e) below, e = exp(-|v|) (NaN sign kept):
    the numerator exp(min(v, 0)) is exactly 1 or e, and nothing overflows.
    Written into ``out`` when given (v itself allowed); ``scratch``, a float
    buffer of shape (2,) + v.shape, takes both exponents in one exp and is
    allocated when not given."""
    e = np.empty((2,) + v.shape) if scratch is None else scratch
    num, den = e[0, ...], e[1, ...]  # views, also of a 0-d input's pair
    np.minimum(v, _ZERO, out=num)
    np.negative(v, den)
    np.minimum(v, den, out=den)
    np.exp(e, e)
    np.add(_ONE, den, den)
    return np.divide(num, den, out)


def _linear(v, out, scratch=None):
    np.copyto(out, v)
    return out


# phi(v) written into out, which may be v itself, and returned; ``scratch``
# is the sigmoid's. (A positional out of minimum and maximum is deprecated,
# and slow; other ufuncs take theirs positionally, which is faster.)
_ACTIVATIONS = {
    "linear": _linear,
    "relu": lambda v, out, scratch=None: np.maximum(v, _ZERO, out=out),
    "tanh": lambda v, out, scratch=None: np.tanh(v, out),
    "sigmoid": _stable_sigmoid,
}


def _activate(name: str, v: np.ndarray, counters: OpCounters):
    """phi of a freshly computed pre-activation, in place."""
    counters.activations += int(np.size(v))
    return _ACTIVATIONS[name](v, v)


def _quantize_operand(x: np.ndarray, b_i: int) -> tuple[np.ndarray, float]:
    """``quant.quantize_uniform`` of an input to b_i >= 2 bits; returns
    values and the scale. DomainError for b_i < 2 or a non-finite input."""
    if b_i < 2:
        raise DomainError(f"b_i = {b_i}: fixed-point inputs need b_i >= 2")
    try:
        q = quant.quantize_uniform(x, b_i)
    except DomainError:
        raise DomainError("fixed-point input must be finite") from None
    return q.values, q.scale


class _CountedMatrix:
    """A weight matrix prepared for repeated counted application.

    Per application, products with nonzero stored weights are counted as
    multiplications (float, uniform) or shifts (PoT/APoT); accumulation and
    the APoT term-combining adds are word-level additions.
    """

    def __init__(self, values: np.ndarray, mode: Mode):
        values = np.asarray(values, dtype=float)
        self.rows, self.cols = values.shape
        self.mult_events = 0
        self.shift_events = 0
        self.extra_adds = 0
        self.scale = None
        self.acc_width = None
        nnz = int(np.count_nonzero(values))
        if isinstance(mode, FixedPoint):
            self.acc_width = costmodel.acc_bits(
                self.cols, mode.bits.b_w, mode.bits.b_i)
            qw = quant.quantize(values, mode.scheme)
            self.values = qw.values
            scheme = mode.scheme
            if isinstance(scheme, (quant.Float, quant.FixedUniform)):
                self.mult_events = nnz
                if isinstance(scheme, quant.FixedUniform):
                    self.scale = qw.scale
            elif isinstance(scheme, quant.PoT):
                self.shift_events = nnz
            else:  # APoT: one shift per term, one add joins consecutive terms
                self.shift_events = int(qw.term_counts.sum())
                self.extra_adds = (self.shift_events
                                   - int(np.count_nonzero(qw.term_counts)))
        else:
            self.values = values
            self.mult_events = nnz

    def tally(self, counters: OpCounters, applications: int):
        """Count ``applications`` products with this matrix."""
        counters.mults += self.mult_events * applications
        counters.shifts += self.shift_events * applications
        counters.adds += (self.rows * (self.cols - 1)
                          + self.extra_adds) * applications

    def apply(self, x: np.ndarray, counters: OpCounters,
              input_scale: float | None = None) -> np.ndarray:
        """Counted product self.values @ x for x of shape (cols,), (cols, m)
        or (m, cols, 1): one application per column vector."""
        self.tally(counters, x.size // self.cols)
        y = self.values @ x
        if self.scale is not None and input_scale:
            # Saturating accumulator check in integer-code units.
            cap = (1 << (self.acc_width - 1)) - 1
            lsb = self.scale * input_scale
            codes = y / lsb
            over = np.abs(codes) > cap
            if np.any(over):
                counters.overflows += int(np.count_nonzero(over))
                y = np.clip(y, -cap * lsb, cap * lsb)
        return y


def _bias_add(y: np.ndarray, b: np.ndarray, counters: OpCounters):
    counters.adds += int(np.size(y))
    return y + b


# ---------------------------------------------------------------------------
# Weights and steps: one class per layer kind


_BLOCK = 256  # steps per hoisted input product: bounds its buffer


def _gates(W, U, x, mode, in_scale, counters: OpCounters,
           per_step: OpCounters):
    """Counted products of a recurrent step's gates: W (G, rows, cols) and U
    (G, rows, rows), or one gate's 2-D W and U. Each gate keeps its own
    counted matrix (counts, fixed-point scale). ``inputs(t)`` gives every
    W_g x_t for t = 0, 1, ... in order, computed per gate and block of
    _BLOCK steps; ``recur(h)`` every U_g h, as one product of the 3-D stack
    of the U_g into the (G, rows) buffer returned third. Both return views
    of per-run buffers that later calls overwrite. Counts T times
    ``per_step``, the U products and the add of W x + U h; the W products
    as they run."""
    W, U = ([_CountedMatrix(m, mode) for m in a.reshape((-1,) + a.shape[-2:])]
            for a in (W, U))
    WX = np.empty((min(len(x), _BLOCK), len(W), W[0].rows))
    UH = np.empty((len(U), U[0].rows))
    U_all = np.stack([U_g.values for U_g in U])
    for U_g in U:
        U_g.tally(per_step, 1)
    per_step.adds += UH.size
    counters.merge(per_step, len(x))

    rows = list(WX)  # one view per step of a block, made once

    def inputs(t):
        if t % _BLOCK == 0:
            xs = x[t:t + _BLOCK, :, None]
            for g, W_g in enumerate(W):
                WX[:len(xs), g] = W_g.apply(xs, counters, in_scale)[..., 0]
        return rows[t % _BLOCK]

    def recur(h):  # one gemv per gate, rounding like U_g @ h
        return np.matmul(U_all, h, UH)
    return inputs, recur, UH


@dataclass
class DenseWeights:
    """y = phi(W x + b)."""

    W: np.ndarray
    b: np.ndarray

    def stepper(self, spec: Dense, x, mode, in_scale, counters, feedback):
        W = _CountedMatrix(self.W, mode)

        def step(t, state):
            # x[..., None]: a column per input, which rounds like W @ x
            y = W.apply(x[..., None], counters, in_scale)[..., 0]
            return _activate(spec.activation, _bias_add(y, self.b, counters),
                             counters)
        return step


@dataclass
class ConvWeights:
    """y[f, j] = phi(b_f + sum_m kernels[f, m] . xp[j stride + m dilation]),
    xp the input with ``padding`` zero rows on each side."""

    kernels: np.ndarray  # (n_f, n_k, n_i)
    biases: np.ndarray  # (n_f,)

    def stepper(self, spec: Conv1D, x, mode, in_scale, counters, feedback):
        out_w = spec.output_size
        if out_w == 0:
            raise EmptyOutput("no valid kernel placement for this "
                              "configuration")
        kernel = _CountedMatrix(
            self.kernels.reshape(spec.n_f, spec.n_k * spec.n_i), mode)
        starts = np.arange(out_w) * spec.stride
        taps = np.arange(spec.n_k) * spec.dilation

        def maps(x):
            padded = (np.pad(x, ((spec.padding, spec.padding), (0, 0)))
                      if spec.padding else x)
            windows = padded[starts[:, None] + taps[None, :], :]
            flat_windows = windows.reshape(out_w, spec.n_k * spec.n_i).T
            y = kernel.apply(flat_windows, counters, in_scale)
            return _activate(spec.activation, _bias_add(
                y, self.biases[:, None], counters), counters)

        def step(t, state):
            # A batch runs input by input: one stacked product rounds
            # differently when n_f = 1.
            return maps(x) if x.ndim == 2 else np.stack([maps(s) for s in x])
        return step


@dataclass
class RNNWeights:
    """h_t = phi(W x_t + U h_{t-1} + b)."""

    W: np.ndarray  # (n_h, n_i)
    U: np.ndarray  # (n_h, n_h)
    b: np.ndarray  # (n_h,)

    def stepper(self, spec: VanillaRNN, x, mode, in_scale, counters,
                feedback):
        inputs, recur, _ = _gates(
            self.W, self.U, x, mode, in_scale, counters,
            OpCounters(adds=spec.n_h, activations=spec.n_h))
        act = _ACTIVATIONS[spec.activation]
        pre, scratch = np.empty((1, spec.n_h)), np.empty((2, spec.n_h))
        row = pre[0]

        def step(t, state):
            np.add(inputs(t), recur(state.h), pre)
            np.add(pre, self.b, pre)
            return act(row, state.h, scratch)
        return step


@dataclass
class LSTMWeights:
    """Sigmoid input, forget and output gates i, f, o and a phi cell update:
    C_t = f * C_{t-1} + i * phi(W_c x_t + U_c h_{t-1} + b_c) and
    h_t = o * phi(C_t). The forget blend, input injection and output gating
    are Hadamard products of n_h multiplications each. Gate order along the
    leading axis: input, forget, output, cell."""

    W: np.ndarray  # (4, n_h, n_i)
    U: np.ndarray  # (4, n_h, n_h)
    b: np.ndarray  # (4, n_h)

    def stepper(self, spec: LSTM, x, mode, in_scale, counters, feedback):
        n = spec.n_h  # per step: 4 biases, 3 Hadamards, the cell-state add
        inputs, recur, _ = _gates(self.W, self.U, x, mode, in_scale, counters,
                                  OpCounters(mults=3 * n, adds=5 * n,
                                             activations=5 * n))
        act = _ACTIVATIONS[spec.activation]
        pre = np.empty((4, n))
        sigmoids, (i_t, f_t, o_t, cand) = pre[:3], pre
        sig_scratch, scratch = np.empty((2, 3, n)), np.empty((2, n))

        def step(t, state):
            np.add(inputs(t), recur(state.h), pre)
            np.add(pre, self.b, pre)
            _stable_sigmoid(sigmoids, sigmoids, sig_scratch)
            act(cand, cand, scratch)
            np.multiply(f_t, state.C, state.C)
            np.multiply(i_t, cand, cand)
            np.add(state.C, cand, state.C)
            act(state.C, state.h, scratch)
            return np.multiply(o_t, state.h, state.h)
        return step


@dataclass
class GRUWeights:
    """Sigmoid update and reset gates z, r and a phi candidate
    c_t = phi(W_c x_t + r * (U_c h_{t-1}) + b_c);
    h_t = z * h_{t-1} + (1 - z) * c_t. The reset, retain and renew products
    cost n_h multiplications each. Gate order along the leading axis:
    update, reset, candidate."""

    W: np.ndarray  # (3, n_h, n_i)
    U: np.ndarray  # (3, n_h, n_h)
    b: np.ndarray  # (3, n_h)

    def stepper(self, spec: GRU, x, mode, in_scale, counters, feedback):
        n = spec.n_h  # per step: 3 biases, reset, retain and renew products
        inputs, recur, UH = _gates(
            self.W, self.U, x, mode, in_scale, counters,
            OpCounters(mults=3 * n, adds=5 * n, activations=3 * n))
        act = _ACTIVATIONS[spec.activation]
        pre, UH_c, b_c = np.empty((3, n)), UH[2], self.b[2]
        sigmoids, (z_t, r_t, cand) = pre[:2], pre
        sig_scratch, scratch = np.empty((2, 2, n)), np.empty((2, n))
        tmp = np.empty(n)

        def step(t, state):
            WX = inputs(t)
            np.add(WX, recur(state.h), pre)  # its candidate row: see below
            np.add(pre, self.b, pre)
            _stable_sigmoid(sigmoids, sigmoids, sig_scratch)
            np.multiply(r_t, UH_c, cand)
            np.add(WX[2], cand, cand)
            np.add(cand, b_c, cand)
            act(cand, cand, scratch)
            np.subtract(_ONE, z_t, tmp)
            np.multiply(tmp, cand, cand)
            np.multiply(z_t, state.h, state.h)
            return np.add(state.h, cand, state.h)
        return step


@dataclass
class ESNWeights:
    """Leaky reservoir and linear readout. Per step:
    a_t = phi(W_r s + W_in x [+ W_back y_prev]);
    s_t = (1 - leak) s + leak a_t (two multiplications per unit);
    y_t = W_o s_t + b_o. Output feedback is off unless asked for, matching
    the analytic count."""

    W_in: np.ndarray  # (N_r, n_i)
    W_r: np.ndarray  # (N_r, N_r), sparse with row_nonzeros entries per row
    W_o: np.ndarray  # (n_o, N_r)
    b_o: np.ndarray  # (n_o,)
    W_back: np.ndarray | None = None  # (N_r, n_o)

    def stepper(self, spec: EchoState, x, mode, in_scale, counters,
                feedback):
        N_r = spec.N_r  # per step: the leaky update (2 mults, 1 add), b_o
        per_step = OpCounters(mults=2 * N_r, adds=N_r + spec.n_o,
                              activations=N_r)
        W_o = _CountedMatrix(self.W_o, mode)
        W_o.tally(per_step, 1)
        if feedback:
            _check(self.W_back is not None, "W_back shape mismatch")
            W_back = _CountedMatrix(self.W_back, mode)
            W_back.tally(per_step, 1)
            per_step.adds += N_r
        inputs, recur, _ = _gates(self.W_in, self.W_r, x, mode, in_scale,
                                  counters, per_step)
        act = _ACTIVATIONS[spec.activation]
        mu = float(spec.leak)
        keep, mu = np.asarray(1.0 - mu), np.asarray(mu)  # 0-d, as _ONE
        pre, back, scratch = (np.empty((1, N_r)), np.empty(N_r),
                              np.empty((2, N_r)))
        a = pre[0]

        def step(t, state):
            np.add(recur(state.s), inputs(t), pre)
            if feedback:
                np.add(a, np.matmul(W_back.values, state.y_prev, back), a)
            act(a, a, scratch)
            np.multiply(keep, state.s, state.s)
            np.multiply(mu, a, a)
            np.add(state.s, a, state.s)
            np.matmul(W_o.values, state.s, state.y_prev)
            return np.add(state.y_prev, self.b_o, state.y_prev)
        return step


LayerWeights = (DenseWeights | ConvWeights | RNNWeights | LSTMWeights
                | GRUWeights | ESNWeights)

# The interpreter's half of the layer-kind table (``arch.KINDS`` holds the
# rest): each kind's weights class. It holds the kind's named arrays and
# builds its step: ``stepper(spec, x, mode, in_scale, counters, feedback)``
# sees the whole input x, prepares one counted matrix per weight, per gate
# for gated cells (fixed-point scales are per matrix; gates stacked into one
# 2-D matrix round differently, a 3-D stack of them does not), hoists
# recurrent input products, tallies the rest in closed form and returns
# ``step(t, state)``: the output of the one step t = 0 of a feedforward
# kind, or of time step t, updating the ``CellState`` in place (a recurrent
# output may be a state vector, which the next step overwrites).
EXECUTION = {Dense: DenseWeights, Conv1D: ConvWeights, VanillaRNN: RNNWeights,
             LSTM: LSTMWeights, GRU: GRUWeights, EchoState: ESNWeights}
_KIND_BY_WEIGHTS = {weights: arch.KINDS[cls]
                    for cls, weights in EXECUTION.items()}


@dataclass
class CellState:
    """Recurrent state carried across steps and, in stateful mode, batches."""

    h: np.ndarray | None = None
    C: np.ndarray | None = None
    s: np.ndarray | None = None
    y_prev: np.ndarray | None = None


def zero_state(spec) -> CellState:
    """All-zero state of a recurrent layer; TypeError for a feedforward one."""
    state = arch.layer_kind(spec).state(spec)
    if not state:
        raise TypeError(f"no recurrent state for {spec!r}")
    return CellState(**{n: np.zeros(shape) for n, shape in state.items()})


def random_weights(spec, seed) -> LayerWeights:
    """Seeded uniform [-1, 1] weights shaped for the layer.

    Arrays are drawn in table order, except that the echo-state recurrent
    matrix comes first: it receives exactly ``spec.row_nonzeros`` nonzero
    entries per row, at seeded positions, so the measured multiplication
    count matches the analytic formula.
    """
    rng = np.random.default_rng(seed)  # a Generator passes through as is
    kind = arch.layer_kind(spec)
    shapes = kind.weights(spec)
    arrays = {}
    if kind.sparse:
        arrays[kind.sparse] = np.zeros(shapes[kind.sparse])
        r = spec.row_nonzeros
        for row in arrays[kind.sparse]:
            cols = rng.choice(row.size, size=r, replace=False)
            row[cols] = rng.uniform(-1.0, 1.0, size=r)
    for name, shape in shapes.items():
        if name not in arrays:
            arrays[name] = rng.uniform(-1.0, 1.0, size=shape)
    return EXECUTION[type(spec)](**arrays)


def apply_prune_mask(weights: LayerWeights, mask: quant.PruneMask
                     ) -> LayerWeights:
    """Zero out pruned weights; the interpreter then skips their products.

    The mask indexes the layer's multiplicative weights in row-major order
    over W then U (recurrent cells) or over the kernel tensor; for echo
    state layers the recurrent part covers only the stored nonzeros, in
    row-major position order.
    """
    kind = _KIND_BY_WEIGHTS.get(type(weights))
    if kind is None:
        raise TypeError(f"unsupported weights: {weights!r}")
    out = copy.deepcopy(weights)
    flags = np.asarray(mask.keep, dtype=bool)
    cursor = 0
    for name in kind.pruned:
        values = getattr(out, name)
        flat = values.reshape(-1)  # row-major: a copy unless C-contiguous
        slots = (np.flatnonzero(flat) if name == kind.sparse
                 else np.arange(flat.size))
        take = flags[cursor:cursor + slots.size]
        if take.size != slots.size:
            raise ShapeError("mask shorter than weight count")
        flat[slots[~take]] = 0.0
        setattr(out, name, flat.reshape(values.shape))
        cursor += slots.size
    if cursor != flags.size:
        raise ShapeError(
            f"mask has {flags.size} entries, layer weights have {cursor}")
    return out


# ---------------------------------------------------------------------------
# Forward passes: one skeleton for every layer kind


def _check(condition: bool, message: str):
    if not condition:
        raise ShapeError(message)


def _check_shapes(spec, kind: arch.LayerKind, weights, x: np.ndarray,
                  init_state: CellState | None):
    """Every weight, the input and every given state vector against the
    table's shapes. A weight with a None default (the echo-state feedback
    matrix) may be absent."""
    optional = {f.name for f in fields(weights) if f.default is None}
    for name, shape in kind.weights(spec).items():
        value = getattr(weights, name)
        _check(np.shape(value) == shape or value is None and name in optional,
               f"{name} shape mismatch")
    state = kind.state(spec)
    if state:  # any number of steps
        _check(x.ndim == 2 and x.shape[1] == spec.n_i,
               "input sequence shape mismatch")
    else:  # one nominal input or a batch of them
        nominal = kind.input_shape(spec)
        _check(x.shape in (nominal, x.shape[:1] + nominal),
               "input shape mismatch")
    for name, shape in state.items():
        value = getattr(init_state, name, None)
        _check(value is None or np.shape(value) == shape,
               f"init_state.{name} shape mismatch")


def run_layer(spec, weights, x, mode: Mode = "float",
              init_state: CellState | None = None, feedback: bool = False,
              state_trace: list | None = None
              ) -> tuple[np.ndarray, CellState | None, OpCounters]:
    """Run one layer with counted operations; returns (outputs, final state
    or None for a feedforward kind, counters). See the module docstring.

    A feedforward layer takes its nominal input (``input_shape``) or a
    batch of them along a leading axis: counted once per input, one
    fixed-point input scale for the batch, convolutions run input by input.
    A recurrent layer runs a sequence of any length (the analytic count
    takes ``spec.n_s``) from ``init_state``; state vectors it leaves out
    start at 0. ``feedback`` turns on echo-state output feedback; other
    kinds ignore it. A ``state_trace`` list receives a copy of the readout
    state (else h) after every step. ``init_state`` or ``state_trace`` for
    a feedforward layer is a TypeError.
    """
    if not (isinstance(mode, FixedPoint) or mode == "float"):
        raise DomainError(f"mode must be 'float' or FixedPoint: {mode!r}")
    kind = arch.layer_kind(spec)
    state_shapes = kind.state(spec)
    if not state_shapes and (init_state is not None
                             or state_trace is not None):
        raise TypeError(f"init_state and state_trace need a recurrent layer, "
                        f"got {layer_type_name(spec)}")
    x = np.asarray(x, dtype=float)
    _check_shapes(spec, kind, weights, x, init_state)
    counters = OpCounters()
    x, in_scale = (_quantize_operand(x, mode.bits.b_i)
                   if isinstance(mode, FixedPoint) else (x, None))
    step = EXECUTION[type(spec)].stepper(weights, spec, x, mode, in_scale,
                                         counters, feedback)
    if not state_shapes:
        return step(0, None), None, counters
    state = CellState()
    for name, shape in state_shapes.items():
        given = getattr(init_state, name, None)
        setattr(state, name, np.zeros(shape) if given is None
                else np.array(given, dtype=float))
    outs = np.empty((x.shape[0], kind.output_width(spec)))
    for t in range(x.shape[0]):
        outs[t] = step(t, state)
        if state_trace is not None:
            state_trace.append(getattr(state, kind.readout or "h").copy())
    return outs, state, counters


def run_stream(spec, weights, stream) -> tuple[np.ndarray, np.ndarray]:
    """Run a layer in float over a stream with one row per step; returns
    one output row per step, and the ``readout`` state per step in place of
    the output where the kind has its own readout (an echo-state s).

    A recurrent layer runs over the whole stream from zero state. At step t
    a feedforward layer sees its nominal input ending at t (the row for a
    dense layer, all rows in one batch; the last n_s rows, zero before the
    stream starts, for a convolution) and emits its output flattened.
    """
    stream = np.asarray(stream, dtype=float)
    kind = arch.layer_kind(spec)
    if kind.state(spec):
        trace = [] if kind.readout else None
        outputs, _, _ = run_layer(spec, weights, stream, state_trace=trace)
        return outputs, outputs if trace is None else np.stack(trace)
    nominal = kind.input_shape(spec)
    span = math.prod(nominal[:-1])
    n, width = stream.shape
    padded = np.zeros((span - 1 + n, width))
    padded[span - 1:] = stream
    padded.flags.writeable = False
    # Window t is rows t .. t + span - 1 of the padded stream: a read-only
    # view whose first two axes both step one row.
    row, column = padded.strides
    samples = np.ndarray((n, span, width), buffer=padded,
                         strides=(row, row, column))
    outputs, _, _ = run_layer(spec, weights, samples.reshape(
        (n,) + nominal[:-1] + (width,)))
    outputs = outputs.reshape(n, -1)
    return outputs, outputs


def run_batches(spec, weights, batches, state_mode: str = "stateless",
                mode: Mode = "float", feedback: bool = False
                ) -> tuple[list, OpCounters]:
    """Run a recurrent layer over a list of input sequences.

    stateless: state resets to zero before every batch. stateful: the final
    state of batch j seeds batch j+1, so a stateful run over consecutive
    batches equals one run over their concatenation.
    """
    if state_mode not in ("stateless", "stateful"):
        raise ValueError("state_mode must be 'stateless' or 'stateful'")
    if not batches:
        raise ValueError("batches must be nonempty")
    if not arch.layer_kind(spec).state(spec):
        raise TypeError(f"run_batches requires a recurrent layer, "
                        f"got {layer_type_name(spec)}")
    counters = OpCounters()
    outputs = []
    state = None  # zero
    for batch in batches:
        out, state, c = run_layer(spec, weights, batch, mode,
                                  state if state_mode == "stateful" else None,
                                  feedback)
        counters.merge(c)
        outputs.append(out)
    return outputs, counters


# ---------------------------------------------------------------------------
# Reference filters


def fir_filter(taps, x) -> np.ndarray:
    """y_i = sum_m x_{i-m} taps_m with zero initial conditions."""
    taps = np.asarray(taps, dtype=float)
    x = np.asarray(x, dtype=float)
    if taps.size == 0:
        raise ValueError("taps must be nonempty")
    return np.convolve(x, taps)[:x.size]


def iir_filter(a, b, x) -> np.ndarray:
    """Difference equation y(t) = sum_k a_k x(t-k) + sum_k b_k y(t-k).

    ``a`` are the feedforward taps (k = 0..q), ``b`` the feedback taps
    (k = 1..p, may be empty); initial conditions are zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.size == 0:
        raise ValueError("feedforward coefficients must be nonempty")
    y = 0.0 + a[0] * x  # sums start at +0.0, taps add in order k = 0..q
    for k in range(1, min(a.size, x.size)):
        y[k:] += a[k] * x[:-k]
    for t in range(1, x.size):
        for k in range(1, min(b.size, t) + 1):
            y[t] += b[k - 1] * y[t - k]
    return y


# ---------------------------------------------------------------------------
# Audit: analytic formulas vs measured counts


def _nominal_input(spec, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=arch.layer_kind(spec).input_shape(spec))


@dataclass
class LayerAudit:
    layer_index: int
    layer_type: str
    analytic_rm: int
    analytic_nabs: int
    mults: int
    adds: int
    shifts: int
    activations: int
    delta: int


@dataclass
class AuditRecord:
    """Reconciliation of analytic counts against a measured execution.

    ``delta = (mults + shifts) - analytic_rm`` per layer: shifts stand in
    for the multiplications a PoT weight replaces. The delta is zero for
    every layer type under float, uniform and PoT execution with echo-state
    feedback off; feedback adds n_s * N_r * n_o surplus multiplications and
    APoT decomposes one product into several shifts, both reported as
    positive deltas rather than hidden.
    """

    seed: int
    mode: str
    per_layer: list
    totals: dict
    overflow_count: int = 0

    @property
    def max_abs_delta(self) -> int:
        return max((abs(e.delta) for e in self.per_layer), default=0)

    def to_json(self) -> dict:
        return {**vars(self), "per_layer": [vars(e) for e in self.per_layer],
                "totals": dict(self.totals)}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def audit(net: NetworkSpec, bits: BitwidthConfig, scheme: quant.QuantScheme,
          seed: int, mode: Mode = "float", esn_feedback: bool = False
          ) -> AuditRecord:
    """Generate seeded weights and inputs, execute, compare with formulas.

    Each layer runs independently on its nominal input shape (one pass for
    a dense layer, n_s steps for sequence layers), which is exactly what
    the analytic per-layer counts describe. A ``FixedPoint`` mode must
    carry the audited ``bits`` and ``scheme``, or DomainError is raised."""
    if isinstance(mode, FixedPoint) and mode != FixedPoint(bits, scheme):
        raise DomainError(f"fixed-point mode {mode!r} differs from the "
                          f"audited bits {bits!r} and scheme {scheme!r}")
    per_layer = []
    totals = OpCounters()
    for index, layer in enumerate(net.layers):
        rng = np.random.default_rng([seed, index])
        weights = random_weights(layer, rng)
        x = _nominal_input(layer, rng)
        _, _, counters = run_layer(layer, weights, x, mode,
                                   feedback=esn_feedback)
        analytic_rm = costmodel.rm_layer(layer)
        per_layer.append(LayerAudit(
            index, layer_type_name(layer), analytic_rm,
            costmodel.nabs_layer(layer, bits, scheme), **counters.as_dict(),
            delta=counters.mults + counters.shifts - analytic_rm))
        totals.merge(counters)
    return AuditRecord(
        seed, "float" if mode == "float" else "fixed", per_layer,
        {"analytic_rm": sum(e.analytic_rm for e in per_layer),
         "analytic_nabs": sum(e.analytic_nabs for e in per_layer),
         **totals.as_dict()},
        overflow_count=totals.overflows)
