"""Instrumented reference interpreter for the supported layer equations.

Executes each layer in float or fixed-point mode while counting the
multiplications, additions, bit shifts and activation evaluations actually
performed. The measured multiplication count is the brute-force oracle for
the analytic cost model: for every layer type (echo state networks with
output feedback disabled) it reproduces the analytic RM exactly.

``run_layer`` is the one entry point, and every forward pass runs its one
skeleton: check each weight, the input and any given state against the
shapes in ``arch.KINDS``, quantize the input in fixed point, build the
kind's runner (``EXECUTION``), then run it once on a feedforward input, or
over the whole sequence from a copy of the given or zero state into an
output buffer. Only the runner differs between layer types, and each
kind's equations are in the docstring of its weights class. A recurrent
runner takes the state and the output buffer. A kind with its own readout
(the echo state) also takes the state trace, and appends its readout
state to it per step; for the other kinds the output row is h, and
``run_layer`` copies the rows into the trace.

A recurrent runner loops over the time steps itself, and its step is
fused. Each gate's input products W_g x_t are hoisted out of the time
loop, one batched product per gate and block of steps, which the runner
reads row by row from one iterator (``_gates``); per step one product of
the (G, n_h, n_h) stack of the U_g with h, which numpy runs as one gemv
per gate, fills a (G, n_h) buffer, (W x + U h) + b is one pair of adds
over all gates and one sigmoid, with one exp, covers the sigmoid gates.
Counts are closed form: the per-step tally times the number of steps. The
gates are never stacked into one 2-D (G n_h, n) matrix, whose product BLAS
rounds apart from the per-gate products.

A recurrent run allocates nothing per step, except that an echo-state
run given a trace appends a copy of s to it each step. Its ufuncs, gate,
exponent and candidate buffers and their views are bound once per run;
each step writes through ufunc outputs, its last ufunc writes h straight
into the step's output row, where the next step reads it, and the other
state vectors are updated in place. The final h is copied into the
returned state at the end. An echo state layer instead computes y in its
state vector and copies it into the row, because a BLAS product can round
a vector apart by its address: OpenBLAS's Prescott dot does for one that
starts 8 bytes off a 16-byte boundary, as a row of odd width can, and with
one reservoir unit the feedback product W_back y is such a dot. The
product that reads h from its row has n_h rows, a gemv, which rounded
alike at every address on each x86-64 OpenBLAS kernel tried, or for
n_h = 1 a one-term dot. Every input product (dense W, the convolution
kernel, each gate's W_g, the echo state W_in) runs through the counted
product. A one-row matrix applied to column vectors is a BLAS dot per
vector, so the counted product aligns it: it runs on a copy of the
vectors, each starting on a 16-byte boundary, and a row of a batch or
stream rounds as it does alone.

The operations, their operand order and their lengths are those of the
plain expressions, so the bits are too, provided every ufunc runs the loop
it would have run on fresh arrays: numpy's SIMD and scalar loops round exp
and tanh apart, an output that partly overlaps an input can move a ufunc
off its SIMD loop, and a vector body and its scalar tail pass on different
NaN payloads of a product of two NaNs, so joining two products into one
longer call changes bits. So every operand is contiguous, and an output
aliases an input only exactly (in place).

Counting conventions:

* element-wise (Hadamard) products count one multiplication per element;
* the leaky state update of an echo state layer costs two multiplications
  and one addition per reservoir unit;
* multiplications by stored zero weights are skipped (zero-skipping), which
  is how pruning masks lower the measured count;
* activation evaluations are tallied separately, never folded into
  mults/adds;
* in fixed-point mode a weight product counts what the scheme's
  ``products`` say (``quant``): a multiplication, one barrel shift (PoT,
  under ``shifts``), or one shift per term plus joining adds (APoT).

Fixed-point mode quantizes the layer input symmetrically to ``b_i`` bits
and the weights per the chosen scheme; products and accumulations are then
exact, so the only deviation from float execution is the input rounding.
Accumulators are sized by ``acc_bits`` and saturate on overflow. Overflow
is counted where the quantizer gives integer codes (uniform), which match
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


def _sigmoid(shape):
    """The stable sigmoid of arrays of ``shape``: returns ``f(v, out)``,
    which writes 1/(1+e) for v >= 0 and e/(1+e) below, e = exp(-|v|) (NaN
    sign kept), into ``out`` (v itself allowed; a new array when None) and
    returns it. The numerator exp(min(v, 0)) is exactly 1 or e, and nothing
    overflows. Both exponents share one buffer, bound with its views here,
    and one exp."""
    e = np.empty((2,) + tuple(shape))
    num, den = e[0, ...], e[1, ...]  # views, also of a 0-d input's pair
    minimum, negative, exp, add, divide = (np.minimum, np.negative, np.exp,
                                           np.add, np.divide)

    def f(v, out):
        minimum(v, _ZERO, out=num)
        negative(v, den)
        minimum(v, den, out=den)
        exp(e, e)
        add(_ONE, den, den)
        return divide(num, den, out)
    return f


def _stable_sigmoid(v: np.ndarray):
    return _sigmoid(np.shape(v))(v, None)


def _copy(v, out):
    np.copyto(out, v)
    return out


def _relu(v, out):
    return np.maximum(v, _ZERO, out=out)


# phi for arrays of a shape: ``_ACTIVATIONS[name](shape)`` returns f(v, out),
# which writes phi(v) into out (v itself allowed) and returns it. (A
# positional out of minimum and maximum is deprecated, and slow; other
# ufuncs take theirs positionally, which is faster.)
_ACTIVATIONS = {
    "linear": lambda shape: _copy,
    "relu": lambda shape: _relu,
    "tanh": lambda shape: np.tanh,
    "sigmoid": _sigmoid,
}


def _activate(name: str, v: np.ndarray, counters: OpCounters):
    """phi of a freshly computed pre-activation, in place."""
    counters.activations += int(np.size(v))
    return _ACTIVATIONS[name](np.shape(v))(v, v)


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

    ``counts`` is what one application counts: the scheme's products with
    the nonzero stored weights (float mode: a multiplication each) plus the
    accumulating adds. A quantizer giving integer codes (uniform) sets the
    ``scale`` and ``cap`` of the saturating-accumulator overflow check."""

    def __init__(self, values: np.ndarray, mode: Mode):
        self.values = values = np.asarray(values, dtype=float)
        self.rows, self.cols = values.shape
        nnz = int(np.count_nonzero(values))
        self.counts, self.scale = OpCounters(mults=nnz), None
        if isinstance(mode, FixedPoint):
            qw = quant.quantize(values, mode.scheme)
            self.values = qw.values
            self.counts = OpCounters(**mode.scheme.products(qw, nnz))
            if qw.codes is not None:
                self.scale = qw.scale
                self.cap = (1 << (costmodel.acc_bits(
                    self.cols, mode.bits.b_w, mode.bits.b_i) - 1)) - 1
        self.counts.adds += self.rows * (self.cols - 1)

    def tally(self, counters: OpCounters, applications: int):
        """Count ``applications`` products with this matrix."""
        counters.merge(self.counts, applications)

    def apply(self, x: np.ndarray, counters: OpCounters,
              input_scale: float | None = None) -> np.ndarray:
        """Counted product self.values @ x for x of shape (cols, m) or
        (m, cols, 1): one application per column vector."""
        self.tally(counters, x.size // self.cols)
        if self.rows == 1 and x.shape[-1] == 1:  # a dot per column: align
            x = _aligned_rows(x[..., 0])[..., None]
        y = self.values @ x
        if self.scale is not None and input_scale:
            # Saturating accumulator check in integer-code units.
            lsb = self.scale * input_scale
            over = np.abs(y / lsb) > self.cap
            if np.any(over):
                counters.overflows += int(np.count_nonzero(over))
                y = np.clip(y, -self.cap * lsb, self.cap * lsb)
        return y


def _aligned_rows(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` whose every row (along the last axis) starts on a
    16-byte boundary, as a freshly allocated vector does. A product with a
    one-row matrix is a BLAS dot per row, and OpenBLAS's Prescott dot
    rounds a vector that starts 8 bytes off that boundary apart, so the
    product of a row would depend on where the row sits in its batch or
    stream."""
    n = x.shape[-1]
    width = n + n % 2  # a whole number of 16-byte units per row
    count = x.size // n if n else 0
    buffer = np.empty(count * width + 1)
    # the address; reading it through ndarray.ctypes retained about 56
    # bytes per call
    start = buffer.__array_interface__["data"][0] % 16 // 8
    rows = buffer[start:start + count * width].reshape(
        x.shape[:-1] + (width,))[..., :n]
    rows[...] = x
    return rows


def _bias_add(y: np.ndarray, b: np.ndarray, counters: OpCounters):
    counters.adds += int(np.size(y))
    return y + b


# ---------------------------------------------------------------------------
# Weights and steps: one class per layer kind


_BLOCK = 256  # steps per hoisted input product: bounds its buffer


def _gates(W, U, x, mode, in_scale, counters: OpCounters,
           per_step: OpCounters):
    """Counted products of a recurrent run's gates: W (G, rows, cols) and U
    (G, rows, rows), or one gate's 2-D W and U. Each gate keeps its own
    counted matrix (counts, fixed-point scale). Returns ``inputs()``, which
    yields every step's (G, rows) products W_g x_t for t = 0, 1, ... in
    order, computing them per gate and block of _BLOCK steps as it reaches
    them, into views of one buffer that the next block overwrites; the 3-D
    stack of the U_g, whose product with h numpy runs as one gemv per gate,
    rounding like U_g @ h; and a (G, rows) buffer for that product. Counts
    T times ``per_step``, the U products and the add of W x + U h; the W
    products as they run."""
    W, U = ([_CountedMatrix(m, mode) for m in a.reshape((-1,) + a.shape[-2:])]
            for a in (W, U))
    WX = np.empty((min(len(x), _BLOCK), len(W), W[0].rows))
    UH = np.empty((len(U), U[0].rows))
    for U_g in U:
        U_g.tally(per_step, 1)
    per_step.adds += UH.size
    counters.merge(per_step, len(x))
    rows = list(WX)  # one view per step of a block, made once

    def inputs():
        for start in range(0, len(x), _BLOCK):
            xs = x[start:start + _BLOCK, :, None]
            for g, W_g in enumerate(W):
                WX[:len(xs), g] = W_g.apply(xs, counters, in_scale)[..., 0]
            yield from rows[:len(xs)]
    return inputs, np.stack([U_g.values for U_g in U]), UH


@dataclass
class DenseWeights:
    """y = phi(W x + b)."""

    W: np.ndarray
    b: np.ndarray

    def stepper(self, spec: Dense, x, mode, in_scale, counters, feedback):
        W = _CountedMatrix(self.W, mode)

        def run():
            # x[..., None]: a column per input, which rounds like W @ x
            y = W.apply(x[..., None], counters, in_scale)[..., 0]
            return _activate(spec.activation, _bias_add(y, self.b, counters),
                             counters)
        return run


@dataclass
class ConvWeights:
    """y[f, j] = phi(b_f + sum_m kernels[f, m] . xp[j stride + m dilation]),
    xp the input with ``padding`` zero rows on each side."""

    kernels: np.ndarray  # (n_f, n_k, n_i)
    biases: np.ndarray  # (n_f,)

    def stepper(self, spec: Conv1D, x, mode, in_scale, counters, feedback):
        out_w = spec.output_size
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

        def run():
            # A batch runs input by input: one stacked product rounds
            # differently when n_f = 1.
            return maps(x) if x.ndim == 2 else np.stack([maps(s) for s in x])
        return run


@dataclass
class RNNWeights:
    """h_t = phi(W x_t + U h_{t-1} + b)."""

    W: np.ndarray  # (n_h, n_i)
    U: np.ndarray  # (n_h, n_h)
    b: np.ndarray  # (n_h,)

    def stepper(self, spec: VanillaRNN, x, mode, in_scale, counters,
                feedback):
        n = spec.n_h
        inputs, U, UH = _gates(self.W, self.U, x, mode, in_scale, counters,
                               OpCounters(adds=n, activations=n))
        act, b = _ACTIVATIONS[spec.activation]((n,)), self.b

        def run(state, outs):
            matmul, add = np.matmul, np.add
            pre = np.empty((1, n))
            row, h = pre[0], state.h
            for WX, h_t in zip(inputs(), outs):
                matmul(U, h, UH)
                add(WX, UH, pre)
                add(pre, b, pre)
                h = act(row, h_t)
            np.copyto(state.h, h)
        return run


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
        inputs, U, UH = _gates(self.W, self.U, x, mode, in_scale, counters,
                               OpCounters(mults=3 * n, adds=5 * n,
                                          activations=5 * n))
        act, sigmoid, b = (_ACTIVATIONS[spec.activation]((n,)),
                           _sigmoid((3, n)), self.b)

        def run(state, outs):
            matmul, add, multiply = np.matmul, np.add, np.multiply
            pre = np.empty((4, n))
            sigmoids, (i_t, f_t, o_t, cand) = pre[:3], pre
            C, h = state.C, state.h
            for WX, h_t in zip(inputs(), outs):
                matmul(U, h, UH)
                add(WX, UH, pre)
                add(pre, b, pre)
                sigmoid(sigmoids, sigmoids)
                act(cand, cand)
                multiply(f_t, C, C)
                multiply(i_t, cand, cand)
                add(C, cand, C)
                act(C, h_t)
                h = multiply(o_t, h_t, h_t)
            np.copyto(state.h, h)
        return run


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
        inputs, U, UH = _gates(self.W, self.U, x, mode, in_scale, counters,
                               OpCounters(mults=3 * n, adds=5 * n,
                                          activations=3 * n))
        act, sigmoid, b = (_ACTIVATIONS[spec.activation]((n,)),
                           _sigmoid((2, n)), self.b)

        def run(state, outs):
            matmul, add, subtract, multiply = (np.matmul, np.add,
                                               np.subtract, np.multiply)
            pre, tmp = np.empty((3, n)), np.empty(n)
            sigmoids, (z_t, r_t, cand) = pre[:2], pre
            UH_c, b_c, h = UH[2], b[2], state.h
            for WX, h_t in zip(inputs(), outs):
                matmul(U, h, UH)
                add(WX, UH, pre)  # its candidate row: overwritten below
                add(pre, b, pre)
                sigmoid(sigmoids, sigmoids)
                multiply(r_t, UH_c, cand)
                add(WX[2], cand, cand)
                add(cand, b_c, cand)
                act(cand, cand)
                subtract(_ONE, z_t, tmp)
                multiply(tmp, cand, cand)
                multiply(z_t, h, h_t)
                h = add(h_t, cand, h_t)
            np.copyto(state.h, h)
        return run


@dataclass
class ESNWeights:
    """Leaky reservoir and linear readout. Per step:
    a_t = phi(W_r s + W_in x [+ W_back y_prev]);
    s_t = (1 - leak) s + leak a_t (two multiplications per unit);
    y_t = W_o s_t + b_o. Output feedback is off unless asked for, matching
    the analytic count. y is computed in the state's y_prev and copied
    into the output row (the module docstring says why)."""

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
        inputs, W_r, UH = _gates(self.W_in, self.W_r, x, mode, in_scale,
                                 counters, per_step)
        act = _ACTIVATIONS[spec.activation]((N_r,))
        mu = float(spec.leak)
        keep, mu = np.asarray(1.0 - mu), np.asarray(mu)  # 0-d, as _ONE

        def run(state, outs, trace):
            matmul, add, multiply, copyto = (np.matmul, np.add, np.multiply,
                                             np.copyto)
            pre, back = np.empty((1, N_r)), np.empty(N_r)
            a, s, y, W_o_values, b_o = (pre[0], state.s, state.y_prev,
                                        W_o.values, self.b_o)
            for WX, y_t in zip(inputs(), outs):
                matmul(W_r, s, UH)
                add(UH, WX, pre)
                if feedback:
                    add(a, matmul(W_back.values, y, back), a)
                act(a, a)
                multiply(keep, s, s)
                multiply(mu, a, a)
                add(s, a, s)
                matmul(W_o_values, s, y)
                add(y, b_o, y)
                copyto(y_t, y)
                if trace is not None:
                    trace.append(s.copy())
        return run


LayerWeights = (DenseWeights | ConvWeights | RNNWeights | LSTMWeights
                | GRUWeights | ESNWeights)

# The interpreter's half of the layer-kind table (``arch.KINDS`` holds the
# rest): each kind's weights class. It holds the kind's named arrays and
# builds its runner: ``stepper(spec, x, mode, in_scale, counters, feedback)``
# sees the whole input x, prepares one counted matrix per weight, per gate
# for gated cells (fixed-point scales are per matrix; gates stacked into one
# 2-D matrix round differently, a 3-D stack of them does not), hoists
# recurrent input products and tallies the rest in closed form. A
# feedforward kind returns ``run()``, which returns its output. A recurrent
# kind returns ``run(state, outs)``, which loops over every time step: it
# writes step t's output (h) into row t of ``outs`` and leaves the final
# state in the ``CellState``, whose vectors belong to the run. A kind with
# its own readout returns ``run(state, outs, trace)``, which also appends a
# copy of its readout state to ``trace`` per step unless it is None.
EXECUTION = {Dense: DenseWeights, Conv1D: ConvWeights, VanillaRNN: RNNWeights,
             LSTM: LSTMWeights, GRU: GRUWeights, EchoState: ESNWeights}
_KIND_BY_WEIGHTS = {weights: arch.KINDS[cls]
                    for cls, weights in EXECUTION.items()}


@dataclass
class CellState:
    """Recurrent state carried across steps and, passed back to
    ``run_layer`` as ``init_state``, across batches."""

    h: np.ndarray | None = None
    C: np.ndarray | None = None
    s: np.ndarray | None = None
    y_prev: np.ndarray | None = None


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
    start at 0, so a stateful run over consecutive batches passes each
    call's returned state to the next. ``feedback`` turns on echo-state
    output feedback; other kinds ignore it. A ``state_trace`` list receives
    a copy of the readout state (else h, the output row) after every step.
    ``init_state`` or ``state_trace`` for a feedforward layer is a
    TypeError, and a layer that emits no features (``output_width`` 0: a
    convolution with no kernel placement) is EmptyOutput.
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
    width = kind.output_width(spec)
    if width == 0:
        raise EmptyOutput(f"{spec!r} emits no features")
    run = EXECUTION[type(spec)].stepper(weights, spec, x, mode, in_scale,
                                        counters, feedback)
    if not state_shapes:
        return run(), None, counters
    state = CellState()
    for name, shape in state_shapes.items():
        given = getattr(init_state, name, None)
        setattr(state, name, np.zeros(shape) if given is None
                else np.array(given, dtype=float))
    outs = np.empty((x.shape[0], width))
    if kind.readout:
        run(state, outs, state_trace)
    else:
        run(state, outs)
        if state_trace is not None:
            state_trace.extend(h.copy() for h in outs)
    return outs, state, counters


def causal_windows(stream: np.ndarray, span: int) -> np.ndarray:
    """Read-only (n, span, width) view of an (n, width) stream: window t
    holds rows t - span + 1 .. t, oldest first, and zero rows before the
    stream starts."""
    n, width = stream.shape
    padded = np.zeros((span - 1 + n, width))
    padded[span - 1:] = stream
    padded.flags.writeable = False
    # Window t is rows t .. t + span - 1 of the padded stream: both leading
    # axes step one row.
    row, column = padded.strides
    return np.ndarray((n, span, width), buffer=padded,
                      strides=(row, row, column))


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
    n, width = stream.shape
    windows = causal_windows(stream, math.prod(nominal[:-1]))
    outputs, _, _ = run_layer(spec, weights, windows.reshape(
        (n,) + nominal[:-1] + (width,)))
    outputs = outputs.reshape(n, -1)
    return outputs, outputs


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
