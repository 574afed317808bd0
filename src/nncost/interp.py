"""Instrumented reference interpreter for the supported layer equations.

Executes each layer in float or fixed-point mode while counting the
multiplications, additions, bit shifts and activation evaluations actually
performed. The measured multiplication count is the brute-force oracle for
the analytic cost model: for every layer type (echo state networks with
output feedback disabled) it reproduces the analytic RM exactly.

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

import json
from dataclasses import dataclass, field

import numpy as np

from . import costmodel, quant
from .arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                   NetworkSpec, VanillaRNN, layer_type_name)
from .errors import EmptyOutput, ShapeError


@dataclass
class OpCounters:
    """Operation tallies of one or more interpreter executions."""

    mults: int = 0
    adds: int = 0
    shifts: int = 0
    activations: int = 0
    overflows: int = 0

    def merge(self, other: "OpCounters") -> "OpCounters":
        self.mults += other.mults
        self.adds += other.adds
        self.shifts += other.shifts
        self.activations += other.activations
        self.overflows += other.overflows
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


def _stable_sigmoid(v):
    e = np.exp(np.minimum(v, -v))  # -|v|, NaN sign kept; never overflows
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_ACTIVATIONS = {
    "linear": lambda v: np.asarray(v, dtype=float),
    "relu": lambda v: np.maximum(v, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda v: _stable_sigmoid(np.asarray(v, dtype=float)),
}


def _activate(name: str, v, counters: OpCounters):
    counters.activations += int(np.size(v))
    return _ACTIVATIONS[name](v)


def _quantize_operand(x: np.ndarray, b_i: int) -> tuple[np.ndarray, float]:
    """Symmetric uniform input quantization; returns values and the scale."""
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return np.zeros_like(x, dtype=float), 1.0
    q_max = (1 << (b_i - 1)) - 1
    scale = max_abs / q_max
    return np.round(x / scale) * scale, scale


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
        nnz = int(np.count_nonzero(values))
        if isinstance(mode, FixedPoint):
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
        self.acc_width = None
        if isinstance(mode, FixedPoint):
            self.acc_width = costmodel.acc_bits(
                self.cols, mode.bits.b_w, mode.bits.b_i)

    def apply(self, x: np.ndarray, counters: OpCounters,
              input_scale: float | None = None) -> np.ndarray:
        """Counted product self.values @ x for x of shape (cols,) or (cols, m)."""
        applications = 1 if x.ndim == 1 else x.shape[1]
        counters.mults += self.mult_events * applications
        counters.shifts += self.shift_events * applications
        counters.adds += (self.rows * (self.cols - 1)
                          + self.extra_adds) * applications
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
    return y + (b if y.ndim == 1 else b[:, None])


def _hadamard(a: np.ndarray, b: np.ndarray, counters: OpCounters):
    counters.mults += int(np.size(a))
    return a * b


def _vector_add(a: np.ndarray, b: np.ndarray, counters: OpCounters):
    counters.adds += int(np.size(a))
    return a + b


# ---------------------------------------------------------------------------
# Weights


@dataclass
class DenseWeights:
    W: np.ndarray
    b: np.ndarray


@dataclass
class ConvWeights:
    kernels: np.ndarray  # (n_f, n_k, n_i)
    biases: np.ndarray  # (n_f,)


@dataclass
class RNNWeights:
    W: np.ndarray  # (n_h, n_i)
    U: np.ndarray  # (n_h, n_h)
    b: np.ndarray  # (n_h,)


@dataclass
class LSTMWeights:
    """Gate order along the leading axis: input, forget, output, cell."""

    W: np.ndarray  # (4, n_h, n_i)
    U: np.ndarray  # (4, n_h, n_h)
    b: np.ndarray  # (4, n_h)


@dataclass
class GRUWeights:
    """Gate order along the leading axis: update, reset, candidate."""

    W: np.ndarray  # (3, n_h, n_i)
    U: np.ndarray  # (3, n_h, n_h)
    b: np.ndarray  # (3, n_h)


@dataclass
class ESNWeights:
    W_in: np.ndarray  # (N_r, n_i)
    W_r: np.ndarray  # (N_r, N_r), sparse with row_nonzeros entries per row
    W_o: np.ndarray  # (n_o, N_r)
    b_o: np.ndarray  # (n_o,)
    W_back: np.ndarray | None = None  # (N_r, n_o)


LayerWeights = (DenseWeights | ConvWeights | RNNWeights | LSTMWeights
                | GRUWeights | ESNWeights)


@dataclass
class CellState:
    """Recurrent state carried across steps and, in stateful mode, batches."""

    h: np.ndarray | None = None
    C: np.ndarray | None = None
    s: np.ndarray | None = None
    y_prev: np.ndarray | None = None


def zero_state(spec) -> CellState:
    if isinstance(spec, VanillaRNN) or isinstance(spec, GRU):
        return CellState(h=np.zeros(spec.n_h))
    if isinstance(spec, LSTM):
        return CellState(h=np.zeros(spec.n_h), C=np.zeros(spec.n_h))
    if isinstance(spec, EchoState):
        return CellState(s=np.zeros(spec.N_r), y_prev=np.zeros(spec.n_o))
    raise TypeError(f"no recurrent state for {spec!r}")


def random_weights(spec, seed) -> LayerWeights:
    """Seeded uniform [-1, 1] weights shaped for the layer.

    The echo-state recurrent matrix receives exactly ``spec.row_nonzeros``
    nonzero entries per row, at seeded positions, so the measured
    multiplication count matches the analytic formula.
    """
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    if isinstance(spec, Dense):
        return DenseWeights(W=u(spec.n_n, spec.n_i), b=u(spec.n_n))
    if isinstance(spec, Conv1D):
        return ConvWeights(kernels=u(spec.n_f, spec.n_k, spec.n_i),
                           biases=u(spec.n_f))
    if isinstance(spec, VanillaRNN):
        return RNNWeights(W=u(spec.n_h, spec.n_i), U=u(spec.n_h, spec.n_h),
                          b=u(spec.n_h))
    if isinstance(spec, LSTM):
        return LSTMWeights(W=u(4, spec.n_h, spec.n_i),
                           U=u(4, spec.n_h, spec.n_h), b=u(4, spec.n_h))
    if isinstance(spec, GRU):
        return GRUWeights(W=u(3, spec.n_h, spec.n_i),
                          U=u(3, spec.n_h, spec.n_h), b=u(3, spec.n_h))
    if isinstance(spec, EchoState):
        W_r = np.zeros((spec.N_r, spec.N_r))
        r = spec.row_nonzeros
        for row in range(spec.N_r):
            cols = rng.choice(spec.N_r, size=r, replace=False)
            W_r[row, cols] = rng.uniform(-1.0, 1.0, size=r)
        return ESNWeights(W_in=u(spec.N_r, spec.n_i), W_r=W_r,
                          W_o=u(spec.n_o, spec.N_r), b_o=u(spec.n_o),
                          W_back=u(spec.N_r, spec.n_o))
    raise TypeError(f"unsupported layer: {spec!r}")


def _prune_order_matrices(weights: LayerWeights) -> list[np.ndarray]:
    if isinstance(weights, DenseWeights):
        return [weights.W]
    if isinstance(weights, ConvWeights):
        return [weights.kernels]
    if isinstance(weights, (RNNWeights, LSTMWeights, GRUWeights)):
        return [weights.W, weights.U]
    if isinstance(weights, ESNWeights):
        return [weights.W_in, weights.W_r, weights.W_o]
    raise TypeError(f"unsupported weights: {weights!r}")


def apply_prune_mask(weights: LayerWeights, mask: quant.PruneMask
                     ) -> LayerWeights:
    """Zero out pruned weights; the interpreter then skips their products.

    The mask indexes the layer's multiplicative weights in row-major order
    over W then U (recurrent cells) or over the kernel tensor; for echo
    state layers the recurrent part covers only the stored nonzeros, in
    row-major position order.
    """
    import copy

    out = copy.deepcopy(weights)
    mats = _prune_order_matrices(out)
    flags = np.asarray(mask.keep, dtype=bool)
    cursor = 0
    for mat in mats:
        if isinstance(weights, ESNWeights) and mat is mats[1]:
            rows, cols = np.nonzero(mat)
            take = flags[cursor:cursor + rows.size]
            if take.size != rows.size:
                raise ShapeError("mask shorter than weight count")
            mat[rows[~take], cols[~take]] = 0.0
            cursor += rows.size
        else:
            take = flags[cursor:cursor + mat.size]
            if take.size != mat.size:
                raise ShapeError("mask shorter than weight count")
            flat = mat.reshape(-1)
            flat[~take] = 0.0
            cursor += mat.size
    if cursor != flags.size:
        raise ShapeError(
            f"mask has {flags.size} entries, layer weights have {cursor}")
    return out


# ---------------------------------------------------------------------------
# Forward passes


def _check(condition: bool, message: str):
    if not condition:
        raise ShapeError(message)


def _prep_input(x: np.ndarray, mode: Mode) -> tuple[np.ndarray, float | None]:
    if isinstance(mode, FixedPoint):
        return _quantize_operand(x, mode.bits.b_i)
    return x, None


def forward_dense(spec: Dense, weights: DenseWeights, x, mode: Mode = "float"
                  ) -> tuple[np.ndarray, OpCounters]:
    """y = phi(W x + b) with counted operations."""
    x = np.asarray(x, dtype=float)
    _check(weights.W.shape == (spec.n_n, spec.n_i), "W shape mismatch")
    _check(weights.b.shape == (spec.n_n,), "b shape mismatch")
    _check(x.shape == (spec.n_i,), "input shape mismatch")
    counters = OpCounters()
    x, in_scale = _prep_input(x, mode)
    W = _CountedMatrix(weights.W, mode)
    y = W.apply(x, counters, in_scale)
    y = _bias_add(y, weights.b, counters)
    return _activate(spec.activation, y, counters), counters


def forward_conv1d(spec: Conv1D, weights: ConvWeights, x, mode: Mode = "float"
                   ) -> tuple[np.ndarray, OpCounters]:
    """Feature maps of shape (n_f, output_size) with counted operations."""
    x = np.asarray(x, dtype=float)
    _check(weights.kernels.shape == (spec.n_f, spec.n_k, spec.n_i),
           "kernel shape mismatch")
    _check(weights.biases.shape == (spec.n_f,), "bias shape mismatch")
    _check(x.ndim == 2 and x.shape[1] == spec.n_i, "input shape mismatch")
    out_w = spec.output_size
    if out_w == 0:
        raise EmptyOutput("no valid kernel placement for this configuration")
    counters = OpCounters()
    x, in_scale = _prep_input(x, mode)
    if spec.padding:
        padded = np.zeros((x.shape[0] + 2 * spec.padding, spec.n_i))
        padded[spec.padding:-spec.padding] = x
    else:
        padded = x
    starts = np.arange(out_w) * spec.stride
    taps = np.arange(spec.n_k) * spec.dilation
    windows = padded[starts[:, None] + taps[None, :], :]  # (out_w, n_k, n_i)
    flat_windows = windows.reshape(out_w, spec.n_k * spec.n_i).T
    kernel = _CountedMatrix(
        weights.kernels.reshape(spec.n_f, spec.n_k * spec.n_i), mode)
    maps = kernel.apply(flat_windows, counters, in_scale)
    maps = _bias_add(maps, weights.biases, counters)
    return _activate(spec.activation, maps, counters), counters


def forward_rnn(spec: VanillaRNN, weights: RNNWeights, x_seq,
                mode: Mode = "float", init_state: CellState | None = None
                ) -> tuple[np.ndarray, CellState, OpCounters]:
    """h_t = phi(W x_t + U h_{t-1} + b) over the input sequence.

    Accepts any sequence length; the nominal length for the analytic count
    is ``spec.n_s``.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    _check(weights.W.shape == (spec.n_h, spec.n_i), "W shape mismatch")
    _check(weights.U.shape == (spec.n_h, spec.n_h), "U shape mismatch")
    _check(x_seq.ndim == 2 and x_seq.shape[1] == spec.n_i,
           "input sequence shape mismatch")
    counters = OpCounters()
    x_seq, in_scale = _prep_input(x_seq, mode)
    W = _CountedMatrix(weights.W, mode)
    U = _CountedMatrix(weights.U, mode)
    h = (init_state.h if init_state is not None
         and init_state.h is not None else np.zeros(spec.n_h)).copy()
    outs = np.empty((x_seq.shape[0], spec.n_h))
    for t in range(x_seq.shape[0]):
        pre = _vector_add(W.apply(x_seq[t], counters, in_scale),
                          U.apply(h, counters), counters)
        pre = _bias_add(pre, weights.b, counters)
        h = _activate(spec.activation, pre, counters)
        outs[t] = h
    return outs, CellState(h=h), counters


def forward_lstm(spec: LSTM, weights: LSTMWeights, x_seq,
                 mode: Mode = "float", init_state: CellState | None = None
                 ) -> tuple[np.ndarray, CellState, OpCounters]:
    """Gated cell update per step; gates are sigmoid, phi is spec.activation.

    The three Hadamard products (forget blend, input injection, output
    gating) each cost n_h multiplications per step.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    _check(weights.W.shape == (4, spec.n_h, spec.n_i), "W shape mismatch")
    _check(weights.U.shape == (4, spec.n_h, spec.n_h), "U shape mismatch")
    _check(x_seq.ndim == 2 and x_seq.shape[1] == spec.n_i,
           "input sequence shape mismatch")
    counters = OpCounters()
    x_seq, in_scale = _prep_input(x_seq, mode)
    Ws = [_CountedMatrix(weights.W[g], mode) for g in range(4)]
    Us = [_CountedMatrix(weights.U[g], mode) for g in range(4)]
    if init_state is None:
        init_state = zero_state(spec)
    h = (init_state.h if init_state.h is not None
         else np.zeros(spec.n_h)).copy()
    C = (init_state.C if init_state.C is not None
         else np.zeros(spec.n_h)).copy()
    outs = np.empty((x_seq.shape[0], spec.n_h))
    for t in range(x_seq.shape[0]):
        gates = []
        for g in range(4):
            pre = _vector_add(Ws[g].apply(x_seq[t], counters, in_scale),
                              Us[g].apply(h, counters), counters)
            pre = _bias_add(pre, weights.b[g], counters)
            gates.append(pre)
        i_t = _activate("sigmoid", gates[0], counters)
        f_t = _activate("sigmoid", gates[1], counters)
        o_t = _activate("sigmoid", gates[2], counters)
        c_cand = _activate(spec.activation, gates[3], counters)
        C = _vector_add(_hadamard(f_t, C, counters),
                        _hadamard(i_t, c_cand, counters), counters)
        h = _hadamard(o_t, _activate(spec.activation, C, counters), counters)
        outs[t] = h
    return outs, CellState(h=h, C=C), counters


def forward_gru(spec: GRU, weights: GRUWeights, x_seq,
                mode: Mode = "float", init_state: CellState | None = None
                ) -> tuple[np.ndarray, CellState, OpCounters]:
    """Update/reset gated cell; the reset, retain and renew element-wise
    products each cost n_h multiplications per step."""
    x_seq = np.asarray(x_seq, dtype=float)
    _check(weights.W.shape == (3, spec.n_h, spec.n_i), "W shape mismatch")
    _check(weights.U.shape == (3, spec.n_h, spec.n_h), "U shape mismatch")
    _check(x_seq.ndim == 2 and x_seq.shape[1] == spec.n_i,
           "input sequence shape mismatch")
    counters = OpCounters()
    x_seq, in_scale = _prep_input(x_seq, mode)
    Ws = [_CountedMatrix(weights.W[g], mode) for g in range(3)]
    Us = [_CountedMatrix(weights.U[g], mode) for g in range(3)]
    h = (init_state.h if init_state is not None
         and init_state.h is not None else np.zeros(spec.n_h)).copy()
    outs = np.empty((x_seq.shape[0], spec.n_h))
    for t in range(x_seq.shape[0]):
        z_pre = _bias_add(_vector_add(Ws[0].apply(x_seq[t], counters, in_scale),
                                      Us[0].apply(h, counters), counters),
                          weights.b[0], counters)
        r_pre = _bias_add(_vector_add(Ws[1].apply(x_seq[t], counters, in_scale),
                                      Us[1].apply(h, counters), counters),
                          weights.b[1], counters)
        z_t = _activate("sigmoid", z_pre, counters)
        r_t = _activate("sigmoid", r_pre, counters)
        recur = _hadamard(r_t, Us[2].apply(h, counters), counters)
        cand_pre = _bias_add(
            _vector_add(Ws[2].apply(x_seq[t], counters, in_scale), recur,
                        counters), weights.b[2], counters)
        h_cand = _activate(spec.activation, cand_pre, counters)
        counters.adds += spec.n_h  # forming (1 - z_t)
        h = _vector_add(_hadamard(z_t, h, counters),
                        _hadamard(1.0 - z_t, h_cand, counters), counters)
        outs[t] = h
    return outs, CellState(h=h), counters


def forward_esn(spec: EchoState, weights: ESNWeights, x_seq,
                mode: Mode = "float", feedback_enabled: bool = False,
                init_state: CellState | None = None,
                state_trace: list | None = None
                ) -> tuple[np.ndarray, CellState, OpCounters]:
    """Leaky reservoir update and linear readout.

    Per step: a_t = phi(W_r s + W_in x [+ W_back y_prev]);
    s_t = (1 - leak) s + leak a_t  (two multiplications per unit);
    y_t = W_o s_t + b_o. Output feedback is off by default, matching the
    analytic count. When ``state_trace`` is a list it receives a copy of
    the reservoir state after every step.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    _check(weights.W_in.shape == (spec.N_r, spec.n_i), "W_in shape mismatch")
    _check(weights.W_r.shape == (spec.N_r, spec.N_r), "W_r shape mismatch")
    _check(weights.W_o.shape == (spec.n_o, spec.N_r), "W_o shape mismatch")
    _check(x_seq.ndim == 2 and x_seq.shape[1] == spec.n_i,
           "input sequence shape mismatch")
    if feedback_enabled:
        _check(weights.W_back is not None
               and weights.W_back.shape == (spec.N_r, spec.n_o),
               "W_back shape mismatch")
    counters = OpCounters()
    x_seq, in_scale = _prep_input(x_seq, mode)
    W_in = _CountedMatrix(weights.W_in, mode)
    W_r = _CountedMatrix(weights.W_r, mode)
    W_o = _CountedMatrix(weights.W_o, mode)
    W_back = (_CountedMatrix(weights.W_back, mode)
              if feedback_enabled else None)
    state = init_state if init_state is not None else zero_state(spec)
    s = (state.s if state.s is not None else np.zeros(spec.N_r)).copy()
    y = (state.y_prev if state.y_prev is not None
         else np.zeros(spec.n_o)).copy()
    mu = float(spec.leak)
    outs = np.empty((x_seq.shape[0], spec.n_o))
    for t in range(x_seq.shape[0]):
        pre = _vector_add(W_r.apply(s, counters),
                          W_in.apply(x_seq[t], counters, in_scale), counters)
        if W_back is not None:
            pre = _vector_add(pre, W_back.apply(y, counters), counters)
        a = _activate(spec.activation, pre, counters)
        counters.mults += 2 * spec.N_r
        counters.adds += spec.N_r
        s = (1.0 - mu) * s + mu * a
        if state_trace is not None:
            state_trace.append(s.copy())
        y = _bias_add(W_o.apply(s, counters), weights.b_o, counters)
        outs[t] = y
    return outs, CellState(s=s, y_prev=y), counters


_RECURRENT_FORWARD = {
    VanillaRNN: forward_rnn,
    LSTM: forward_lstm,
    GRU: forward_gru,
}


def run_batches(spec, weights, batches, state_mode: str = "stateless",
                mode: Mode = "float", feedback_enabled: bool = False
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
    if isinstance(spec, EchoState):
        def step(batch, state):
            return forward_esn(spec, weights, batch, mode=mode,
                               feedback_enabled=feedback_enabled,
                               init_state=state)
    elif type(spec) in _RECURRENT_FORWARD:
        forward = _RECURRENT_FORWARD[type(spec)]

        def step(batch, state):
            return forward(spec, weights, batch, mode=mode, init_state=state)
    else:
        raise TypeError(f"run_batches requires a recurrent layer, "
                        f"got {layer_type_name(spec)}")
    counters = OpCounters()
    outputs = []
    state = zero_state(spec)
    for batch in batches:
        if state_mode == "stateless":
            state = zero_state(spec)
        out, state, c = step(batch, state)
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
    y = np.zeros(x.size)
    for t in range(x.size):
        acc = 0.0
        for k in range(min(a.size, t + 1)):
            acc += a[k] * x[t - k]
        for k in range(1, min(b.size + 1, t + 1)):
            acc += b[k - 1] * y[t - k]
        y[t] = acc
    return y


# ---------------------------------------------------------------------------
# Audit: analytic formulas vs measured counts


def _nominal_input(spec, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, Dense):
        return rng.uniform(-1.0, 1.0, size=spec.n_i)
    return rng.uniform(-1.0, 1.0, size=(spec.n_s, spec.n_i))


def run_layer(spec, weights, x, mode: Mode = "float",
              feedback_enabled: bool = False
              ) -> tuple[np.ndarray, OpCounters]:
    """Execute one layer on its nominal input shape; returns output+counters."""
    if isinstance(spec, Dense):
        return forward_dense(spec, weights, x, mode)
    if isinstance(spec, Conv1D):
        return forward_conv1d(spec, weights, x, mode)
    if isinstance(spec, EchoState):
        out, _, counters = forward_esn(spec, weights, x, mode,
                                       feedback_enabled=feedback_enabled)
        return out, counters
    forward = _RECURRENT_FORWARD[type(spec)]
    out, _, counters = forward(spec, weights, x, mode)
    return out, counters


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
        return {
            "seed": self.seed,
            "mode": self.mode,
            "per_layer": [vars(e) for e in self.per_layer],
            "totals": dict(self.totals),
            "overflow_count": self.overflow_count,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def audit(net: NetworkSpec, bits: BitwidthConfig, scheme: quant.QuantScheme,
          seed: int, mode: Mode = "float", esn_feedback: bool = False
          ) -> AuditRecord:
    """Generate seeded weights and inputs, execute, compare with formulas.

    Each layer runs independently on its nominal input shape (one pass for
    a dense layer, n_s steps for sequence layers), which is exactly what
    the analytic per-layer counts describe.
    """
    per_layer = []
    totals = OpCounters()
    for index, layer in enumerate(net.layers):
        rng = np.random.default_rng([seed, index])
        weights = random_weights(layer, rng)
        x = _nominal_input(layer, rng)
        _, counters = run_layer(layer, weights, x, mode,
                                feedback_enabled=esn_feedback)
        analytic_rm = costmodel.rm_layer(layer)
        analytic_nabs = costmodel.nabs_layer(layer, bits, scheme)
        per_layer.append(LayerAudit(
            layer_index=index,
            layer_type=layer_type_name(layer),
            analytic_rm=analytic_rm,
            analytic_nabs=analytic_nabs,
            mults=counters.mults,
            adds=counters.adds,
            shifts=counters.shifts,
            activations=counters.activations,
            delta=counters.mults + counters.shifts - analytic_rm,
        ))
        totals.merge(counters)
    mode_name = "float" if mode == "float" else "fixed"
    return AuditRecord(
        seed=seed,
        mode=mode_name,
        per_layer=per_layer,
        totals={"analytic_rm": sum(e.analytic_rm for e in per_layer),
                "analytic_nabs": sum(e.analytic_nabs for e in per_layer),
                **totals.as_dict()},
        overflow_count=totals.overflows,
    )
