"""The fused recurrent step held bitwise to the per-gate step it replaced.

``reference_run`` below is a frozen copy of the interpreter's per-gate
RNN, LSTM, GRU and echo-state steps: one counted matrix product per gate
and time step, every addition, Hadamard product and activation tallied as
it happens, inside the execution loop that drove them. The interpreter
hoists each gate's input product out of the time loop and tallies its
counts in closed form; the sweeps here require the same output bits, the
same final state bits and the same ``OpCounters``, overflows included.

The sweeps depend on how the BLAS kernel rounds each product. So does the
step's one (G, n_h, n_h) product over all gates' recurrent matrices, which
the last test holds to the per-gate products directly. Each reference step
reads a fresh copy of x_t, as the interpreter's aligned one-row products
do. Every test here is marked ``kernel``: to hold a second OpenBLAS kernel
or numpy's AVX2 loops (whose exp rounds apart from their AVX-512 ones) to
the reference, run ``python -m pytest -m kernel`` under, say,
``OPENBLAS_CORETYPE=Prescott`` or
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``.
"""

import numpy as np
import pytest

from nncost import arch, costmodel, interp, quant
from nncost.arch import GRU, LSTM, BitwidthConfig, EchoState, VanillaRNN
from nncost.interp import (CellState, FixedPoint, OpCounters, random_weights,
                           run_batches, run_layer)

pytestmark = pytest.mark.kernel

# ---------------------------------------------------------------------------
# Frozen reference: the per-gate steps, verbatim apart from being functions
# of their weights rather than methods.


def _stable_sigmoid(v):
    e = np.exp(np.minimum(v, -v))  # -|v|, NaN sign kept; never overflows
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_ACTIVATIONS = {
    "linear": lambda v: np.asarray(v, dtype=float),
    "relu": lambda v: np.maximum(v, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda v: _stable_sigmoid(np.asarray(v, dtype=float)),
}


def _activate(name, v, counters):
    counters.activations += int(np.size(v))
    return _ACTIVATIONS[name](v)


class _CountedMatrix:
    def __init__(self, values, mode):
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

    def apply(self, x, counters, input_scale=None):
        applications = x.size // self.cols
        counters.mults += self.mult_events * applications
        counters.shifts += self.shift_events * applications
        counters.adds += (self.rows * (self.cols - 1)
                          + self.extra_adds) * applications
        y = self.values @ x
        if self.scale is not None and input_scale:
            cap = (1 << (self.acc_width - 1)) - 1
            lsb = self.scale * input_scale
            codes = y / lsb
            over = np.abs(codes) > cap
            if np.any(over):
                counters.overflows += int(np.count_nonzero(over))
                y = np.clip(y, -cap * lsb, cap * lsb)
        return y


def _bias_add(y, b, counters):
    counters.adds += int(np.size(y))
    return y + b


def _hadamard(a, b, counters):
    counters.mults += int(np.size(a))
    return a * b


def _vector_add(a, b, counters):
    counters.adds += int(np.size(a))
    return a + b


def _gate(W, U, b, x, h, in_scale, counters):
    return _bias_add(_vector_add(W.apply(x, counters, in_scale),
                                 U.apply(h, counters), counters), b, counters)


def rnn_stepper(self, spec, mode, in_scale, counters, feedback):
    W = _CountedMatrix(self.W, mode)
    U = _CountedMatrix(self.U, mode)

    def step(x, state):
        state.h = _activate(spec.activation, _gate(
            W, U, self.b, x, state.h, in_scale, counters), counters)
        return state.h
    return step


def lstm_stepper(self, spec, mode, in_scale, counters, feedback):
    gates = list(zip([_CountedMatrix(W, mode) for W in self.W],
                     [_CountedMatrix(U, mode) for U in self.U], self.b))

    def step(x, state):
        i_pre, f_pre, o_pre, c_pre = [
            _gate(W, U, b, x, state.h, in_scale, counters)
            for W, U, b in gates]
        i_t = _activate("sigmoid", i_pre, counters)
        f_t = _activate("sigmoid", f_pre, counters)
        o_t = _activate("sigmoid", o_pre, counters)
        c_cand = _activate(spec.activation, c_pre, counters)
        state.C = _vector_add(_hadamard(f_t, state.C, counters),
                              _hadamard(i_t, c_cand, counters), counters)
        state.h = _hadamard(
            o_t, _activate(spec.activation, state.C, counters), counters)
        return state.h
    return step


def gru_stepper(self, spec, mode, in_scale, counters, feedback):
    (W_z, U_z, b_z), (W_r, U_r, b_r), (W_c, U_c, b_c) = zip(
        [_CountedMatrix(W, mode) for W in self.W],
        [_CountedMatrix(U, mode) for U in self.U], self.b)

    def step(x, state):
        h = state.h
        z_t = _activate("sigmoid", _gate(W_z, U_z, b_z, x, h, in_scale,
                                         counters), counters)
        r_t = _activate("sigmoid", _gate(W_r, U_r, b_r, x, h, in_scale,
                                         counters), counters)
        recur = _hadamard(r_t, U_c.apply(h, counters), counters)
        cand_pre = _bias_add(_vector_add(W_c.apply(x, counters, in_scale),
                                         recur, counters), b_c, counters)
        h_cand = _activate(spec.activation, cand_pre, counters)
        counters.adds += spec.n_h  # forming (1 - z_t)
        state.h = _vector_add(_hadamard(z_t, h, counters),
                              _hadamard(1.0 - z_t, h_cand, counters),
                              counters)
        return state.h
    return step


def esn_stepper(self, spec, mode, in_scale, counters, feedback):
    W_in = _CountedMatrix(self.W_in, mode)
    W_r = _CountedMatrix(self.W_r, mode)
    W_o = _CountedMatrix(self.W_o, mode)
    if feedback:
        W_back = _CountedMatrix(self.W_back, mode)
    mu = float(spec.leak)

    def step(x, state):
        pre = _vector_add(W_r.apply(state.s, counters),
                          W_in.apply(x, counters, in_scale), counters)
        if feedback:
            pre = _vector_add(pre, W_back.apply(state.y_prev, counters),
                              counters)
        a = _activate(spec.activation, pre, counters)
        counters.mults += 2 * spec.N_r
        counters.adds += spec.N_r
        state.s = (1.0 - mu) * state.s + mu * a
        state.y_prev = _bias_add(W_o.apply(state.s, counters), self.b_o,
                                 counters)
        return state.y_prev
    return step


STEPPERS = {VanillaRNN: rnn_stepper, LSTM: lstm_stepper, GRU: gru_stepper,
            EchoState: esn_stepper}


def reference_run(spec, weights, x, mode="float", init_state=None,
                  feedback=False, state_trace=None):
    """(outputs, final state, counters) of the per-gate steps over x."""
    kind = arch.layer_kind(spec)
    x = np.asarray(x, dtype=float)
    counters = OpCounters()
    in_scale = None
    if isinstance(mode, FixedPoint):
        q = quant.quantize_uniform(x, mode.bits.b_i)
        x, in_scale = q.values, q.scale
    step = STEPPERS[type(spec)](weights, spec, mode, in_scale, counters,
                                feedback)
    state = CellState()
    for name, shape in kind.state(spec).items():
        given = getattr(init_state, name, None)
        setattr(state, name, np.zeros(shape) if given is None
                else np.array(given, dtype=float))
    outs = np.empty((x.shape[0], kind.output_width(spec)))
    for t in range(x.shape[0]):
        outs[t] = step(x[t].copy(), state)  # a fresh, aligned x_t
        if state_trace is not None:
            state_trace.append(getattr(state, kind.readout).copy())
    return outs, state, counters


# ---------------------------------------------------------------------------
# Sweeps

BITS = BitwidthConfig(8, 8, 8)
MODES = ("float", FixedPoint(BITS, quant.FixedUniform(8)),
         FixedPoint(BITS, quant.PoT(8)), FixedPoint(BITS, quant.APoT(8, 2)))
MODE_IDS = ("float", "uniform", "pot", "apot")
N_H = list(range(1, 41)) + [64, 128]
N_I = range(1, 13)
KINDS = (VanillaRNN, LSTM, GRU, EchoState)
STEPS = 6


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_run(got, want):
    """Equal output bits, final-state bits and counters (overflows too)."""
    assert_same_bits(got[0], want[0])
    for name in ("h", "C", "s", "y_prev"):
        a, b = getattr(got[1], name), getattr(want[1], name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert_same_bits(a, b)
    assert got[2] == want[2]


def make_spec(kind, n_i, n_h, activation, steps=STEPS):
    if kind is EchoState:
        return EchoState(n_i=n_i, N_r=n_h, s_p=0.3, n_o=1 + n_i % 3,
                         n_s=steps, leak=0.6, activation=activation)
    return kind(n_i, n_h, steps, activation=activation)


def random_state(spec, rng):
    return CellState(**{name: rng.uniform(-1.0, 1.0, shape) for name, shape
                        in arch.layer_kind(spec).state(spec).items()})


def run(spec, weights, x, mode, init_state=None, feedback=False):
    """The interpreter's forward pass of the spec's kind."""
    return run_layer(spec, weights, x, mode, init_state, feedback)


@pytest.mark.parametrize("n_h", N_H)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_shape_sweep_bitwise_equal(kind, n_h):
    """Every n_i in 1..12 at this n_h, rotating the activation, the
    execution mode, a given or zero initial state and, for echo state
    layers, output feedback."""
    for n_i in N_I:
        rng = np.random.default_rng([n_h, n_i, KINDS.index(kind)])
        activation = arch.ACTIVATIONS[(n_h + n_i // 4) % 4]
        mode = MODES[n_i % 4]
        spec = make_spec(kind, n_i, n_h, activation)
        weights = random_weights(spec, rng)
        x = rng.uniform(-2.0, 2.0, (STEPS, n_i))
        init = random_state(spec, rng) if (n_h + n_i) % 3 else None
        feedback = kind is EchoState and (n_h + n_i) % 2 == 1
        assert_same_run(run(spec, weights, x, mode, init, feedback),
                        reference_run(spec, weights, x, mode, init,
                                      feedback))


@pytest.mark.parametrize("activation", arch.ACTIVATIONS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_nan_and_overflow_bitwise_equal(kind, activation):
    """Float execution with weights and inputs large enough that products
    overflow to inf, inf - inf gives NaN, and NaN inputs run through."""
    rng = np.random.default_rng([7, KINDS.index(kind)])
    for n_h, n_i in ((1, 1), (5, 3), (9, 12), (33, 2), (64, 7)):
        spec = make_spec(kind, n_i, n_h, activation)
        weights = random_weights(spec, rng)
        for name in vars(weights):
            if getattr(weights, name) is not None:
                setattr(weights, name, getattr(weights, name) * 1e160)
        x = rng.uniform(-1e160, 1e160, (STEPS, n_i))
        x[2, 0] = np.nan
        x[4, -1] = -np.inf
        for feedback in ((False, True) if kind is EchoState else (False,)):
            with np.errstate(all="ignore"):
                got = run(spec, weights, x, "float", None, feedback)
                want = reference_run(spec, weights, x, "float", None,
                                     feedback)
            assert_same_run(got, want)


@pytest.mark.parametrize("steps", [0, 1, 2 * interp._BLOCK + 1])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_sequence_lengths_bitwise_equal(kind, steps):
    rng = np.random.default_rng([steps, KINDS.index(kind)])
    spec = make_spec(kind, 3, 6, "tanh", steps=max(steps, 1))
    weights = random_weights(spec, rng)
    x = rng.uniform(-1.0, 1.0, (steps, 3))
    for mode in MODES:
        assert_same_run(run(spec, weights, x, mode),
                        reference_run(spec, weights, x, mode))


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_stateful_batches_bitwise_equal(kind, mode):
    """Stateful ``run_batches``: each batch starts from the reference's
    final state of the previous one, with its own input scale."""
    rng = np.random.default_rng([11, KINDS.index(kind)])
    for n_h, n_i in ((3, 2), (12, 5), (40, 11)):
        spec = make_spec(kind, n_i, n_h, "sigmoid")
        weights = random_weights(spec, rng)
        batches = [rng.uniform(-1.0, 1.0, (n, n_i)) for n in (5, 1, 0, 4)]
        for feedback in ((False, True) if kind is EchoState else (False,)):
            outs, counters = run_batches(spec, weights, batches, "stateful",
                                         mode, feedback)
            want_counters = OpCounters()
            state = None
            for out, batch in zip(outs, batches):
                want, state, c = reference_run(spec, weights, batch, mode,
                                               state, feedback)
                want_counters.merge(c)
                assert_same_bits(out, want)
            assert counters == want_counters


@pytest.mark.parametrize("feedback", [False, True])
def test_esn_state_trace_bitwise_equal(feedback):
    rng = np.random.default_rng(13)
    spec = make_spec(EchoState, 4, 20, "tanh", steps=30)
    weights = random_weights(spec, rng)
    x = rng.uniform(-1.0, 1.0, (30, 4))
    got_trace, want_trace = [], []
    run_layer(spec, weights, x, feedback=feedback, state_trace=got_trace)
    reference_run(spec, weights, x, feedback=feedback,
                  state_trace=want_trace)
    assert_same_bits(np.stack(got_trace), np.stack(want_trace))


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("kind", (VanillaRNN, LSTM, GRU),
                         ids=lambda k: k.__name__)
def test_state_trace_bitwise_equal(kind, mode):
    """The trace of h over more than two hoisted input blocks, from a given
    initial state. The reference returns its h after each step as that
    step's output row, so its outputs are the trace to match."""
    steps = 2 * interp._BLOCK + 1
    rng = np.random.default_rng([23, KINDS.index(kind)])
    spec = make_spec(kind, 3, 7, "sigmoid", steps=steps)
    weights = random_weights(spec, rng)
    x = rng.uniform(-1.0, 1.0, (steps, 3))
    init = random_state(spec, rng)
    trace = []
    got = run_layer(spec, weights, x, mode, init, state_trace=trace)
    want = reference_run(spec, weights, x, mode, init)
    assert_same_run(got, want)
    assert len(trace) == steps
    assert_same_bits(np.stack(trace), want[0])


@pytest.mark.parametrize("n_h", N_H)
def test_stacked_gate_product_rounds_per_gate(n_h):
    """The step's one (G, n_h, n_h) @ (n_h,) product runs one gemv per
    gate: bitwise equal to the per-gate products it replaced."""
    rng = np.random.default_rng([17, n_h])
    for gates in (1, 2, 3, 4):
        U = rng.uniform(-1.0, 1.0, (gates, n_h, n_h))
        got = np.empty((gates, n_h))
        want = np.empty((gates, n_h))
        for _ in range(4):
            h = rng.uniform(-1.0, 1.0, n_h) * 10.0 ** rng.integers(-3, 4)
            np.matmul(U, h, out=got)
            for U_g, out in zip(U, want):
                np.matmul(U_g, h, out=out)
            assert_same_bits(got, want)


@pytest.mark.parametrize("n_i", [1, 6])
@pytest.mark.parametrize("n_h", [4, 17, 32])
@pytest.mark.parametrize("kind", (LSTM, GRU), ids=lambda k: k.__name__)
def test_long_streams_bitwise_equal(kind, n_h, n_i):
    """Float runs of 2000 steps at the widths a recurrent search scores:
    the step's buffers are reused across every step and across the
    hoisted input products' block boundaries."""
    steps = 2000
    rng = np.random.default_rng([19, n_h, n_i, kind is GRU])
    spec = make_spec(kind, n_i, n_h, "tanh", steps=steps)
    weights = random_weights(spec, rng)
    x = rng.uniform(-1.0, 1.0, (steps, n_i))
    init = random_state(spec, rng) if n_i > 1 else None
    assert_same_run(run(spec, weights, x, "float", init),
                    reference_run(spec, weights, x, "float", init))
