"""Analytic inference-complexity metrics per layer: RM, BOP and NABS.

Three nested metrics, from software-level to hardware-level:

* RM: scalar multiplications per inference pass. Element-wise (Hadamard)
  products count one multiplication per element, which is what makes the
  recurrent-cell "+3" terms reproducible by executing the layer.
* BOP: bit operations for mixed-precision fixed point. Multipliers scale
  with the operand widths, adders with the accumulator width.
* NABS: adders left after replacing every multiplication by its shift-add
  decomposition; shifts are free in hardware and are excluded from the
  count, even though the name keeps them visible.

The per-type formulas are the ``rm``, ``bop`` and ``nabs`` entries of the
layer-kind table ``arch.KINDS``; this module evaluates them per layer and
per network. They are built from two bitwidth helpers, re-exported here:
``mult_bits(n, b_w, b_i) = n * b_w * b_i`` is the bit cost of n multiplies
and ``acc_bits(n, b_w, b_i) = b_w + b_i + ceil(log2 n)`` the accumulator
width that cannot overflow when summing n partial products.

Echo-state layers: the recurrent matrix holds ``max(1, round(s_p * N_r))``
nonzeros per reservoir row, so the fractional-sparsity products in the
formulas are evaluated with that integer count (a fractional multiplication
count is meaningless, and the reference interpreter places exactly that many
weights). The echo-state RM row assumes the output-feedback path is
disabled; the interpreter's feedback mode intentionally exceeds it and the
audit reports the surplus instead of hiding it.

All counts are exact Python integers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import quant
from .arch import acc_bits, mult_bits  # noqa: F401  (public here)
from .arch import (BitwidthConfig, NetworkSpec, layer_kind, layer_type_name,
                   validate_network)
from .errors import DomainError, ValidationError


def nenb(epochs: int, batches_per_epoch: int) -> int:
    """Training-effort metric: epochs times batches per epoch."""
    if epochs < 1 or batches_per_epoch < 1:
        raise DomainError("epochs and batches_per_epoch must be >= 1")
    return epochs * batches_per_epoch


def rm_layer(layer) -> int:
    """Real multiplications for one inference pass of the layer."""
    return layer_kind(layer).rm(layer)


def bop_layer(layer, bits: BitwidthConfig) -> int:
    """Bit operations for one inference pass of the layer."""
    return layer_kind(layer).bop(layer, bits.b_w, bits.b_i, bits.b_a)


def nabs_layer(layer, bits: BitwidthConfig, scheme: quant.QuantScheme) -> int:
    """Adders after shift-add decomposition of every multiplication.

    ``X_w`` is the per-multiplication adder count of the quantization
    scheme; bit shifts themselves are free and never enter the count.
    """
    return layer_kind(layer).nabs(layer, bits.b_w, bits.b_i, bits.b_a,
                                  quant.x_w(scheme))


@dataclass(frozen=True)
class LayerCost:
    layer_index: int
    layer_type: str
    rm: int
    bop: int
    nabs: int


@dataclass(frozen=True)
class CostReport:
    """Per-layer complexity breakdown plus totals."""

    per_layer: tuple
    rm: int
    bop: int
    nabs: int

    def to_json(self) -> dict:
        return {
            "per_layer": [vars(entry) for entry in self.per_layer],
            "totals": {"rm": self.rm, "bop": self.bop, "nabs": self.nabs},
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["layer_index", "layer_type", "rm", "bop", "nabs"])
        for entry in self.per_layer:
            writer.writerow([entry.layer_index, entry.layer_type, entry.rm,
                             entry.bop, entry.nabs])
        writer.writerow(["TOTAL", "", self.rm, self.bop, self.nabs])
        return buf.getvalue()


def cost_report(net: NetworkSpec, bits: BitwidthConfig,
                scheme: quant.QuantScheme) -> CostReport:
    """Evaluate every metric for every layer of a validated network."""
    violations = validate_network(net)
    if violations:
        raise ValidationError(violations)
    per_layer = []
    for index, layer in enumerate(net.layers):
        per_layer.append(LayerCost(
            layer_index=index,
            layer_type=layer_type_name(layer),
            rm=rm_layer(layer),
            bop=bop_layer(layer, bits),
            nabs=nabs_layer(layer, bits, scheme),
        ))
    return CostReport(
        per_layer=tuple(per_layer),
        rm=sum(e.rm for e in per_layer),
        bop=sum(e.bop for e in per_layer),
        nabs=sum(e.nabs for e in per_layer),
    )
