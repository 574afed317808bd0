"""Parsing, validation and convolution-geometry tests."""

import dataclasses
import json

import numpy as np
import pytest

from nncost import arch
from nncost.arch import (BitwidthConfig, Conv1D, Dense, EchoState, GRU, LSTM,
                         NetworkSpec, VanillaRNN, conv1d_output_size,
                         parse_spec, serialize, validate_network)
from nncost.errors import SchemaError, SpecSyntaxError


def brute_force_placements(n_s, n_k, padding, dilation, stride):
    """Count kernel start positions that fit inside the padded input."""
    length = n_s + 2 * padding
    span = dilation * (n_k - 1)
    count = 0
    start = 0
    while start + span <= length - 1:
        count += 1
        start += stride
    return count


class TestConvOutputSize:
    def test_plain_valid_convolution(self):
        assert conv1d_output_size(10, 3, 0, 1, 1) == 8

    def test_padded_strided(self):
        # padded length 12, span 3, stride 2 -> starts {0,2,4,6,8}
        assert conv1d_output_size(10, 3, 1, 1, 2) == 5

    def test_dilated_span_exceeds_input(self):
        assert conv1d_output_size(5, 5, 0, 2, 1) == 0

    def test_matches_placement_enumeration(self):
        for n_s in range(1, 21):
            for n_k in range(1, 6):
                for padding in range(4):
                    for dilation in range(1, 4):
                        for stride in range(1, 4):
                            expected = brute_force_placements(
                                n_s, n_k, padding, dilation, stride)
                            got = conv1d_output_size(n_s, n_k, padding,
                                                     dilation, stride)
                            assert got == expected, (n_s, n_k, padding,
                                                     dilation, stride)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_s = int(rng.integers(1, 21))
            n_k = int(rng.integers(1, 6))
            p = int(rng.integers(0, 4))
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            base = conv1d_output_size(n_s, n_k, p, d, s)
            assert conv1d_output_size(n_s, n_k, p, d, s + 1) <= base
            assert conv1d_output_size(n_s, n_k, p, d + 1, s) <= base
            assert conv1d_output_size(n_s, n_k, p + 1, d, s) >= base
            assert conv1d_output_size(n_s + 1, n_k, p, d, s) >= base


class TestParse:
    def test_single_dense_document(self):
        net = parse_spec(json.dumps(
            {"name": "m", "layers": [{"type": "dense", "n_n": 10, "n_i": 5}]}))
        assert net.layers == (Dense(n_n=10, n_i=5),)

    def test_out_of_range_sparsity_names_field(self):
        doc = {"name": "m", "layers": [
            {"type": "esn", "n_i": 2, "N_r": 8, "s_p": 1.5, "n_o": 1,
             "n_s": 4}]}
        with pytest.raises(SchemaError) as err:
            parse_spec(json.dumps(doc))
        assert "s_p" in str(err.value)

    def test_two_layer_chain(self):
        doc = {"name": "m", "layers": [
            {"type": "dense", "n_n": 8, "n_i": 4},
            {"type": "dense", "n_n": 3, "n_i": 8}]}
        net = parse_spec(json.dumps(doc))
        assert validate_network(net) == []

    def test_malformed_json(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("{not json")

    def test_unknown_field_rejected(self):
        doc = {"name": "m", "layers": [
            {"type": "dense", "n_n": 1, "n_i": 1, "bogus": 2}]}
        with pytest.raises(SchemaError) as err:
            parse_spec(json.dumps(doc))
        assert "bogus" in str(err.value)

    def test_missing_field_rejected(self):
        doc = {"name": "m", "layers": [{"type": "dense", "n_n": 1}]}
        with pytest.raises(SchemaError) as err:
            parse_spec(json.dumps(doc))
        assert "n_i" in str(err.value)

    def test_unknown_type_rejected(self):
        doc = {"name": "m", "layers": [{"type": "attention"}]}
        with pytest.raises(SchemaError):
            parse_spec(json.dumps(doc))

    def test_unknown_activation_rejected(self):
        doc = {"name": "m", "layers": [
            {"type": "dense", "n_n": 1, "n_i": 1, "activation": "gelu"}]}
        with pytest.raises(SchemaError):
            parse_spec(json.dumps(doc))

    def test_non_integer_count_rejected(self):
        doc = {"name": "m", "layers": [
            {"type": "dense", "n_n": 1.5, "n_i": 1}]}
        with pytest.raises(SchemaError):
            parse_spec(json.dumps(doc))

    def test_bool_count_rejected(self):
        doc = {"name": "m", "layers": [
            {"type": "dense", "n_n": True, "n_i": 1}]}
        with pytest.raises(SchemaError):
            parse_spec(json.dumps(doc))

    def test_top_level_shape(self):
        with pytest.raises(SchemaError):
            parse_spec(json.dumps({"layers": []}))
        with pytest.raises(SchemaError):
            parse_spec(json.dumps({"name": "m", "layers": []}))
        with pytest.raises(SchemaError):
            parse_spec(json.dumps({"name": "m", "layers": [{}], "x": 1}))

    def test_document_parser_matches_text_parser(self):
        good = {"name": "m", "layers": [
            {"type": "dense", "n_n": 8, "n_i": 4},
            {"type": "esn", "n_i": 8, "N_r": 6, "s_p": 0.5, "n_o": 1,
             "n_s": 3, "leak": 0.7}]}
        assert arch.parse_document(good) == parse_spec(json.dumps(good))
        bad_docs = [
            [], {"layers": []}, {"name": 3, "layers": [{}]},
            {"name": "m", "layers": [{"type": "dense", "n_n": 1}]},
            {"name": "m", "layers": [{"type": "dense", "n_n": 1.5,
                                      "n_i": 1}]},
            {"name": "m", "layers": [{"type": "esn", "n_i": 2, "N_r": 8,
                                      "s_p": 1.5, "n_o": 1, "n_s": 4}]},
        ]
        for doc in bad_docs:
            with pytest.raises(SchemaError) as from_text:
                parse_spec(json.dumps(doc))
            with pytest.raises(SchemaError) as from_doc:
                arch.parse_document(doc)
            assert from_doc.value.path == from_text.value.path
            assert str(from_doc.value) == str(from_text.value)

    def test_matches_reference_parser(self):
        """The same spec, or the same error at the same path with the same
        message, as the parser before documents were compiled."""
        def outcome(parse, doc):
            try:
                net = parse(doc)
            except SchemaError as exc:
                return exc.path, str(exc)
            return net, repr(net)

        outcomes = []
        for doc in mutated_documents(np.random.default_rng(5), 3000):
            got = outcome(arch.parse_document, doc)
            assert got == outcome(reference_parse_document, doc), doc
            outcomes.append(got[0])
        assert 100 < sum(isinstance(o, NetworkSpec) for o in outcomes) < 2900
        assert len(set(o for o in outcomes if isinstance(o, str))) > 30

    @pytest.mark.parametrize("tag", [["dense"], {"a": 1}, []])
    def test_unhashable_type(self, tag):
        """An array or object type is an unknown layer type, not a crash."""
        doc = {"name": "m", "layers": [{"type": tag, "n_n": 1, "n_i": 1}]}
        with pytest.raises(SchemaError) as err:
            parse_spec(json.dumps(doc))
        assert err.value.path == "layers[0].type"
        assert str(err.value).startswith(
            f"layers[0].type: unknown layer type {tag!r}; expected one of ")


def reference_parse_layer(obj, path):
    """The layer parser as it was before documents were compiled."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "layer must be an object")
    if "type" not in obj:
        raise SchemaError(f"{path}.type", "missing field")
    tag = obj["type"]
    cls = arch._TYPE_TAGS.get(tag)
    if cls is None:
        raise SchemaError(f"{path}.type",
                          f"unknown layer type {tag!r}; expected one of "
                          f"{sorted(arch._TYPE_TAGS)}")
    declared = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key == "type":
            continue
        if key not in declared:
            raise SchemaError(f"{path}.{key}", "unknown field")
        kwargs[key] = value
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.name not in kwargs:
            raise SchemaError(f"{path}.{f.name}", "missing field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        field_name = str(exc).split(" ", 1)[0]
        suffix = field_name if field_name in declared else ""
        where = f"{path}.{suffix}" if suffix else path
        raise SchemaError(where, str(exc)) from exc


def reference_parse_document(doc):
    """``parse_document`` as it was before documents were compiled."""
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
    layers = [reference_parse_layer(item, f"layers[{i}]")
              for i, item in enumerate(doc["layers"])]
    return NetworkSpec(name=doc["name"], layers=tuple(layers))


def mutated_documents(rng, count):
    """Documents a few random edits away from valid ones: fields dropped,
    added, retyped or set out of range, at the top level and per layer."""
    valid = [
        {"type": "dense", "n_n": 3, "n_i": 2, "activation": "relu"},
        {"type": "conv1d", "n_f": 2, "n_i": 2, "n_k": 3, "n_s": 6,
         "padding": 1, "dilation": 2, "stride": 1},
        {"type": "rnn", "n_i": 2, "n_h": 3, "n_s": 4},
        {"type": "lstm", "n_i": 2, "n_h": 3, "n_s": 4, "activation": "tanh"},
        {"type": "gru", "n_i": 2, "n_h": 3, "n_s": 4},
        {"type": "esn", "n_i": 2, "N_r": 6, "s_p": 0.5, "n_o": 1, "n_s": 4,
         "leak": 0.7},
    ]
    values = [0, 1, -1, 2, 1.5, 0.5, 1.0, True, None, "x", "relu", "gelu",
              "dense", "esn", [], [1], {}, {"a": 1}, 2.0, 10 ** 30]
    keys = ["n_n", "n_i", "n_f", "n_k", "n_s", "n_h", "N_r", "s_p", "n_o",
            "leak", "padding", "dilation", "stride", "activation", "type",
            "bogus"]
    for _ in range(count):
        layers = [dict(valid[i]) for i in rng.integers(0, 6, rng.integers(1, 4))]
        doc = {"name": "m", "layers": list(layers)}
        for _ in range(rng.integers(0, 4)):
            where = rng.integers(0, 10)
            if where == 0:  # top level
                key = ["name", "layers", "extra"][rng.integers(0, 3)]
                if rng.integers(0, 2):
                    doc.pop(key, None)
                else:
                    doc[key] = values[rng.integers(0, len(values))]
            elif where == 1 and isinstance(doc.get("layers"), list):
                doc["layers"].insert(rng.integers(0, 3),
                                     values[rng.integers(0, len(values))])
            else:
                layer = layers[rng.integers(0, len(layers))]
                key = keys[rng.integers(0, len(keys))]
                if rng.integers(0, 3) == 0:
                    layer.pop(key, None)
                else:
                    value = values[rng.integers(0, len(values))]
                    if key == "type" and isinstance(value, (list, dict)):
                        continue  # unhashable: see test_unhashable_type
                    layer[key] = value
        yield doc


def random_network(rng) -> NetworkSpec:
    layers = []
    width = int(rng.integers(1, 9))
    for _ in range(int(rng.integers(1, 5))):
        choice = rng.integers(0, 6)
        act = str(rng.choice(arch.ACTIVATIONS))
        if choice == 0:
            layer = Dense(n_n=int(rng.integers(1, 9)), n_i=width,
                          activation=act)
        elif choice == 1:
            n_s = int(rng.integers(3, 9))
            layer = Conv1D(n_f=int(rng.integers(1, 4)), n_i=width,
                           n_k=int(rng.integers(1, 4)), n_s=n_s,
                           padding=int(rng.integers(0, 2)),
                           dilation=1, stride=1, activation=act)
            if layer.output_size == 0:
                layer = Conv1D(n_f=layer.n_f, n_i=width, n_k=1, n_s=n_s,
                               activation=act)
        elif choice == 2:
            layer = VanillaRNN(n_i=width, n_h=int(rng.integers(1, 9)),
                               n_s=int(rng.integers(1, 6)), activation=act)
        elif choice == 3:
            layer = LSTM(n_i=width, n_h=int(rng.integers(1, 9)),
                         n_s=int(rng.integers(1, 6)), activation=act)
        elif choice == 4:
            layer = GRU(n_i=width, n_h=int(rng.integers(1, 9)),
                        n_s=int(rng.integers(1, 6)), activation=act)
        else:
            layer = EchoState(n_i=width, N_r=int(rng.integers(2, 12)),
                              s_p=float(rng.uniform(0.1, 1.0)),
                              n_o=int(rng.integers(1, 4)),
                              n_s=int(rng.integers(1, 6)),
                              leak=float(rng.uniform(0.1, 1.0)),
                              activation=act)
        layers.append(layer)
        width = arch.output_width(layer)
    return NetworkSpec(name="rand", layers=tuple(layers))


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            net = random_network(rng)
            assert parse_spec(serialize(net)) == net


class TestValidate:
    def test_matching_chain(self):
        net = NetworkSpec("m", (Dense(10, 5), Dense(3, 10)))
        assert validate_network(net) == []

    def test_width_mismatch_locates_layer(self):
        net = NetworkSpec("m", (Dense(10, 5), Dense(3, 7)))
        violations = validate_network(net)
        assert len(violations) == 1
        assert violations[0].layer_index == 1
        assert violations[0].rule == "width-mismatch"

    def test_zero_width_convolution(self):
        net = NetworkSpec("m", (Conv1D(n_f=1, n_i=1, n_k=5, n_s=5,
                                       dilation=2),))
        violations = validate_network(net)
        assert [v.rule for v in violations] == ["zero-output-width"]


class TestBitwidthConfig:
    def test_range_enforced(self):
        BitwidthConfig(1, 64, 8)
        with pytest.raises(ValueError):
            BitwidthConfig(0, 8, 8)
        with pytest.raises(ValueError):
            BitwidthConfig(8, 65, 8)

    def test_layer_invariants(self):
        with pytest.raises(ValueError):
            Dense(0, 5)
        with pytest.raises(ValueError):
            Conv1D(n_f=1, n_i=1, n_k=1, n_s=1, padding=-1)
        with pytest.raises(ValueError):
            EchoState(n_i=1, N_r=4, s_p=0.5, n_o=1, n_s=1, leak=0.0)
