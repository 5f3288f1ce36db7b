"""Unit tests for repro.common.serialization."""

import dataclasses
import json
import math

import pytest

from repro.common.errors import SerializationError
from repro.common.serialization import (
    ValueCodec,
    decode_value,
    default_codec,
    encode_value,
    register_value_type,
)


@register_value_type
@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    y: int


class Custom:
    """Non-dataclass type with explicit payload hooks."""

    def __init__(self, tag):
        self.tag = tag

    def to_payload(self):
        return {"tag": self.tag}

    @classmethod
    def from_payload(cls, payload):
        return cls(payload["tag"])

    def __eq__(self, other):
        return isinstance(other, Custom) and other.tag == self.tag


register_value_type(Custom)


class TestScalars:
    @pytest.mark.parametrize(
        "value", [None, True, False, 0, -17, 2**70, "text", "unié", 3.25]
    )
    def test_roundtrip(self, value):
        codec = default_codec
        assert codec.loads(codec.dumps(value)) == value

    def test_nan_roundtrip(self):
        out = default_codec.loads(default_codec.dumps(float("nan")))
        assert math.isnan(out)

    def test_inf_roundtrip(self):
        assert default_codec.loads(default_codec.dumps(math.inf)) == math.inf
        assert default_codec.loads(default_codec.dumps(-math.inf)) == -math.inf

    def test_float_precision_exact(self):
        value = 0.1 + 0.2
        assert default_codec.loads(default_codec.dumps(value)) == value


class TestContainers:
    def test_list_roundtrip(self):
        value = [1, "a", None, [2.5, False]]
        assert decode_value(encode_value(value)) == value

    def test_tuple_stays_tuple(self):
        value = (1, (2, 3))
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)

    def test_set_and_frozenset(self):
        value = {1, 2, 3}
        decoded = decode_value(encode_value(value))
        assert decoded == value and isinstance(decoded, set)
        frozen = frozenset("ab")
        decoded_frozen = decode_value(encode_value(frozen))
        assert decoded_frozen == frozen and isinstance(decoded_frozen, frozenset)

    def test_str_key_dict_plain(self):
        value = {"a": 1, "b": [2]}
        assert decode_value(encode_value(value)) == value

    def test_non_str_key_dict_enveloped(self):
        value = {1: "a", (2, 3): "b"}
        assert decode_value(encode_value(value)) == value

    def test_dict_with_reserved_key_enveloped(self):
        value = {"__t__": "sneaky"}
        assert decode_value(encode_value(value)) == value

    def test_bytes_roundtrip(self):
        assert decode_value(encode_value(b"\x00\xff")) == b"\x00\xff"

    def test_deep_nesting(self):
        value = {"k": [(1, {2: {"x", "y"}}), None]}
        assert decode_value(encode_value(value)) == value


class TestRegisteredTypes:
    def test_dataclass_roundtrip(self):
        assert decode_value(encode_value(Point(1, -2))) == Point(1, -2)

    def test_custom_payload_roundtrip(self):
        assert decode_value(encode_value(Custom("t"))) == Custom("t")

    def test_nested_registered_values(self):
        value = {"pts": [Point(0, 0), Point(9, 9)]}
        assert decode_value(encode_value(value)) == value

    def test_unregistered_type_raises(self):
        class Stranger:
            pass

        with pytest.raises(SerializationError, match="unregistered"):
            encode_value(Stranger())

    def test_reregistration_idempotent(self):
        register_value_type(Point)
        assert decode_value(encode_value(Point(5, 5))) == Point(5, 5)

    def test_conflicting_name_rejected(self):
        codec = ValueCodec()

        @dataclasses.dataclass
        class A:
            pass

        codec.register(A, name="clash")

        @dataclasses.dataclass
        class B:
            pass

        with pytest.raises(SerializationError, match="already registered"):
            codec.register(B, name="clash")

    def test_decoding_unknown_type_raises(self):
        codec = ValueCodec()
        with pytest.raises(SerializationError, match="unregistered"):
            codec.decode({"__t__": "obj", "type": "Ghost", "fields": {}})

    def test_register_requires_hooks_or_dataclass(self):
        codec = ValueCodec()
        with pytest.raises(SerializationError, match="dataclass"):
            codec.register(object)


class TestWireFormat:
    def test_dumps_is_single_line(self):
        line = default_codec.dumps({"a": [1, 2], "b": Point(1, 2)})
        assert "\n" not in line

    def test_dumps_deterministic(self):
        value = {"b": 1, "a": 2}
        assert default_codec.dumps(value) == default_codec.dumps(value)

    def test_dumps_literal_text(self):
        value = {"b": (1, 2.5), "a": [None, True, "é"], 3: {"k": Point(1, 2)}}
        assert default_codec.dumps(value) == (
            '{"__t__":"dict","items":['
            '["b",{"__t__":"tuple","items":[1,2.5]}],'
            '["a",[null,true,"\\u00e9"]],'
            '[3,{"k":{"__t__":"obj","fields":{"x":1,"y":2},"type":"Point"}}]]}'
        )

    def test_dumps_unregistered_type_raises(self):
        with pytest.raises(SerializationError, match="unregistered type"):
            default_codec.dumps([1, {"k": object()}])

    def test_encode_items_keeps_order_for_string_keys(self):
        mapping = {"z": 1, "b": 2}
        encoded = default_codec.encode_items(mapping)
        assert encoded == {"__t__": "dict", "items": [["z", 1], ["b", 2]]}
        assert default_codec.dumps_items(mapping) == (
            '{"__t__":"dict","items":[["z",1],["b",2]]}'
        )
        assert list(default_codec.decode(encoded)) == ["z", "b"]

    def test_numbers_are_their_repr_on_every_path(self):
        """A subclass that rounds floats in its own writer and encoder does
        not change the text of an exact int or finite exact float: every
        path writes the ``repr`` that ``json.dumps(encode(v))`` gives."""

        class Rounding(ValueCodec):
            def _float_text(self, value):
                return f"{value:.2f}"

            def _encode_float(self, value):
                return round(value, 2)

        codec = Rounding()
        numbers = [1.23456, 2.5, -0.0, 1e300, 7, -(2**70)]
        texts = [repr(number) for number in numbers]
        assert [json.dumps(codec.encode(n)) for n in numbers] == texts
        assert [codec.dumps(n) for n in numbers] == texts
        assert codec.dumps_each(numbers) == texts
        for column in (numbers[:4], numbers[4:], numbers):
            assert codec.dumps_column(column) == list(map(repr, column))
        mapping = dict(zip(numbers, reversed(numbers)))
        assert codec.dumps_items(mapping) == json.dumps(
            codec.encode_items(mapping), separators=(",", ":")
        )
        assert codec.dumps_items({7: 1.23456}) == (
            '{"__t__":"dict","items":[[7,1.23456]]}'
        )

    def test_field_names_are_read_once_at_registration(self, monkeypatch):
        codec = ValueCodec()
        codec.register(Point)
        monkeypatch.setattr(
            dataclasses, "fields", lambda _: pytest.fail("fields() per value")
        )
        assert codec.encode(Point(1, 2))["fields"] == {"x": 1, "y": 2}
        assert codec.loads(codec.dumps([Point(3, 4)])) == [Point(3, 4)]

    def test_malformed_line_raises(self):
        with pytest.raises(SerializationError, match="malformed"):
            default_codec.loads("{not json")

    def test_unknown_tag_raises(self):
        with pytest.raises(SerializationError, match="unknown type tag"):
            default_codec.decode({"__t__": "warp"})
