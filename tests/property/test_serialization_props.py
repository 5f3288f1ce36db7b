"""Property tests: the trace codec round-trips its whole value domain."""

import dataclasses
import enum
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import stable_hash
from repro.common.serialization import ValueCodec, default_codec

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(
            st.integers(min_value=-100, max_value=100), children, max_size=4
        ),
        st.frozensets(
            st.integers(min_value=-100, max_value=100) | st.text(max_size=5),
            max_size=4,
        ),
    )


values = st.recursive(scalars, containers, max_leaves=12)


class TestCodecProperties:
    @given(values)
    @settings(max_examples=80)
    def test_roundtrip_identity(self, value):
        assert default_codec.loads(default_codec.dumps(value)) == value

    @given(values)
    @settings(max_examples=40)
    def test_dumps_deterministic(self, value):
        assert default_codec.dumps(value) == default_codec.dumps(value)

    @given(values)
    @settings(max_examples=40)
    def test_single_line_output(self, value):
        assert "\n" not in default_codec.dumps(value)


# -- dumps() writes exactly the text of its own encode() tree -----------------


@dataclasses.dataclass(frozen=True)
class Pair:
    right: object
    left: object = None


@dataclasses.dataclass
class Empty:
    pass


class Payload:
    """A ``to_payload`` class: always written from the tree."""

    def __init__(self, value):
        self.value = value

    def to_payload(self):
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload):
        return cls(payload["value"])


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2**40


class Text(str):
    pass


class Number(float):
    pass


text_codec = ValueCodec()
text_codec.register(Pair)
text_codec.register(Empty, name='odd "name" 100%s')
text_codec.register(Payload)

awkward_scalars = st.one_of(
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e22, 1e-7, 1e16,
        2**64, -(2**64) - 1, 10**40, True, False,
        Color.RED, Color.BLUE, Text("sub"), Text("__t__"), Number(2.5),
        "\x00\x1f\x7f", "\"quoted\\", "caf\u00e9 \u2603 \U0001f600", "\ud800",
    ]),
    st.floats(),
    st.integers(),
    st.text(max_size=12),
)

string_keys = st.one_of(
    st.text(max_size=6), st.sampled_from(["__t__", "items", "type", "\u00e9", ""])
)
mixed_keys = st.one_of(
    string_keys,
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.none(),
    st.sampled_from([Text("k"), Color.RED, 1.5, (1, "a")]),
)


def awkward_containers(children):
    return st.one_of(
        containers(children),
        st.dictionaries(string_keys, children, max_size=4),
        st.dictionaries(mixed_keys, children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Payload, children),
        st.just(Empty()),
        st.sets(st.integers(min_value=-3, max_value=3), max_size=3),
    )


awkward_values = st.recursive(
    scalars | awkward_scalars, awkward_containers, max_leaves=16
)


class TestDumpsIsTheTextOfEncode:
    @given(awkward_values)
    @settings(max_examples=300)
    def test_dumps_equals_json_of_the_tree(self, value):
        assert text_codec.dumps(value) == json.dumps(
            text_codec.encode(value), separators=(",", ":"), sort_keys=True
        )

    @given(st.lists(awkward_values, max_size=4))
    @settings(max_examples=50)
    def test_dumps_each_is_dumps_of_each(self, values):
        assert text_codec.dumps_each(iter(values)) == [
            text_codec.dumps(value) for value in values
        ]

    @given(st.dictionaries(mixed_keys, awkward_values, max_size=4))
    @settings(max_examples=50)
    def test_dumps_items_is_the_text_of_encode_items(self, mapping):
        assert text_codec.dumps_items(mapping) == json.dumps(
            text_codec.encode_items(mapping), separators=(",", ":"), sort_keys=True
        )


hashables = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=10),
        st.binary(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.tuples(children, children)
    ),
    max_leaves=8,
)


class TestStableHashProperties:
    @given(hashables)
    @settings(max_examples=60)
    def test_deterministic(self, value):
        assert stable_hash(value) == stable_hash(value)

    @given(hashables)
    @settings(max_examples=60)
    def test_in_64_bit_range(self, value):
        assert 0 <= stable_hash(value) < 2**64

    @given(st.integers(), st.integers())
    @settings(max_examples=60)
    def test_distinct_ints_rarely_collide(self, a, b):
        if a != b:
            assert stable_hash(a) != stable_hash(b)
