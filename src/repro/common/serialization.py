"""Value serialization for trace files.

Graft's trace records contain arbitrary user values: vertex values, edge
values, message payloads, aggregator values. Those must round-trip through
the (simulated) distributed file system as text. This module provides a
small, explicit codec:

- JSON-native scalars (None, bool, int, float, str) pass through unchanged.
- Containers (list, tuple, dict, set, frozenset) are encoded recursively,
  with non-JSON shapes wrapped in a ``{"__t__": ...}`` envelope.
- User value types are registered with :func:`register_value_type`.
  Dataclasses register automatically from their fields; other classes may
  supply ``to_payload()`` / ``from_payload()`` methods.

The codec is intentionally *not* pickle: trace files must stay readable,
diffable text (the paper stresses small, inspectable log files), and decoding
must never execute arbitrary code.
"""

import dataclasses
import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter

from repro.common.errors import SerializationError

_TYPE_KEY = "__t__"

# The text form every trace, checkpoint and output file uses: compact,
# keys sorted. One shared encoder serves every value :meth:`ValueCodec.dumps`
# does not write itself (it keeps no state between calls).
_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_CONSTANT_TEXT = {None: "null", True: "true", False: "false"}.__getitem__
_EXACT_STR = {str}
_EXACT_INT = {int}
_EXACT_FLOAT = {float}
_SCALAR_CLASSES = frozenset((type(None), bool, int, float, str))
_CONSTANT_CLASSES = frozenset((type(None), bool))

# Literals of the ``{"__t__": ...}`` envelopes, keys already in sorted order.
_TUPLE_OPEN = '{"__t__":"tuple","items":['
_DICT_OPEN = '{"__t__":"dict","items":['
_ITEMS_CLOSE = "]}"
_TUPLE_SEP = _ITEMS_CLOSE + "," + _TUPLE_OPEN


# The encoding and text of the exact numeric classes are fixed, not
# methods: an exact int or finite exact float is written as its ``repr``
# on every path (``dumps``, ``dumps_each``, ``dumps_items`` and
# ``dumps_column``, which writes whole columns with ``repr``), which is
# also what packed trace columns rebuild on read.
def _encode_identity(value):
    return value


def _encode_float(value):
    if isfinite(value):
        return value
    return {_TYPE_KEY: "float", "repr": repr(value)}


def _float_text(value):
    if isfinite(value):
        return repr(value)                  # exact class, so float.__repr__
    return _JSON.encode(_encode_float(value))


class ValueCodec:
    """Encodes and decodes user values to JSON-compatible structures."""

    def __init__(self):
        self._types_by_name = {}
        self._names_by_type = {}
        # Exact-class dispatch memo: encoding is dominated by repeated values
        # of a handful of types (every message value in a trace line, every
        # aggregator snapshot entry), so the common path is one dict lookup
        # instead of an isinstance chain. Subclasses miss the memo and fall
        # back to the original chain, preserving its semantics.
        self._dispatch = {
            type(None): _encode_identity,
            bool: _encode_identity,
            str: _encode_identity,
            int: _encode_identity,
            float: _encode_float,
            list: self._encode_list,
            tuple: self._encode_tuple,
            set: self._encode_set,
            frozenset: self._encode_frozenset,
            dict: self._encode_dict,
            bytes: self._encode_bytes,
        }
        # The same dispatch for the one-pass text form (:meth:`dumps`).
        # Classes absent here — sets, bytes, subclasses of builtins,
        # ``to_payload`` types — are written from their :meth:`encode` tree.
        self._writers = {
            type(None): _CONSTANT_TEXT,
            bool: _CONSTANT_TEXT,
            str: encode_basestring_ascii,
            int: repr,               # exact class, so this is int.__repr__
            float: _float_text,
            list: self._list_text,
            tuple: self._tuple_text,
            dict: self._dict_text,
        }
        # Per registered class: dataclass field names in declaration order
        # (None for ``to_payload`` classes), computed once at registration.
        self._field_names = {}
        # Per registered dataclass: how :meth:`_registered_text` writes it,
        # ``(instance -> field values, %-template, number of fields)``.
        self.text_plans = {}

    def register(self, cls, name=None):
        """Register a value type so instances can round-trip through traces.

        ``cls`` must either be a dataclass or define both ``to_payload()``
        (returning a dict of encodable fields) and a classmethod
        ``from_payload(payload)``. Registration is idempotent for the same
        class; registering a *different* class under an existing name is an
        error.
        """
        name = name or cls.__qualname__
        existing = self._types_by_name.get(name)
        if existing is cls:
            return cls
        if existing is not None:
            raise SerializationError(
                f"value type name {name!r} already registered to {existing!r}"
            )
        is_dataclass = dataclasses.is_dataclass(cls)
        has_methods = hasattr(cls, "to_payload") and hasattr(cls, "from_payload")
        if not (is_dataclass or has_methods):
            raise SerializationError(
                f"{cls!r} must be a dataclass or define to_payload/from_payload"
            )
        self._types_by_name[name] = cls
        self._names_by_type[cls] = name
        self._dispatch[cls] = self._encode_registered
        if is_dataclass:
            names = tuple(f.name for f in dataclasses.fields(cls))
            self._field_names[cls] = names
            self.text_plans[cls] = _obj_text_plan(name, names)
            self._writers[cls] = self._registered_text
        else:
            self._field_names[cls] = None
        return cls

    def is_registered(self, cls):
        return cls in self._names_by_type

    def encode(self, value):
        """Encode ``value`` into a JSON-serializable structure."""
        encoder = self._dispatch.get(value.__class__)
        if encoder is not None:
            return encoder(value)
        return self._encode_fallback(value)

    # Per-type encoders, reached through the dispatch memo.

    def _encode_list(self, value):
        return [self.encode(item) for item in value]

    def _encode_tuple(self, value):
        return {_TYPE_KEY: "tuple", "items": [self.encode(i) for i in value]}

    def _encode_set(self, value, tag="set"):
        try:
            items = sorted(value, key=repr)
        except TypeError:
            items = list(value)
        return {_TYPE_KEY: tag, "items": [self.encode(i) for i in items]}

    def _encode_frozenset(self, value):
        return self._encode_set(value, tag="frozenset")

    def _encode_dict(self, value):
        if all(isinstance(k, str) for k in value) and _TYPE_KEY not in value:
            return {k: self.encode(v) for k, v in value.items()}
        return self.encode_items(value)

    def encode_items(self, mapping):
        """The order-preserving form of a mapping, whatever its key types."""
        encode = self.encode
        return {
            _TYPE_KEY: "dict",
            "items": [[encode(k), encode(v)] for k, v in mapping.items()],
        }

    @staticmethod
    def _encode_bytes(value):
        return {_TYPE_KEY: "bytes", "hex": value.hex()}

    def _encode_registered(self, value):
        return {
            _TYPE_KEY: "obj",
            "type": self._names_by_type[type(value)],
            "fields": self._fields_of(value),
        }

    def _encode_fallback(self, value):
        """Subclasses of the built-in encodable types (memo misses)."""
        if isinstance(value, (bool, str)):
            return value
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return _encode_float(value)
        if isinstance(value, list):
            return self._encode_list(value)
        if isinstance(value, tuple):
            return self._encode_tuple(value)
        if isinstance(value, frozenset):
            return self._encode_frozenset(value)
        if isinstance(value, set):
            return self._encode_set(value)
        if isinstance(value, dict):
            return self._encode_dict(value)
        if isinstance(value, bytes):
            return self._encode_bytes(value)
        name = self._names_by_type.get(type(value))
        if name is not None:
            return self._encode_registered(value)
        raise SerializationError(
            f"cannot encode value of unregistered type {type(value).__name__}: "
            f"{value!r}; call register_value_type() on the class first"
        )

    def _fields_of(self, value):
        names = self._field_names[type(value)]
        if names is not None:
            return {name: self.encode(getattr(value, name)) for name in names}
        return {k: self.encode(v) for k, v in value.to_payload().items()}

    def decode(self, data):
        """Decode a structure produced by :meth:`encode`."""
        if data.__class__ in _SCALAR_CLASSES:
            return data
        if isinstance(data, list):
            return _decode_each(self.decode, data)
        if not isinstance(data, dict):
            return data
        tag = data.get(_TYPE_KEY)
        if tag is None:
            return dict(zip(data, _decode_each(self.decode, data.values())))
        if tag == "tuple":
            return tuple(_decode_each(self.decode, data["items"]))
        if tag == "set":
            return set(_decode_each(self.decode, data["items"]))
        if tag == "frozenset":
            return frozenset(_decode_each(self.decode, data["items"]))
        if tag == "dict":
            decode = self.decode
            return {
                (k if k.__class__ in _SCALAR_CLASSES else decode(k)):
                (v if v.__class__ in _SCALAR_CLASSES else decode(v))
                for k, v in data["items"]
            }
        if tag == "bytes":
            return bytes.fromhex(data["hex"])
        if tag == "float":
            return float(data["repr"])
        if tag == "obj":
            return self._decode_obj(data)
        raise SerializationError(f"unknown type tag {tag!r} in trace data")

    def _decode_obj(self, data):
        name = data["type"]
        cls = self._types_by_name.get(name)
        if cls is None:
            raise SerializationError(
                f"trace references unregistered value type {name!r}; "
                f"import the module defining it before reading this trace"
            )
        fields = data["fields"]
        fields = dict(zip(fields, _decode_each(self.decode, fields.values())))
        if dataclasses.is_dataclass(cls):
            return cls(**fields)
        return cls.from_payload(fields)

    def dumps(self, value):
        """Encode ``value`` to a compact one-line JSON string.

        Byte-for-byte ``json.dumps(self.encode(value), separators=(",",
        ":"), sort_keys=True)``, written in one pass: the common classes
        emit their text directly, everything else goes through the
        :meth:`encode` tree.
        """
        return (self._writers.get(value.__class__) or self._tree_text)(value)

    def dumps_each(self, values):
        """:meth:`dumps` of every value of an iterable, as a list."""
        writer_of = self._writers.get
        tree_text = self._tree_text
        return [(writer_of(value.__class__) or tree_text)(value) for value in values]

    def dumps_column(self, values):
        """:meth:`dumps_each` of a collection that is mostly of one class:
        exact ints, finite exact floats, exact strs, and ``None`` / bools
        are written in one C-level pass."""
        classes = set(map(type, values))
        if classes == _EXACT_INT or (
            classes == _EXACT_FLOAT and all(map(isfinite, values))
        ):
            return list(map(repr, values))
        if classes == _EXACT_STR:
            return list(map(encode_basestring_ascii, values))
        if classes <= _CONSTANT_CLASSES:
            return list(map(_CONSTANT_TEXT, values))
        return self.dumps_each(values)

    def dumps_items(self, mapping):
        """Text of :meth:`encode_items`."""
        writer_of = self._writers.get
        tree_text = self._tree_text
        return _DICT_OPEN + ",".join([
            "[" + (writer_of(key.__class__) or tree_text)(key)
            + "," + (writer_of(value.__class__) or tree_text)(value) + "]"
            for key, value in mapping.items()
        ]) + _ITEMS_CLOSE

    @staticmethod
    def join_items(item_texts):
        """Text of :meth:`encode_items` of ``(key text, value text)`` pairs."""
        return _DICT_OPEN + ",".join(map("[%s,%s]".__mod__, item_texts)) + _ITEMS_CLOSE

    @staticmethod
    def dumps_tuple(item_texts):
        """Text of a tuple whose items are already text."""
        return _TUPLE_OPEN + ",".join(item_texts) + _ITEMS_CLOSE

    @staticmethod
    def dumps_tuples(item_text_rows):
        """Text of a non-empty list of tuples whose items are already text:
        the envelope between two tuples is constant, so it is the separator."""
        body = _TUPLE_SEP.join(map(",".join, item_text_rows))
        return "[" + _TUPLE_OPEN + body + _ITEMS_CLOSE + "]"

    def _tree_text(self, value):
        return _JSON.encode(self.encode(value))

    # Per-type text writers, reached through ``_writers``.

    def _list_text(self, value):
        if not value:
            return "[]"
        return "[" + ",".join(self.dumps_each(value)) + "]"

    def _tuple_text(self, value):
        return self.dumps_tuple(self.dumps_each(value))

    def _dict_text(self, value):
        if not value:
            return "{}"
        key_classes = set(map(type, value))
        if key_classes == _EXACT_STR:
            if _TYPE_KEY in value:
                return self.dumps_items(value)
            keys = sorted(value)
            pairs = zip(
                map(encode_basestring_ascii, keys),
                self.dumps_each(map(value.__getitem__, keys)),
            )
            return "{" + ",".join(map("%s:%s".__mod__, pairs)) + "}"
        if all(issubclass(cls, str) for cls in key_classes):
            # Keyed by str subclasses: the tree decides.
            return self._tree_text(value)
        return self.dumps_items(value)

    def _registered_text(self, value):
        fields_of, template, _width = self.text_plans[value.__class__]
        return template % tuple(self.dumps_each(fields_of(value)))

    def loads(self, text):
        """Decode a JSON string produced by :meth:`dumps`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed trace line: {exc}") from exc
        return self.decode(data)


def _decode_each(decode, items):
    """``decode`` of every item, one frame per container: an item of a
    scalar class — most of any trace — is its own decoding."""
    return [
        item if item.__class__ in _SCALAR_CLASSES else decode(item)
        for item in items
    ]


def _obj_text_plan(type_name, field_names):
    """How a registered dataclass is written: ``(instance -> its field
    values in sorted-name order, %-template of the envelope around them,
    number of fields)``."""
    names = sorted(field_names)
    if len(names) > 1:
        fields_of = attrgetter(*names)
    else:       # attrgetter would return a bare value, or refuse no names
        def fields_of(value):
            return [getattr(value, name) for name in names]
    slots = ",".join(
        encode_basestring_ascii(name).replace("%", "%%") + ":%s" for name in names
    )
    tail = encode_basestring_ascii(type_name).replace("%", "%%")
    template = '{"__t__":"obj","fields":{' + slots + '},"type":' + tail + "}"
    return fields_of, template, len(names)


#: Process-wide default codec. Algorithm modules register their value types
#: against this at import time, so any trace written by the library can be
#: read back after importing the same modules.
default_codec = ValueCodec()


def register_value_type(cls=None, *, name=None):
    """Register ``cls`` with the default codec. Usable as a decorator.

    >>> import dataclasses
    >>> @register_value_type
    ... @dataclasses.dataclass
    ... class Probe:
    ...     x: int
    >>> decode_value(encode_value(Probe(3)))
    Probe(x=3)
    """
    if cls is None:
        return lambda c: default_codec.register(c, name)
    return default_codec.register(cls, name)


def encode_value(value):
    """Encode with the default codec."""
    return default_codec.encode(value)


def decode_value(data):
    """Decode with the default codec."""
    return default_codec.decode(data)
