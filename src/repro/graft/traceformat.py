"""The v3 trace file format: blocks that hold their records by column.

A trace file is ``#GRAFT3\n``, a JSON header frame naming each record
kind's fields, then one framed block (``u32be len | u8 flags | payload``,
zlib when flag bit :data:`BLOCK_FLAG_ZLIB` is set) per flush; its index
sidecar (``<path>.idx``) has one line per block::

    B <off> <len> <flags> <min_ss> <max_ss> <nrec> <nviol> <nexc> <nmaster> |<steps>|<vflags>|<ids>

A block's payload is ASCII lines — a head ``<kind> <records> <packed>
<spec>...``, the constant columns' texts, the other columns' text
sections — and then ``<packed>`` bytes of packed sections; or, for a block
of at most four records, a head ``<kind> <records>`` and one row per
record, its texts as a JSON array. Every field is one column — the field
text (:func:`repro.graft.capture.field_texts`) of every record — laid out
by a spec: ``c<n>`` constant (its text the next n characters), ``f``
fixed-width texts, ``t`` lengths and concatenation, ``n<t>`` a
little-endian array of exact ints or floats (``t`` its typecode) whose
texts are their reprs, ``d`` a dictionary, ``o`` one registered class's
template and field columns, ``m`` edge maps' items, ``p`` pair lists with
a table of messages, ``x`` a mixed column whose parts may be ``s<f>``,
field f's text of the same record; lengths, counts and indexes are packed.
Texts are made when records are written — exact ints and finite floats
are held as themselves until the flush; the layout, a function of the
values' exact classes and texts, waits for the flush; a record's texts
come back byte for byte in O(fields). docs/trace-format.md has the
grammar, the index line and the recovery rules: a file is v3 or not a
trace (:func:`read_header`); a missing, torn or stale sidecar is rebuilt
from each block's own superstep, flag and id columns
(:func:`scan_blocks`); a torn final frame is ignored.
"""

import json
import sys
import zlib
from itertools import accumulate, chain, cycle, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter, is_, truth
from struct import calcsize, pack, unpack

from repro.common.errors import TraceError
from repro.common.serialization import (
    _DICT_OPEN,
    _ITEMS_CLOSE,
    _TUPLE_OPEN,
    _TUPLE_SEP,
    ValueCodec,
)

_PAIRS_OPEN = "[" + _TUPLE_OPEN
_PAIRS_CLOSE = _ITEMS_CLOSE + "]"

from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    field_text,
    master_field_names,
    record_from_row,
    record_of,
    vertex_field_names,
)
from repro.simfs.writers import BLOCK_FLAG_ZLIB

TRACE_MAGIC = b"#GRAFT3\n"
IDX_MAGIC = "#GRAFT3-IDX"
TRACE_VERSION = 3

#: Per-record index flags (``vflags``).
VFLAG_VIOLATIONS = 0x01
VFLAG_EXCEPTION = 0x02

_U32 = 4
_FRAME_HEADER = _U32 + 1  # length prefix + flags byte


def build_header():
    """The JSON header frame contents for a freshly created v3 file."""
    return {
        "version": TRACE_VERSION,
        "fields": {
            "vertex": list(vertex_field_names()),
            "master": list(master_field_names()),
        },
    }


def encode_header(header):
    data = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return len(data).to_bytes(4, "big") + bytes([0]) + data


def field_tables(header):
    """``{kind: field names}`` of a file, by its header."""
    fields = header.get("fields", {})
    return {
        KIND_VERTEX: tuple(fields.get("vertex") or vertex_field_names()),
        KIND_MASTER: tuple(fields.get("master") or master_field_names()),
    }


# -- writing a block ------------------------------------------------------------
#
# Texts are made when records are written (``BlockBuilder.add``: user code
# may run, and mutate what the records hold, before the flush); only their
# layout waits for the flush (``BlockBuilder.encode``). Within one ``add``
# an object is written once however many records hold it, keyed on
# ``id()``: nothing runs in between that could change it.

_SCALARS = frozenset((int, float, str, bool, type(None)))
_LIST = {list}
_DICT = {dict}
_TUPLE = {tuple}
_PAIR_LEN = {2}
_STR = frozenset((str,))
_INT = {int}
_FLOAT = {float}
_INT64 = 1 << 63
#: Typecodes of a packed int section, by width: unsigned, signed, bits.
_INT_CODES = (("B", "b", 8), ("H", "h", 16), ("I", "i", 32), ("Q", "q", 64))
_ITEMSIZE = {code: calcsize("<" + code) for code in "bBhHiIqQd"}
#: Packed sections are little-endian on every host; a big-endian host reads
#: them through a byte swap (``memoryview.cast`` is native-endian).
_LITTLE = sys.byteorder == "little"
_TAGS = "0123456789"            # a mixed column has at most ten parts
_SAMPLE = 64
_TEXT, _SAME, _MAP, _PAIRS = "text", "same", "map", "pairs"


def column_texts(codec, values):
    """The texts of ``values`` (a non-empty sequence), each object once."""
    first = values[0]
    if len(values) == 1 or all(map(is_, values, repeat(first))):
        return [codec.dumps(first)] * len(values)
    classes = set(map(type, values))
    if classes <= _SCALARS:
        return codec.dumps_column(values)
    if classes == _LIST and list(map(len, values)).count(len(first)) == len(values):
        # Lists of the very objects of the first, in order, are its text
        # (``violations``, ``reasons``).
        if all(map(is_, chain.from_iterable(values), cycle(first))):
            return [codec.dumps(first)] * len(values)
    if classes == _LIST and set(map(type, chain.from_iterable(values))) <= _STR:
        # Equal lists of exact strs are equal texts.
        keys = list(map(tuple, values))
        text_of = {
            key: "[" + ",".join(map(encode_basestring_ascii, key)) + "]"
            for key in dict.fromkeys(keys)
        }
        return list(map(text_of.__getitem__, keys))
    keys = list(map(id, values))
    distinct = dict(zip(keys, values))
    text_of = dict(zip(distinct, codec.dumps_each(distinct.values())))
    return list(map(text_of.__getitem__, keys))


class _Layout:
    """What :meth:`BlockBuilder.encode` writes: head tokens, constants, text
    sections and packed sections."""

    __slots__ = ("tokens", "consts", "sections", "packed")

    def __init__(self):
        self.tokens = []
        self.consts = []
        self.sections = []
        self.packed = []


def put_items(out, items):
    """Lay out a column of texts and numbers held as themselves (exact ints
    and finite floats, see :meth:`_Texts.add`): packed when every item is an
    exact int of 64 bits or every one an exact float, else as texts — a
    number's text is its repr. Then one constant, or a dictionary of the
    distinct items when they repeat (judged by the first ones), or the items
    themselves. Equal items are equal texts, but for the signed zeros: a
    packed float column holding a zero is packed as it is."""
    classes = set(map(type, items))
    packed = classes == _FLOAT or (
        classes == _INT and -_INT64 <= min(items) and max(items) < _INT64
    )
    if not packed and not classes <= _STR:
        items = [item if item.__class__ is str else repr(item) for item in items]
    if not items:
        put_list(out, items)
        return
    first = items[0]
    if not (first.__class__ is float and 0.0 in items):
        if items.count(first) == len(items):
            text = repr(first) if packed else first
            out.tokens.append(f"c{len(text)}")
            out.consts.append(text)
            return
        sample = items[:_SAMPLE]
        if 2 * len(set(sample)) <= len(sample):
            distinct = dict.fromkeys(items)
            if 2 * len(distinct) <= len(items):
                index = dict(zip(distinct, range(len(distinct))))
                out.tokens += ("d", str(len(distinct)))
                put_packed(out, list(map(index.__getitem__, items)))
                items = list(distinct)
    if packed:
        put_packed(out, items)
    else:
        put_list(out, items)


def put_list(out, texts):
    """The texts right-justified to one width when none holds a space (each
    is then a slice away), else their lengths and their concatenation."""
    if " " not in "".join(texts):
        out.tokens.append("f")
        out.sections.append(fixed_width(texts, max(map(len, texts), default=1)))
    else:
        out.tokens.append("t")
        put_packed(out, list(map(len, texts)))
        out.sections.append("".join(texts))


def fixed_width(texts, width):
    """``texts`` (none longer than ``width``, none holding a space) padded
    on the left to ``width`` and joined by spaces — one-character texts
    need neither. A reader that knows how many there are finds the width
    by division, and every text is a slice away."""
    if width == 1:
        return "".join(texts)
    return " ".join(map(str.rjust, texts, repeat(width)))


def put_packed(out, values):
    """Exact ints (in the narrowest width that holds them) or exact floats
    (as doubles) as one little-endian array: a value is a slice away."""
    code = "d" if values and values[0].__class__ is float else _int_code(values)
    out.tokens.append("n" + code)
    out.packed.append(pack(f"<{len(values)}{code}", *values))


def _int_code(values):
    low, high = min(values, default=0), max(values, default=0)
    for unsigned, signed, bits in _INT_CODES:
        if low >= 0 and high >> bits == 0:
            return unsigned
        if -(1 << bits - 1) <= low and high < 1 << bits - 1:
            return signed
    raise ValueError("an int column beyond 64 bits")


class _Texts:
    """A column (or a part of one) laid out from its texts.

    A call's exact ints, or exact finite floats, are held as themselves
    until the flush (they are immutable, and a column of them is written
    as their reprs, see :meth:`ValueCodec.dumps_column`); anything else
    becomes text at once."""

    def __init__(self, _same_as=None):
        self.items = []

    def add(self, block, values, _others=None):
        classes = set(map(type, values))
        if classes == _INT or (classes == _FLOAT and all(map(isfinite, values))):
            self.items += values
        else:
            self.items += column_texts(block.codec, values)

    def text(self, index):
        item = self.items[index]
        return item if item.__class__ is str else repr(item)

    def put(self, out):
        put_items(out, self.items)


class _Same:
    """Records whose text is another field's text of the same record."""

    def __init__(self, field_index):
        self.field_index = field_index

    def add(self, block, values):
        pass

    def text(self, index):
        return self           # resolved to the other field's text by the caller

    def put(self, out):
        out.tokens.append(f"s{self.field_index}")


class _Objects:
    """Values of one registered dataclass: a template and a column per field."""

    def __init__(self, plan):
        self.fields_of, self.template, width = plan
        self.columns = [_Texts() for _ in range(width)]

    def add(self, block, values):
        rows = list(map(self.fields_of, values))
        for column, field_values in zip(self.columns, zip(*rows)):
            column.add(block, field_values)

    def text(self, index):
        return self.template % tuple([column.text(index) for column in self.columns])

    def put(self, out):
        out.tokens += ("o", str(len(self.columns)))
        out.sections.append(self.template)
        for column in self.columns:
            column.put(out)


class _Maps:
    """Exact dicts, in the item form: counts, a key and a value column."""

    def __init__(self):
        self.counts = []
        self.keys = _Texts()
        self.values = _Texts()

    def add(self, block, maps):
        self.counts += map(len, maps)
        keys = list(chain.from_iterable(maps))
        if keys:
            self.keys.add(block, keys)
            self.values.add(block, list(chain.from_iterable(map(dict.values, maps))))

    def text(self, index):
        start = sum(self.counts[:index])
        end = start + self.counts[index]
        if start == end:
            return "{}"
        spots = range(start, end)
        return ValueCodec.join_items(
            zip(map(self.keys.text, spots), map(self.values.text, spots))
        )

    def put(self, out):
        out.tokens.append("m")
        put_packed(out, self.counts)
        self.keys.put(out)
        self.values.put(out)


class _PairLists:
    """Lists of exact 2-tuples: counts, an id column, indexes into the
    column's message table."""

    def __init__(self, table):
        self.counts = []
        self.ids = _Texts()
        self.refs = []
        self.table = table

    def add(self, block, lists):
        self.counts += map(len, lists)
        pairs = list(chain.from_iterable(lists))
        if pairs:
            ids, messages = zip(*pairs)
            self.ids.add(block, ids)
            self.refs += self.table.refs(block, messages)

    def text(self, index):
        start = sum(self.counts[:index])
        end = start + self.counts[index]
        if start == end:
            return "[]"
        messages = map(self.table.text, self.refs[start:end])
        return ValueCodec.dumps_tuples(zip(map(self.ids.text, range(start, end)), messages))

    def put(self, out):
        out.tokens += ("p", str(len(self.table.index)))
        put_packed(out, self.counts)
        put_packed(out, self.refs)
        self.table.put(out)
        self.ids.put(out)


class _Parts:
    """A column whose records each take their text from one of its parts.

    Parts are made in the order records first need them, so a block is the
    same however its records were split into write calls.
    """

    def __init__(self, same_as=None):
        self.same_as = same_as
        self.tags = []
        self.parts = []
        self.slots = {}

    def slot(self, block, key):
        index = self.slots.get(key)
        if index is None:
            if len(self.parts) >= len(_TAGS) - 1 and key != _TEXT:
                return self.slot(block, _TEXT)
            index = self.slots[key] = len(self.parts)
            if key == _TEXT:
                self.parts.append(_Texts())
            elif key == _SAME:
                self.parts.append(_Same(self.same_as))
            else:
                self.parts.append(self.part(block, key))
        return index

    def add(self, block, values, others=None):
        keys = self.keys(block, values, others)
        first = keys[0]
        if keys.count(first) == len(keys):
            tag = self.slot(block, first)
            self.tags += [tag] * len(keys)
            self.parts[tag].add(block, values)
            return
        tag_of = {key: self.slot(block, key) for key in dict.fromkeys(keys)}
        tags = list(map(tag_of.__getitem__, keys))
        groups = {}
        for tag, value in zip(tags, values):
            groups.setdefault(tag, []).append(value)
        self.tags += tags
        for tag, group in groups.items():
            self.parts[tag].add(block, group)

    def text(self, index):
        tag = self.tags[index]
        return self.parts[tag].text(self.tags[:index].count(tag))

    def put(self, out):
        if len(self.parts) <= 1:
            (self.parts[0] if self.parts else _Texts()).put(out)
            return
        out.tokens += ("x", str(len(self.parts)))
        out.sections.append("".join(map(_TAGS.__getitem__, self.tags)))
        for part in self.parts:
            part.put(out)


class _Values(_Parts):
    """Vertex values: one part per registered dataclass, texts for the rest."""

    def part(self, block, cls):
        return _Objects(block.codec.text_plans[cls])

    def keys(self, block, values, _others):
        plans = block.codec.text_plans
        classes = list(map(type, values))
        first = classes[0]
        if classes.count(first) == len(classes):
            return [first if first in plans else _TEXT] * len(classes)
        return [cls if cls in plans else _TEXT for cls in classes]


class _MessageTable(_Values):
    """One pair column's distinct message texts, each once, in the order
    they first appear; laid out as a value column. A message object's key
    is made once per write call (keyed on ``id()``), and equal keys of
    different objects share one entry."""

    def __init__(self):
        super().__init__()
        self.index = {}     # a message's key (see _reps) -> index

    def refs(self, block, messages):
        keys = list(map(id, messages))
        distinct = dict(zip(keys, messages))
        objects = list(distinct.values())
        classes = list(map(type, objects))
        if classes.count(classes[0]) == len(classes):
            tag = self._tag(block, classes[0])
            reps = self._reps(block, tag, classes[0], objects)
            tag_of = None
        else:
            positions = {}
            for position, cls in enumerate(classes):
                positions.setdefault(cls, []).append(position)
            reps = [None] * len(objects)
            tag_of = {}
            for cls, where in positions.items():
                tag = self._tag(block, cls)
                members = [objects[position] for position in where]
                for position, rep in zip(where, self._reps(block, tag, cls, members)):
                    reps[position] = rep
                    tag_of[rep] = tag
        index = self.index
        fresh = [rep for rep in dict.fromkeys(reps) if rep not in index]
        if fresh:
            index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
            if tag_of is None:
                self._extend(tag, fresh)
            else:
                for rep in fresh:
                    self._extend(tag_of[rep], [rep])
        ref_of = dict(zip(distinct, map(index.__getitem__, reps)))
        return list(map(ref_of.__getitem__, keys))

    def _tag(self, block, cls):
        return self.slot(block, cls if cls in block.codec.text_plans else _TEXT)

    def _reps(self, block, tag, cls, members):
        """What equal texts have in common, and the table holds: the text
        or the float (see :func:`_table_keys`), or for a value of a
        registered dataclass its class and field texts or ints."""
        part = self.parts[tag]
        if part.__class__ is not _Objects:
            return _table_keys(block, members, float)
        columns = [
            _table_keys(block, values, int)
            for values in zip(*map(part.fields_of, members))
        ]
        if not columns:
            return [(cls, ())] * len(members)
        return list(zip(repeat(cls), zip(*columns)))

    def _extend(self, tag, reps):
        """Append new entries, all of part ``tag``, to the table."""
        self.tags += [tag] * len(reps)
        part = self.parts[tag]
        if part.__class__ is _Objects:
            for column, items in zip(part.columns, zip(*[rep[1] for rep in reps])):
                column.items += items
        else:
            part.items += reps


def _table_keys(block, values, held):
    """A message table's keys for ``values``, which are also what it holds:
    their texts, but a value of the exact class ``held`` — ``float`` for
    messages, ``int`` for a registered message's fields; never both, as
    ``1 == 1.0`` — is its own key (its text is its repr, and the table packs
    it). The float zeros (equal floats of two texts) and non-finite floats
    are keyed by their texts."""
    classes = set(map(type, values))
    if classes == {held} and (
        held is int or 0.0 not in values and all(map(isfinite, values))
    ):
        return list(values)
    if held in classes:
        dumps = block.codec.dumps
        return [
            value if value.__class__ is held and (held is int or value and isfinite(value))
            else dumps(value)
            for value in values
        ]
    return column_texts(block.codec, values)


def _same_items(after, before):
    """Whether two exact dicts hold the same key and value objects in order."""
    return (
        after.__class__ is dict and before.__class__ is dict
        and len(after) == len(before)
        and all(map(is_, after, before))
        and all(map(is_, after.values(), before.values()))
    )


class _EdgeMaps(_Parts):
    """Edge maps, and (``edges_after``) the records whose map is the text of
    their ``edges_before`` — nearly always a second snapshot holding the
    very same key and value objects."""

    def part(self, block, key):
        return _Maps()

    def keys(self, block, maps, befores):
        if set(map(type, maps)) == _DICT:
            keys = [_MAP] * len(maps)
        else:
            keys = [_MAP if value.__class__ is dict else _TEXT for value in maps]
        if befores is None:
            return keys
        if (
            set(map(type, befores)) == _DICT
            and keys.count(_MAP) == len(keys)
            and list(map(len, maps)) == list(map(len, befores))
            and all(map(is_, chain.from_iterable(maps), chain.from_iterable(befores)))
            and all(map(
                is_,
                chain.from_iterable(map(dict.values, maps)),
                chain.from_iterable(map(dict.values, befores)),
            ))
        ):
            return [_SAME] * len(maps)
        codec = block.codec
        return [
            _SAME if _same_items(after, before)
            or field_text(codec, "edges_after", after)
            == field_text(codec, "edges_before", before) else key
            for after, before, key in zip(maps, befores, keys)
        ]


def _is_pair_list(value):
    return value.__class__ is list and all(
        item.__class__ is tuple and len(item) == 2 for item in value
    )


class _Messages(_Parts):
    """``incoming`` / ``sent``: lists of exact 2-tuples by column, anything
    else as its text."""

    def part(self, block, key):
        return _PairLists(_MessageTable())

    def keys(self, block, lists, _others):
        if set(map(type, lists)) == _LIST:
            pairs = list(chain.from_iterable(lists))
            if not pairs or (
                set(map(type, pairs)) == _TUPLE and set(map(len, pairs)) == _PAIR_LEN
            ):
                return [_PAIRS] * len(lists)
        return [_PAIRS if _is_pair_list(value) else _TEXT for value in lists]


_SAME_AS = {"edges_after": "edges_before"}
_COLUMNS = {
    "value_before": _Values, "value_after": _Values,
    "edges_before": _EdgeMaps, "edges_after": _EdgeMaps,
    "incoming": _Messages, "sent": _Messages,
}


_PLANS = {}


def _plan(names):
    """What a :class:`BlockBuilder` for the field table ``names`` is made of."""
    columns = []
    for name in names:
        other = _SAME_AS.get(name)
        columns.append((
            _COLUMNS.get(name, _Texts),
            names.index(other) if other in names else None,
        ))
    index = {name: position for position, name in enumerate(names)}
    return (
        attrgetter(*names), columns, index["superstep"], index.get("vertex_id"),
        index.get("violations"), index.get("exception"),
    )


class BlockBuilder:
    """One block's records, held by column between two flushes of one file.

    ``names`` is the file's field table for ``kind``; columns follow it.
    """

    def __init__(self, codec, kind, names):
        self.codec = codec
        self.kind = kind
        self.size = 0
        self.supersteps = []
        plan = _PLANS.get(names)
        if plan is None:
            plan = _PLANS[names] = _plan(names)
        self._get, columns, self._superstep, self._vertex_id, self._violations, \
            self._exception = plan
        self._columns = [(column(same_as), same_as) for column, same_as in columns]
        if kind == KIND_VERTEX:
            self.reprs = []
            self.vflags = []
            self.int_ids = True         # every id is an exact int (held as itself)
            self.plain_ids = True       # every id is an exact int or str

    def add(self, records):
        """Write the texts of ``records`` (of this block's kind) into the columns."""
        values = list(zip(*map(self._get, records)))
        for (column, same_as), field_values in zip(self._columns, values):
            column.add(self, field_values, None if same_as is None else values[same_as])
        self.size += len(records)
        self.supersteps += values[self._superstep]
        if self.kind == KIND_VERTEX:
            self._add_index(values)

    def _add_index(self, values):
        ids = values[self._vertex_id]
        classes = set(map(type, ids))
        if classes == _INT:
            self.reprs += ids
        else:
            self.int_ids = False
            self.plain_ids = self.plain_ids and classes <= {int, str}
            self.reprs += map(repr, ids)
        violations = values[self._violations]
        exceptions = values[self._exception]
        if not any(violations) and all(map(is_, exceptions, repeat(None))):
            self.vflags += [0] * len(ids)
        else:
            self.vflags += [
                VFLAG_VIOLATIONS * truth(violation)
                | VFLAG_EXCEPTION * (exception is not None)
                for violation, exception in zip(violations, exceptions)
            ]

    def encode(self):
        """``(payload bytes, sidecar text after the prefix, counters)``."""
        counters = (min(self.supersteps), max(self.supersteps), self.size, 0, 0, 0)
        if self.kind == KIND_VERTEX:
            counters = counters[:3] + (
                sum(flag & VFLAG_VIOLATIONS for flag in self.vflags),
                sum(flag >> 1 for flag in self.vflags),
                0,
            )
            entries = self._entries()
        else:
            counters = counters[:5] + (self.size,)
            entries = self._steps_text() + "||"
        head = f"{self.kind} {self.size}"
        if self.size <= _ROWS_UP_TO:
            lines = [head, *map(self._row, range(self.size))]
        else:
            out = _Layout()
            for column, _same_as in self._columns:
                column.put(out)
            if self.kind == KIND_VERTEX:
                put_items(out, self.vflags)
                if not self.plain_ids:
                    out.tokens.append("R")
                    put_items(out, list(map(encode_basestring_ascii, map(str, self.reprs))))
            packed = b"".join(out.packed)
            lines = [
                f"{head} {len(packed)} " + " ".join(out.tokens),
                "".join(out.consts),
                *out.sections,
            ]
            return "\n".join(lines).encode("ascii") + packed, entries, counters
        return "\n".join(lines).encode("ascii"), entries, counters

    def _row(self, position):
        """A record as a row: its texts (and a vertex record's index flags)
        as one JSON array — a few records are cheapest to read that way."""
        texts = [column.text(position) for column, _same_as in self._columns]
        texts = [
            texts[text.field_index] if text.__class__ is _Same else text
            for text in texts
        ]
        if self.kind == KIND_VERTEX:
            texts.append(str(self.vflags[position]))
        return "[" + ",".join(texts) + "]"

    def _steps_text(self):
        steps = self.supersteps
        return "" if min(steps) == max(steps) else ",".join(map(str, steps))

    def _entries(self):
        flags = "" if not any(self.vflags) else ",".join(map(str, self.vflags))
        reprs = list(map(str, self.reprs))      # an int id is held as itself
        if self.int_ids:
            ids = ",".join(reprs)
        else:
            ids = json.dumps(reprs, separators=(",", ":"))
        return f"{self._steps_text()}|{flags}|{ids}"


# -- reading a block ----------------------------------------------------------

_scan_json = json.JSONDecoder().scan_once


def _split_row(text):
    """Cut a row ``[t1,t2,...]`` into its texts without decoding them: the
    JSON scanner's stop offsets are the boundaries."""
    texts = []
    end = 1
    if text.startswith("[") and text != "[]":
        while True:
            start = end
            _value, end = _scan_json(text, start)
            texts.append(text[start:end])
            if not text.startswith(",", end):
                break
            end += 1
    if not text.startswith("[") or text[end:] != "]":
        raise ValueError("malformed row")
    return texts


def _ints(text):
    return list(map(int, text.split(","))) if text else []


class _Fixed:
    """Texts of one width (see :func:`fixed_width`): a text is a slice away."""

    __slots__ = ("text", "step")

    def __init__(self, text, size):
        self.text = text
        self.step = step = 1 if len(text) == size else (len(text) + 1) // size
        if step < 1 or step * size - (step > 1) != len(text):
            raise ValueError("a fixed-width column of the wrong length")

    def __getitem__(self, key):
        step = self.step
        if key.__class__ is slice:
            if step == 1:
                return list(self.text[key])
            return self.text[key.start * step:key.stop * step].split()
        return self.text[key * step:key * step + step].strip()

    def listed(self):
        return list(self.text) if self.step == 1 else self.text.split()


class _Numbers:
    """A packed column: a record's text is the repr of its item."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        if key.__class__ is slice:
            return list(map(repr, self.values[key].tolist()))
        return repr(self.values[key])

    def listed(self):
        return list(map(repr, self.values.tolist()))


class _Const:
    __slots__ = ("text", "size")

    def __init__(self, text, size):
        self.text = text
        self.size = size

    def __getitem__(self, key):
        if key.__class__ is slice:
            return [self.text] * (key.stop - key.start)
        return self.text

    def listed(self):
        return [self.text] * self.size


class _Lookup:
    """A dictionary column: per-record indexes into a table of texts."""

    __slots__ = ("refs", "table")

    def __init__(self, refs, table):
        self.refs = refs
        self.table = table.listed()

    def __getitem__(self, key):
        if key.__class__ is slice:
            return list(map(self.table.__getitem__, self.refs[key].tolist()))
        return self.table[self.refs[key]]

    def listed(self):
        return list(map(self.table.__getitem__, self.refs.tolist()))


class _Concat:
    """Texts that may hold spaces: their lengths, then their concatenation."""

    __slots__ = ("lengths", "body", "_ends")

    def __init__(self, lengths, body):
        self.lengths = lengths
        self.body = body
        self._ends = None

    def _bounds(self):
        if self._ends is None:
            ends = [0, *accumulate(self.lengths)]
            if ends[-1] != len(self.body):
                raise TraceError("malformed trace block: text lengths that do not add up")
            self._ends = ends
        return self._ends

    def __getitem__(self, key):
        ends = self._bounds()
        if key.__class__ is slice:
            cuts = map(slice, ends[key.start:key.stop], ends[key.start + 1:key.stop + 1])
            return list(map(self.body.__getitem__, cuts))
        return self.body[ends[key]:ends[key + 1]]

    def listed(self):
        ends = self._bounds()
        return list(map(self.body.__getitem__, map(slice, ends, ends[1:])))


#: Reads of one block after which its columns are turned into lists.
_LISTED_AFTER = 8

#: Blocks of at most this many records are written as rows.
_ROWS_UP_TO = 4

def _listed(column):
    """Every text of a column, as a list: built once, a list is the
    cheapest to index when many records of a block are read."""
    return column if column.__class__ is list else column.listed()


class _ObjectColumn:
    __slots__ = ("template", "columns", "size")

    def __init__(self, template, columns, size):
        self.template = template
        self.columns = columns
        self.size = size

    def __getitem__(self, index):
        return self.template % tuple([column[index] for column in self.columns])

    def listed(self):
        if not self.columns:
            return [self.template % ()] * self.size
        return list(map(self.template.__mod__, zip(*map(_listed, self.columns))))


class _Spans:
    """Per-record runs of a flattened column: record i owns ``[start, end)``."""

    __slots__ = ("ends",)

    def __init__(self, counts):
        self.ends = [0, *accumulate(counts)]

    def span(self, index):
        return self.ends[index], self.ends[index + 1]

    def _bodies(self, separator, items):
        """Per record, its run of ``items`` joined by ``separator``."""
        ends = self.ends
        return map(separator.join, map(items.__getitem__, map(slice, ends, ends[1:])))


class _MapColumn(_Spans):
    __slots__ = ("keys", "values")

    def __init__(self, counts, keys, values):
        super().__init__(counts)
        self.keys = keys
        self.values = values

    def __getitem__(self, index):
        start, end = self.span(index)
        if start == end:
            return "{}"
        return ValueCodec.join_items(zip(self.keys[start:end], self.values[start:end]))

    def items(self, index):
        """The map itself (see :func:`_reader_of`)."""
        start, end = self.span(index)
        keys = self.keys.values[start:end].tolist()
        if self.values.__class__ is _Const:
            return dict.fromkeys(keys)
        return dict(zip(keys, self.values.values[start:end].tolist()))

    def listed(self):
        items = map("[%s,%s]".__mod__, zip(_listed(self.keys), _listed(self.values)))
        return [
            _DICT_OPEN + body + _ITEMS_CLOSE if body else "{}"
            for body in self._bodies(",", list(items))
        ]


class _PairColumn(_Spans):
    __slots__ = ("ids", "refs", "messages")

    def __init__(self, counts, refs, ids, messages):
        super().__init__(counts)
        self.ids = ids
        self.refs = refs
        self.messages = messages

    def __getitem__(self, index):
        start, end = self.span(index)
        if start == end:
            return "[]"
        refs = self.refs[start:end].tolist()
        if self.messages.__class__ is _Numbers:     # a repr per pair, in C
            messages = map(repr, map(self.messages.values.__getitem__, refs))
        else:
            if self.messages.__class__ is _Fixed:   # texts: one split beats a slice per pair
                self.messages = self.messages.listed()
            messages = map(self.messages.__getitem__, refs)
        return ValueCodec.dumps_tuples(zip(self.ids[start:end], messages))

    def pairs(self, index):
        """The pairs themselves (see :func:`_reader_of`)."""
        start, end = self.span(index)
        messages = map(self.messages.values.__getitem__, self.refs[start:end].tolist())
        return list(zip(self.ids.values[start:end].tolist(), messages))

    def listed(self):
        messages = map(_listed(self.messages).__getitem__, self.refs.tolist())
        items = map(",".join, zip(_listed(self.ids), messages))
        return [
            _PAIRS_OPEN + body + _PAIRS_CLOSE if body else "[]"
            for body in self._bodies(_TUPLE_SEP, list(items))
        ]


def _reader_of(column):
    """How :meth:`Block.record` reads a column's values with no text
    between — a packed number is its item, a pair list of packed ids and
    messages its tuples, an edge map of packed keys and packed (or all
    ``null``) values its dict — or None: the column is read from its texts."""
    cls = column.__class__
    if cls is _Numbers:
        return column.values.__getitem__
    if cls is _PairColumn and column.ids.__class__ is column.messages.__class__ is _Numbers:
        return column.pairs
    if cls is _MapColumn and column.keys.__class__ is _Numbers and (
        column.values.__class__ is _Numbers
        or column.values.__class__ is _Const and column.values.text == "null"
    ):
        return column.items
    return None


class _SameColumn:
    """Field ``field`` of the same record; resolved once the block is read."""

    __slots__ = ("columns", "field")

    def __init__(self, columns, field):
        self.columns = columns
        self.field = field

    def __getitem__(self, index):
        return self.columns[self.field][index]


class _MixedColumn:
    __slots__ = ("selector", "parts")

    def __init__(self, selector, parts):
        self.selector = selector
        self.parts = parts

    def __getitem__(self, index):
        tag = self.selector[index]
        part = self.parts[_TAGS.index(tag)]
        if part.__class__ is _SameColumn:
            return part[index]
        return part[self.selector.count(tag, 0, index)]

    def listed(self):
        self.parts = [
            part if part.__class__ is _SameColumn else _listed(part)
            for part in self.parts
        ]
        return list(map(self.__getitem__, range(len(self.selector))))


class _BlockReader:
    """A cursor over one block's head tokens, constants, text sections and
    packed sections."""

    def __init__(self, tokens, consts, sections, packed):
        self.tokens = iter(tokens)
        self.consts = consts
        self.sections = iter(sections)
        self.packed = packed
        self.const_at = self.packed_at = 0
        self.columns = []

    def column(self, size):
        """The next column, of ``size`` records."""
        return self._column(next(self.tokens), size)

    def numbers(self, size, token=None):
        """The next packed section (named by ``token`` when that is already
        read), of ``size`` values, as a sequence."""
        token = token or next(self.tokens)
        code = token[1:]
        if token[:1] != "n" or code not in _ITEMSIZE:
            raise ValueError(f"not a packed section: {token!r}")
        start = self.packed_at
        self.packed_at = end = start + size * _ITEMSIZE[code]
        if end > len(self.packed):
            raise ValueError("a packed section past the block's end")
        section = self.packed[start:end]
        if not _LITTLE:
            section = memoryview(pack(f"={size}{code}", *unpack(f"<{size}{code}", section)))
        return section.cast(code)

    def _column(self, token, size):
        if token[0] == "c":
            start = self.const_at
            self.const_at = end = start + int(token[1:])
            if end > len(self.consts):
                raise ValueError("a constant past the constants' end")
            return _Const(self.consts[start:end], size)
        if token == "f":
            return _Fixed(next(self.sections), size)
        if token[0] == "n":
            return _Numbers(self.numbers(size, token))
        if token == "t":
            lengths = self.numbers(size).tolist()
            return _Concat(lengths, next(self.sections))
        if token == "d":
            entries = int(next(self.tokens))
            refs = self.numbers(size)
            return _Lookup(refs, self.column(entries))
        if token == "o":
            width = int(next(self.tokens))
            template = next(self.sections)
            return _ObjectColumn(template, [self.column(size) for _ in range(width)], size)
        if token == "m":
            counts = self.numbers(size).tolist()
            total = sum(counts)
            return _MapColumn(counts, self.column(total), self.column(total))
        if token == "p":
            entries = int(next(self.tokens))
            counts = self.numbers(size).tolist()
            total = sum(counts)
            refs = self.numbers(total)
            messages = self.column(entries)
            return _PairColumn(counts, refs, self.column(total), messages)
        if token == "x":
            width = int(next(self.tokens))
            selector = next(self.sections)
            sizes = [selector.count(tag) for tag in _TAGS[:width]]
            if sum(sizes) != len(selector) or len(selector) != size:
                raise ValueError("a mixed column's selector does not fit")
            return _MixedColumn(selector, list(map(self.column, sizes)))
        if token.startswith("s"):
            return _SameColumn(self.columns, int(token[1:]))
        raise ValueError(f"unknown column spec {token!r}")


class Block:
    """One decoded block: every record's field texts, rebuilt on demand.

    ``texts(position)`` is O(fields): a constant is its text, a
    fixed-width text a slice, a packed number one item's repr, template /
    map / pair columns fill and join what they slice out of their
    flattened columns; a block of rows splits its rows once.
    """

    __slots__ = (
        "kind", "size", "names", "columns", "vflags", "reprs", "payload_size",
        "_reads", "_listed", "_rows", "_read_by",
    )

    def __init__(self, payload, tables):
        self._reads = self._listed = 0
        self.payload_size = len(payload)
        cut = payload.index(b"\n")
        head = payload[:cut].decode("ascii").split(" ")
        self.kind = kind = int(head[0])
        self.size = size = int(head[1])
        names = self.names = tables[kind]
        self.vflags = self.reprs = None
        if len(head) == 2:          # a few records, as rows: split on first use
            self._rows = payload[cut + 1:].decode("ascii").split("\n")
            if len(self._rows) != size:
                raise ValueError("a block holds other than its rows")
            self.columns = self._read_by = None
            return
        packed_at = len(payload) - int(head[2])
        if packed_at <= cut:
            raise ValueError("a packed part longer than the block")
        consts, *sections = payload[cut + 1:packed_at].decode("ascii").split("\n")
        cursor = _BlockReader(head[3:], consts, sections, memoryview(payload)[packed_at:])
        columns = cursor.columns
        columns += [cursor.column(size) for _ in names]
        for column in columns:
            if column.__class__ is _SameColumn:
                target = columns[column.field]
                if target.__class__ is _SameColumn:
                    raise ValueError("a column is the same as a same-as column")
        self.columns = columns
        self._read_by = [
            _reader_of(columns[column.field] if column.__class__ is _SameColumn else column)
            for column in columns
        ]
        if kind == KIND_VERTEX:
            self.vflags = cursor.column(size)
            marker = next(cursor.tokens, None)
            if marker is not None:
                if marker != "R":
                    raise ValueError(f"unknown column marker {marker!r}")
                self.reprs = cursor.column(size)
        if (
            next(cursor.tokens, None) is not None
            or next(cursor.sections, None) is not None
            or cursor.const_at != len(consts)
            or cursor.packed_at != len(cursor.packed)
        ):
            raise ValueError("a block holds more than its columns")

    def texts(self, position):
        """The field texts of the record at ``position``, in file field order."""
        if self.columns is None:
            self._split_rows()
        self._count_read(None)
        return [column[position] for column in self.columns]

    def record(self, position, codec):
        """The record at ``position``: what :func:`record_from_row` makes of
        its row, with no text between where a column is packed (see
        :func:`_reader_of`). The other fields are decoded from their texts,
        with one ``json.loads``."""
        read_by = self._read_by
        if read_by is None:         # a block of rows: the line (less a vertex row's flags)
            row = self._rows[position]
            if self.kind == KIND_VERTEX:
                row = row[:row.rindex(",")] + "]"
            return record_from_row(self.kind, row, codec, self.names)
        self._count_read(read_by)
        texts = [column[position] for column, read in zip(self.columns, read_by) if read is None]
        if texts:
            decode = codec.decode
            decoded = iter([
                value if value.__class__ in _SCALARS else decode(value)
                for value in json.loads("[" + ",".join(texts) + "]")
            ])
        values = [next(decoded) if read is None else read(position) for read in read_by]
        return record_of(self.kind, self.names, values)

    def _count_read(self, read_by):
        """The first few reads slice what they need out of the columns; a
        block read further (a superstep scan, the canonical walk) turns the
        columns its reader takes as texts into lists, each once, the
        cheapest form to index: every column for :meth:`texts`, and for
        :meth:`record` (``read_by`` its readers) those it reads as texts."""
        self._reads += 1
        level = 1 if read_by else 2
        if self._reads >= _LISTED_AFTER and self._listed < level:
            self._listed = level
            self.columns[:] = [
                column if column.__class__ is _SameColumn or read is not None
                else _listed(column)
                for column, read in zip(self.columns, read_by or repeat(None))
            ]

    def _split_rows(self):
        width = len(self.names) + (self.kind == KIND_VERTEX)
        try:
            rows = list(map(_split_row, self._rows))
        except (ValueError, StopIteration) as exc:
            raise TraceError(f"malformed trace block: {exc}") from exc
        if any(len(row) != width for row in rows):
            raise TraceError("malformed trace block: a row does not fit")
        columns = [list(column) for column in zip(*rows)]
        self.columns = columns[:len(self.names)]
        if self.kind == KIND_VERTEX:
            self.vflags = columns[-1]

    def entries(self):
        """``(kind, superstep, repr(vertex_id), position, vflags)`` per record,
        from the block's own columns: what an index line says of it."""
        if self.columns is None:
            self._split_rows()
        size = self.size
        steps = self.columns[self.names.index("superstep")]
        steps = [int(steps[position]) for position in range(size)]
        if self.kind == KIND_MASTER:
            return list(zip(repeat(KIND_MASTER), steps, repeat(None), range(size), repeat(0)))
        if self.reprs is not None:
            reprs = list(map(json.loads, self.reprs[0:size]))
        else:
            ids = self.columns[self.names.index("vertex_id")]
            reprs = [
                repr(json.loads(text)) if text.startswith('"') else text
                for text in map(ids.__getitem__, range(size))
            ]
        vflags = list(map(int, self.vflags[0:size]))
        if len(reprs) != size or len(vflags) != size:
            raise ValueError("index columns of the wrong length")
        return list(zip(repeat(KIND_VERTEX), steps, reprs, range(size), vflags))


# -- the index sidecar ---------------------------------------------------------


class BlockMeta:
    """One data block as the index sidecar (or a recovery scan) sees it."""

    __slots__ = (
        "offset", "length", "flags", "min_superstep", "max_superstep",
        "num_records", "num_violations", "num_exceptions", "num_masters",
        "_entries", "_entries_text",
    )

    def __init__(self, offset, length, flags, min_superstep, max_superstep,
                 num_records, num_violations, num_exceptions, num_masters,
                 entries=None, entries_text=None):
        self.offset = offset
        self.length = length
        self.flags = flags
        self.min_superstep = min_superstep
        self.max_superstep = max_superstep
        self.num_records = num_records
        self.num_violations = num_violations
        self.num_exceptions = num_exceptions
        self.num_masters = num_masters
        self._entries = entries
        self._entries_text = entries_text

    @property
    def end(self):
        return self.offset + self.length

    def covers_superstep(self, superstep):
        return self.min_superstep <= superstep <= self.max_superstep

    def entries(self):
        """``(kind, superstep, repr(vertex_id), position, vflags)`` per record.

        Parsed from the sidecar line on first use and memoized — the lazy
        reader's whole point is that most blocks never reach this call.
        """
        if self._entries is None:
            self._entries = self._parse_entries()
            self._entries_text = None
        return self._entries

    def _parse_entries(self):
        if self._entries_text is None:
            raise TraceError("index block has neither entries nor text")
        steps, flags, ids = self._entries_text.split("|", 2)
        size = self.num_records
        steps = _ints(steps) if steps else [self.min_superstep] * size
        flags = _ints(flags) if flags else [0] * size
        if self.num_masters:
            kind, reprs = KIND_MASTER, [None] * size
        else:
            kind = KIND_VERTEX
            reprs = json.loads(ids) if ids.startswith("[") else ids.split(",")
        if not len(steps) == len(flags) == len(reprs) == size:
            raise TraceError("index line entries of the wrong length")
        return list(zip(repeat(kind), steps, reprs, range(size), flags))


def format_idx_header(trace_filename):
    payload = json.dumps(
        {"version": TRACE_VERSION, "trace": trace_filename},
        separators=(",", ":"), sort_keys=True,
    )
    return f"{IDX_MAGIC} {payload}"


def format_idx_line(meta, entries_text):
    """Render one sidecar line for a block."""
    return (
        f"B {meta.offset} {meta.length} {meta.flags} "
        f"{meta.min_superstep} {meta.max_superstep} {meta.num_records} "
        f"{meta.num_violations} {meta.num_exceptions} {meta.num_masters} "
        f"|{entries_text}"
    )


def parse_idx_line(line):
    """Parse one sidecar block line into a :class:`BlockMeta` (entries lazy).

    Raises ``ValueError`` on any malformed line — the reader treats that
    as the index ending there and rescans the rest of the trace file.
    """
    prefix, sep, entries_text = line.partition("|")
    if not sep or entries_text.count("|") < 2:
        raise ValueError("index line has no entries")
    fields = prefix.split()
    if len(fields) != 10 or fields[0] != "B":
        raise ValueError(f"malformed index prefix: {prefix!r}")
    numbers = [int(token) for token in fields[1:]]
    return BlockMeta(*numbers, entries_text=entries_text)


def summarize_entries(offset, length, flags, entries):
    """A :class:`BlockMeta` for a block whose entries are known."""
    supersteps = [entry[1] for entry in entries]
    masters = sum(1 for entry in entries if entry[0] == KIND_MASTER)
    return BlockMeta(
        offset=offset,
        length=length,
        flags=flags,
        min_superstep=min(supersteps),
        max_superstep=max(supersteps),
        num_records=len(entries),
        num_violations=sum(1 for e in entries if e[4] & VFLAG_VIOLATIONS),
        num_exceptions=sum(1 for e in entries if e[4] & VFLAG_EXCEPTION),
        num_masters=masters,
        entries=entries,
    )


# -- reading the trace file itself --------------------------------------------


def read_header(filesystem, path):
    """Read the magic line and the header frame.

    Returns ``(header_dict, data_start_offset)``. An empty file — what a
    crash between the writer's ``create`` and its first append leaves — is
    an empty trace, ``({}, 0)``; a file that holds bytes but does not start
    with the magic is not a trace at all and raises :class:`TraceError`.
    """
    base = len(TRACE_MAGIC)
    magic = filesystem.read_range(path, 0, base)
    if not magic:
        return {}, 0
    if magic != TRACE_MAGIC:
        raise TraceError(
            f"{path!r} is not a trace file: it does not start with "
            f"{TRACE_MAGIC.decode().rstrip()}"
        )
    length_bytes = filesystem.read_range(path, base, _U32)
    if len(length_bytes) != _U32:
        raise TraceError(f"v3 trace {path!r} has no header frame")
    header_len = int.from_bytes(length_bytes, "big")
    raw = filesystem.read_range(path, base + _FRAME_HEADER, header_len)
    if len(raw) != header_len:
        raise TraceError(f"v3 trace {path!r} header frame truncated")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"v3 trace {path!r} header unreadable: {exc}") from exc
    return header, base + _FRAME_HEADER + header_len


def unpack_payload(raw_frame):
    """Decode one stored frame (``u32 | flags | stored``) to its payload."""
    if len(raw_frame) < _FRAME_HEADER:
        raise TraceError("trace block shorter than its frame header")
    stored_len = int.from_bytes(raw_frame[:_U32], "big")
    flags = raw_frame[_U32]
    stored = raw_frame[_FRAME_HEADER:_FRAME_HEADER + stored_len]
    if len(stored) != stored_len:
        raise TraceError("trace block truncated mid-frame")
    if flags & BLOCK_FLAG_ZLIB:
        return zlib.decompress(stored), flags
    return bytes(stored), flags


def read_block(filesystem, path, meta, tables):
    """Fetch one indexed block with a single ranged read and decode it."""
    payload, _flags = unpack_payload(
        filesystem.read_range(path, meta.offset, meta.length)
    )
    return decode_block(payload, tables)


def decode_block(payload, tables):
    try:
        return Block(payload, tables)
    except (ValueError, IndexError, KeyError, StopIteration) as exc:
        raise TraceError(f"malformed trace block: {exc}") from exc


def iter_frames(filesystem, path, start_offset):
    """``(offset, frame length, flags, payload)`` of every complete frame
    from ``start_offset`` on, read with one ranged read. A torn final frame
    (a crash mid-append) or one that does not inflate ends the walk."""
    data = filesystem.read_range(
        path, start_offset, filesystem.stat(path).size - start_offset
    )
    offset = 0
    while offset + _FRAME_HEADER <= len(data):
        frame_len = _FRAME_HEADER + int.from_bytes(data[offset:offset + _U32], "big")
        if offset + frame_len > len(data):
            return
        try:
            payload, flags = unpack_payload(data[offset:offset + frame_len])
        except (TraceError, zlib.error):
            return
        yield start_offset + offset, frame_len, flags, payload
        offset += frame_len


def scan_blocks(filesystem, path, start_offset, header):
    """Re-index blocks by scanning the trace file directly.

    The recovery path for a missing or truncated index sidecar: each
    block's own superstep, flag and id columns give its entries back; no
    record is rebuilt. A block that does not decode ends the scan.
    """
    tables = field_tables(header)
    for offset, frame_len, flags, payload in iter_frames(filesystem, path, start_offset):
        try:
            entries = decode_block(payload, tables).entries()
        except (TraceError, ValueError):
            return
        if entries:
            yield summarize_entries(offset, frame_len, flags, entries)


def iter_blocks(filesystem, path):
    """Every decoded block of a trace file, in file order (eager path)."""
    header, data_start = read_header(filesystem, path)
    if not header:
        return
    tables = field_tables(header)
    for _offset, _len, _flags, payload in iter_frames(filesystem, path, data_start):
        yield decode_block(payload, tables)


def load_index(filesystem, trace_path):
    """Load the sidecar for ``trace_path``; recover whatever it misses.

    Returns ``(blocks, header, stats)`` where ``blocks`` is the complete
    in-order list of :class:`BlockMeta` (sidecar lines first, then any
    blocks recovered by scanning the unindexed tail) and ``stats`` counts
    ``{"indexed_blocks": ..., "recovered_blocks": ...}`` for the
    ``trace stats`` report.
    """
    header, data_start = read_header(filesystem, trace_path)
    size = filesystem.stat(trace_path).size
    idx_path = trace_path + ".idx"
    blocks = []
    covered_end = data_start
    if filesystem.is_file(idx_path):
        try:
            text = filesystem.read_bytes(idx_path).decode("utf-8")
        except UnicodeDecodeError:
            text = ""
        # Sidecar lines are newline-terminated as they are appended; a
        # final segment with no trailing newline is a torn write and is
        # discarded (its block gets recovered from the trace file).
        complete, newline, _torn = text.rpartition("\n")
        lines = iter(complete.split("\n")) if newline else iter(())
        first = next(lines, None)
        if first is not None and first.startswith(IDX_MAGIC):
            for line in lines:
                try:
                    meta = parse_idx_line(line)
                except (ValueError, UnicodeDecodeError):
                    break  # truncated/corrupt tail: rescan from here
                if (
                    meta.offset != covered_end
                    or meta.end > size
                    or meta.length <= _FRAME_HEADER
                ):
                    break  # stale entry pointing outside the file
                blocks.append(meta)
                covered_end = meta.end
    indexed = len(blocks)
    if covered_end < size:
        blocks.extend(scan_blocks(filesystem, trace_path, covered_end, header))
    stats = {
        "indexed_blocks": indexed,
        "recovered_blocks": len(blocks) - indexed,
    }
    return blocks, header, stats
