"""The reference for comparing two runs: decode everything, the slow way.

:mod:`repro.graft.diffing` joins two walks of stored row texts and decodes
nothing but what it reports. This is the contract it is held to, written
the way the comparisons it replaced worked — build every record of both
jobs, key them, compare attribute by attribute — and sharing no code with
the row walk (no ``split_row``, no index sidecar):

1. decode every record of every trace file, in file order;
2. normalize ``worker_id`` (and, for graft-san's comparison, sort
   ``incoming`` by ``(repr(source), repr(value))``);
3. key by ``(superstep, master before vertices, repr(vertex_id))``; within
   a key collapse records with equal canonical lines — rollback
   re-captures — and order the rest by that line;
4. walk the keys of both jobs in order; pair a key's records up and name
   the first attribute, in report order, that differs. A key's remaining
   count difference is a ``presence`` divergence.

Two attribute values are *equal* when the trace holds the same text for
them — the digest's definition, not Python's ``==``: ``nan`` equals
``nan``, ``1`` differs from ``1.0``.
"""

import json

from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    MasterContextRecord,
    master_field_names,
    record_to_line,
    vertex_field_names,
)
from repro.graft.trace import iter_file_records, job_directory

REPORT_ORDER = (
    "value_after", "sent", "halted", "value_before", "incoming",
    "aggregators", "violations", "exception",
)


def canonical_records(filesystem, job_id, codec, sort_incoming=False):
    """``{step key: [(canonical line, record), ...]}`` of one job."""
    keyed = {}
    for path in filesystem.glob_files(job_directory(job_id), suffix=".trace"):
        for record in iter_file_records(filesystem, path, codec):
            if isinstance(record, MasterContextRecord):
                key = (record.superstep, 0, "")
            else:
                key = (record.superstep, 1, repr(record.vertex_id))
                record.worker_id = 0
                if sort_incoming:
                    record.incoming = sorted(
                        record.incoming,
                        key=lambda pair: (repr(pair[0]), repr(pair[1])),
                    )
            keyed.setdefault(key, {})[record_to_line(record, codec)] = record
    return {key: sorted(by_line.items()) for key, by_line in keyed.items()}


def _field_texts(line):
    """``{field name: its text}`` of a canonical line, re-written per field."""
    return {
        name: json.dumps(value, separators=(",", ":"), sort_keys=True)
        for name, value in json.loads(line).items()
    }


def reference_divergences(left, right, fields=None):
    """Every key at which two :func:`canonical_records` maps differ.

    ``[(kind, superstep, repr(vertex_id), field name, left, right)]`` in
    step order, comparing ``fields`` (every field when None): the two
    attribute values, or — field name ``"presence"`` — the two record
    counts.
    """
    found = []
    for key in sorted(set(left) | set(right)):
        superstep, is_vertex, vertex_repr = key
        kind = KIND_VERTEX if is_vertex else KIND_MASTER
        names = vertex_field_names() if is_vertex else master_field_names()
        names = [n for n in REPORT_ORDER if n in names] + [
            n for n in names if n not in REPORT_ORDER
        ]
        if fields is not None:
            names = [n for n in names if n in fields]
        ours, theirs = left.get(key, []), right.get(key, [])
        difference = None
        for (our_line, our_record), (their_line, their_record) in zip(ours, theirs):
            our_texts, their_texts = _field_texts(our_line), _field_texts(their_line)
            for name in names:
                if difference is None and our_texts[name] != their_texts[name]:
                    difference = (
                        name, getattr(our_record, name), getattr(their_record, name)
                    )
        if difference is None and len(ours) != len(theirs):
            difference = ("presence", len(ours), len(theirs))
        if difference is not None:
            found.append((kind, superstep, vertex_repr, *difference))
    return found
