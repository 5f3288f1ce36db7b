"""Differential debugging: compare two captured runs.

A natural extension of the Graft workflow (and of its future-work
direction): after fixing a bug, run the old and the new implementation
under capture-all-active with the same seed and diff the traces. The first
superstep at which a vertex's value or messages diverge is where the two
implementations' behaviour splits — usually the bug's first observable
effect.

This module holds the one run-vs-run comparison: a streaming full outer
merge join of two canonical row walks
(:func:`~repro.graft.trace.iter_canonical_rows`) in step order. Two rows
are equal when their field texts are byte-equal — what
:func:`~repro.graft.trace.canonical_trace_digest` hashes — so ``nan``
equals ``nan`` and ``1`` differs from ``1.0``; nothing is decoded except
the one differing field of a divergence that gets reported.
:func:`diff_runs` folds the join per vertex, graft-san asks it where a
permuted schedule first left the baseline, the chaos harness where a
recovered run did.
"""

import heapq
from dataclasses import dataclass, field
from itertools import groupby

from repro.common.serialization import default_codec
from repro.graft.capture import (
    KIND_MASTER,
    KIND_VERTEX,
    master_field_names,
    vertex_field_names,
)
from repro.graft.trace import iter_canonical_rows, step_order


@dataclass(frozen=True)
class Divergence:
    """The first difference found for one vertex."""

    vertex_id: object
    superstep: int
    field_name: str          # "value_after", "sent", "halted", or "presence"
    left: object             # the field's value; for "presence", how many
    right: object            # captures of the vertex that run holds (1 / 0)

    def summary(self):
        return (
            f"vertex {self.vertex_id!r} first diverges at superstep "
            f"{self.superstep} on {self.field_name}: "
            f"{self.left!r} vs {self.right!r}"
        )


@dataclass
class DiffReport:
    """All first-divergences between two runs, plus quick accessors."""

    divergences: list = field(default_factory=list)
    compared_keys: int = 0

    @property
    def identical(self):
        return not self.divergences

    def earliest(self):
        """The overall first divergence, or None."""
        if not self.divergences:
            return None
        return min(
            self.divergences, key=lambda d: (d.superstep, repr(d.vertex_id))
        )

    def by_superstep(self):
        """Histogram ``{superstep: number of vertices first diverging}``."""
        counts = {}
        for divergence in self.divergences:
            counts[divergence.superstep] = counts.get(divergence.superstep, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self):
        if self.identical:
            return f"runs identical across {self.compared_keys} captured contexts"
        earliest = self.earliest()
        return (
            f"{len(self.divergences)} vertices diverge "
            f"(earliest: {earliest.summary()})"
        )


# -- the join -----------------------------------------------------------------

#: The order a differing row's fields are examined in — outcome before
#: bookkeeping; fields not named follow in field order.
REPORT_ORDER = (
    "value_after", "sent", "halted", "value_before", "incoming",
    "aggregators", "violations", "exception",
)
PRESENCE = "presence"


def _report_slots(names):
    """``[(field name, row slot), ...]`` of one record kind, in report order."""
    ordered = [n for n in REPORT_ORDER if n in names]
    ordered += [n for n in names if n not in REPORT_ORDER]
    return [(name, names.index(name)) for name in ordered]


_SLOTS = {
    KIND_VERTEX: _report_slots(vertex_field_names()),
    KIND_MASTER: _report_slots(master_field_names()),
}
_VERTEX_ID_SLOT = vertex_field_names().index("vertex_id")


def _merge(left_walk, right_walk):
    """Full outer merge join of two row walks on their keys, in step order:
    ``(key, left_rows, right_rows)`` for every key either walk holds, a
    side that lacks the key as ``[]``."""
    def tagged(walk, side):
        return ((step_order(key), side, key, rows) for key, rows in walk)

    merged = heapq.merge(tagged(left_walk, 0), tagged(right_walk, 1))
    for _order, group in groupby(merged, key=lambda item: item[0]):
        sides = [[], []]
        for _order, side, key, rows in group:
            sides[side] = rows
        yield key, sides[0], sides[1]


def _difference(kind, left_rows, right_rows, fields=None):
    """How one key's rows differ on ``fields`` (every field when None).

    Rows pair up in canonical order; the first pair with a field whose
    texts are not byte-equal gives ``(field name, left text, right
    text)``, fields taken in report order. With every pair equal, a side
    holding more rows — the other walk lacks the key, or one more
    differing re-capture — gives :data:`PRESENCE` and, for texts, the two
    row counts. Otherwise None.
    """
    if left_rows == right_rows:
        return None
    for left_texts, right_texts in zip(left_rows, right_rows):
        for name, slot in _SLOTS[kind]:
            if left_texts[slot] != right_texts[slot] and (
                fields is None or name in fields
            ):
                return name, left_texts[slot], right_texts[slot]
    if len(left_rows) != len(right_rows):
        return PRESENCE, str(len(left_rows)), str(len(right_rows))
    return None


def _loads_each(codec, *texts):
    """Decode several field texts with one parse."""
    return codec.loads("[" + ",".join(texts) + "]")


def first_divergence(left_walk, right_walk, codec=None):
    """Where two row walks first part, comparing every field.

    ``(key, field name, left, right)`` — the field's two decoded values,
    or the key's two row counts under :data:`PRESENCE` — or None. Both
    walks are consumed only up to the diverging key.
    """
    for key, left_rows, right_rows in _merge(left_walk, right_walk):
        found = _difference(key[0], left_rows, right_rows)
        if found is not None:
            name, left, right = found
            return key, name, *_loads_each(codec or default_codec, left, right)
    return None


_COMPARED_FIELDS = ("value_after", "sent", "halted")


def diff_runs(left_run, right_run):
    """Diff two debug runs' traces; returns a :class:`DiffReport`.

    Both runs should capture the same vertices (typically
    capture-all-active) and use the same input graph and seed — then any
    divergence is attributable to the code difference alone. Reports, per
    vertex, the first superstep at which its ``value_after``, ``sent`` or
    ``halted`` differ as stored, or — ``"presence"``, ``left`` / ``right``
    counting each run's captures of it — at which only one run captured it.
    """
    walks = [
        iter_canonical_rows(run.session.filesystem, run.session.job_id)
        for run in (left_run, right_run)
    ]
    report = DiffReport()
    first = {}      # repr(vertex_id) -> its earliest difference
    for (kind, superstep, vertex_repr), left_rows, right_rows in _merge(*walks):
        if kind != KIND_VERTEX:
            continue
        if left_rows and right_rows:
            report.compared_keys += 1
        if vertex_repr not in first:
            found = _difference(kind, left_rows, right_rows, _COMPARED_FIELDS)
            if found is not None:
                id_text = (left_rows or right_rows)[0][_VERTEX_ID_SLOT]
                first[vertex_repr] = (superstep, *found, id_text)
    # The join ran in step order: ``first`` is in (superstep, repr(id)) order.
    for superstep, name, left, right, id_text in first.values():
        left, right, vertex_id = _loads_each(default_codec, left, right, id_text)
        report.divergences.append(
            Divergence(vertex_id, superstep, name, left, right)
        )
    return report
