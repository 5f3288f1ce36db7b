"""graft-san: confirm or refute order-sensitivity predictions at runtime.

The static determinism pack (GL016–GL020) *predicts* that a computation
depends on message delivery order. This harness settles the question:
:func:`run_sanitizer` executes the same job once under the canonical
delivery order and once per :class:`~repro.pregel.PermutationSchedule` —
permuted-but-seeded inbox orders that change *nothing* about the message
bags — and compares the runs through an **order-insensitive canonical
digest**. The digest normalizes each captured record's ``incoming`` list
(whose order legitimately reflects the schedule) and keeps everything
else byte-exact, so any difference is real: a vertex value, a sent
message, a halt decision, or an aggregator that moved because the order
moved.

An order-insensitive computation produces one digest across every
schedule and backend. An order-sensitive one diverges, and the report
pins the **first divergence** — schedule, superstep, vertex, and the
exact record field that differs — by joining the baseline's and the
schedule's normalized row walks in step order
(:func:`repro.graft.diffing.first_divergence`), the same canonical merge
the cross-backend determinism contract is built on. Verdicts feed the
same scoring pipeline as GL013/GL014 predictions: a divergence counts as
``order_divergence`` evidence for
:func:`~repro.analysis.score_predictions`, the fidelity report, and the
violations view.
"""

import warnings
from dataclasses import dataclass, field

from repro.common.serialization import default_codec
from repro.graft.capture import KIND_VERTEX, join_line, vertex_field_names
from repro.graft.diffing import PRESENCE, first_divergence
from repro.graft.trace import distinct_rows, iter_canonical_rows, lines_digest
from repro.pregel.permutation import PermutationSchedule
from repro.simfs.filesystem import SimFileSystem

#: Rule ids whose findings a digest divergence confirms (the
#: ``order_divergence`` crosslink, minus nothing — kept in sync with
#: :data:`repro.analysis.crosslink.RUNTIME_LINKS`).
ORDER_SENSITIVE_RULES = ("GL015", "GL016", "GL017", "GL018")


_INCOMING_SLOT = vertex_field_names().index("incoming")


def _normalized_rows(filesystem, job_id, codec):
    """The canonical row walk with every ``incoming`` slot re-sorted.

    ``incoming`` is the one field whose order is an artifact of the
    delivery schedule. Only that slot's text is looked at: a non-empty one
    is decoded, sorted by ``(source, value)`` repr and — only when the
    order moved — written back; every other field stays byte-exact.
    """
    def pair_key(pair):
        return repr(pair[0]), repr(pair[1])

    for key, rows in iter_canonical_rows(filesystem, job_id, codec):
        if key[0] == KIND_VERTEX:
            for texts in rows:
                if texts[_INCOMING_SLOT] != "[]":
                    incoming = codec.loads(texts[_INCOMING_SLOT])
                    normalized = sorted(incoming, key=pair_key)
                    if normalized != incoming:
                        texts[_INCOMING_SLOT] = codec.dumps(normalized)
            if len(rows) > 1:
                rows = distinct_rows(KIND_VERTEX, rows)
        yield key, rows


def order_insensitive_lines(filesystem, job_id, codec=None):
    """Canonical trace lines with per-record ``incoming`` order normalized.

    :func:`~repro.graft.trace.iter_canonical_rows` (worker placement
    already normalized, re-captures collapsed) with each vertex record's
    ``incoming`` list re-sorted, laid out as lines, sorted. Two schedules
    produce the same line list iff the computation itself ignored the
    order.
    """
    codec = codec or default_codec
    return sorted({
        join_line(key[0], texts)
        for key, rows in _normalized_rows(filesystem, job_id, codec)
        for texts in rows
    })


def order_insensitive_digest(filesystem, job_id, codec=None):
    """SHA-256 over the order-insensitive canonical lines."""
    return lines_digest(order_insensitive_lines(filesystem, job_id, codec=codec))


@dataclass(frozen=True)
class FirstDivergence:
    """The earliest point where a permuted run left the baseline."""

    schedule: int
    superstep: int
    vertex_id: str      # repr of the vertex id; "" for master records
    kind: str           # "vertex" | "master" | "capture-set"
    field: str          # diverging record field ("" for capture-set)
    baseline: str       # repr of the baseline value ("" when absent)
    permuted: str       # repr of the permuted-run value ("" when absent)

    def summary(self):
        where = (
            f"superstep {self.superstep}, vertex {self.vertex_id}"
            if self.kind == "vertex"
            else f"superstep {self.superstep} ({self.kind})"
        )
        if self.kind == "capture-set":
            return (
                f"schedule {self.schedule}: capture sets differ at {where}"
            )
        return (
            f"schedule {self.schedule}: first divergence at {where}, "
            f"field `{self.field}`: {self.baseline} -> {self.permuted}"
        )


@dataclass
class SanitizerReport:
    """Everything one graft-san sweep established."""

    computation: str
    executor: str
    num_workers: int
    seed: int
    schedules: tuple = ()
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    baseline_digest: str = ""
    schedule_digests: dict = field(default_factory=dict)
    divergent_schedules: list = field(default_factory=list)
    first_divergence: object = None        # FirstDivergence | None
    lint_report: object = None
    inboxes_permuted: int = 0
    baseline_seconds: float = 0.0
    sanitizer_seconds: float = 0.0

    @property
    def ok(self):
        """The harness itself ran cleanly (divergence is a *finding*)."""
        return not self.failures

    @property
    def deterministic(self):
        """Every schedule reproduced the baseline digest."""
        return self.ok and not self.divergent_schedules

    def observed_evidence_kinds(self):
        """``["order_divergence"]`` when any schedule diverged, else []."""
        return ["order_divergence"] if self.divergent_schedules else []

    def prediction_score(self):
        """Grade the baseline lint's proven forecasts against the sweep."""
        from repro.analysis import score_predictions

        return score_predictions(
            self.lint_report, self.observed_evidence_kinds()
        )

    def verdicts(self):
        """Per-finding verdicts for the order-sensitivity rules.

        ``{finding: "confirmed" | "refuted"}`` — confirmed when the sweep
        observed a digest divergence, refuted when every schedule
        reproduced the baseline. Findings of rules outside the
        order-sensitivity pack are not judged (their evidence is replay
        divergence, not delivery order).
        """
        if self.lint_report is None:
            return {}
        verdict = "confirmed" if self.divergent_schedules else "refuted"
        return {
            finding: verdict
            for finding in self.lint_report.findings
            if finding.rule_id in ORDER_SENSITIVE_RULES
        }

    def summary(self):
        status = (
            "DETERMINISTIC"
            if self.deterministic
            else ("ORDER-SENSITIVE" if self.ok else "FAILED")
        )
        lines = [
            f"graft-san {self.computation} on executor={self.executor} "
            f"workers={self.num_workers} seed={self.seed}: {status}",
            f"  schedules run: {list(self.schedules)}; inboxes permuted: "
            f"{self.inboxes_permuted}",
            f"  baseline digest: {self.baseline_digest[:16]}...",
        ]
        for schedule in self.schedules:
            digest = self.schedule_digests.get(schedule, "")
            verdict = (
                "== baseline"
                if digest == self.baseline_digest
                else "!= baseline  <-- DIVERGED"
            )
            lines.append(f"  schedule {schedule}: {digest[:16]}... {verdict}")
        if self.first_divergence is not None:
            lines.append(f"  {self.first_divergence.summary()}")
        for finding, verdict in self.verdicts().items():
            lines.append(
                f"  [{verdict}] {finding.rule_id}@{finding.location()}"
            )
        for failure in self.failures:
            lines.append(f"  failure: {failure}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "computation": self.computation,
            "executor": self.executor,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "schedules": list(self.schedules),
            "ok": self.ok,
            "deterministic": self.deterministic,
            "checks": dict(self.checks),
            "failures": list(self.failures),
            "baseline_digest": self.baseline_digest,
            "schedule_digests": dict(self.schedule_digests),
            "divergent_schedules": list(self.divergent_schedules),
            "first_divergence": (
                self.first_divergence.__dict__
                if self.first_divergence is not None
                else None
            ),
            "verdicts": {
                f"{f.rule_id}@{f.location()}": verdict
                for f, verdict in self.verdicts().items()
            },
            "inboxes_permuted": self.inboxes_permuted,
            "baseline_seconds": self.baseline_seconds,
            "sanitizer_seconds": self.sanitizer_seconds,
        }


def run_sanitizer(
    computation_factory,
    graph,
    config=None,
    schedules=3,
    seed=0,
    num_workers=4,
    executor="serial",
    job_id="san",
    lint=True,
    **engine_kwargs,
):
    """Run K permuted-delivery schedules against the canonical baseline.

    ``schedules`` is either a count (runs schedules ``1..K``) or an
    explicit iterable of schedule indices. ``config`` defaults to
    capture-everything so the digest comparison sees every compute()
    call. Extra ``engine_kwargs`` (``master=``, ``combiner=``,
    ``max_supersteps=`` ...) apply to every run. The baseline run carries
    the pre-flight lint report (``lint=True``) so the report can grade
    GL015–GL018 findings; lint warnings are suppressed — the sanitizer
    *is* the follow-up those warnings ask for.
    """
    from repro.analysis import GraftLintWarning
    from repro.graft.config import CaptureAllActiveConfig
    from repro.graft.debug_run import debug_run

    if isinstance(schedules, int):
        schedule_indices = tuple(range(1, schedules + 1))
    else:
        schedule_indices = tuple(schedules)
    if config is None:
        config = CaptureAllActiveConfig()
    common = dict(
        seed=seed,
        num_workers=num_workers,
        executor=executor,
        **engine_kwargs,
    )

    name = getattr(computation_factory, "__name__", "")
    if not name or name == "<lambda>":
        # Factories are cheap to call; name the report after the product.
        try:
            name = type(computation_factory()).__name__
        except Exception:
            name = repr(computation_factory)
    report = SanitizerReport(
        computation=name,
        executor=executor,
        num_workers=num_workers,
        seed=seed,
        schedules=schedule_indices,
    )

    def check(name, passed, detail=""):
        report.checks[name] = bool(passed)
        if not passed:
            report.failures.append(detail or name)
        return bool(passed)

    baseline_fs = SimFileSystem()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GraftLintWarning)
        baseline = debug_run(
            computation_factory, graph, config,
            filesystem=baseline_fs, job_id=job_id, lint=lint, **common,
        )
    report.lint_report = baseline.lint_report
    if not check(
        "baseline run completed", baseline.ok,
        f"baseline run failed: {baseline.failure}",
    ):
        return report
    report.baseline_seconds = baseline.result.metrics.total_seconds
    report.baseline_digest = order_insensitive_digest(baseline_fs, job_id)

    for schedule in schedule_indices:
        permuted_fs = SimFileSystem()
        permuted = debug_run(
            computation_factory, graph, config,
            filesystem=permuted_fs, job_id=job_id, lint=False,
            delivery_schedule=PermutationSchedule(schedule),
            **common,
        )
        if not check(
            f"schedule {schedule} run completed", permuted.ok,
            f"schedule {schedule} run failed: {permuted.failure}",
        ):
            continue
        report.sanitizer_seconds += permuted.result.metrics.total_seconds
        report.inboxes_permuted += (
            permuted.result.metrics.total_inboxes_permuted
        )
        digest = order_insensitive_digest(permuted_fs, job_id)
        report.schedule_digests[schedule] = digest
        if digest != report.baseline_digest:
            report.divergent_schedules.append(schedule)
            if report.first_divergence is None:
                (kind, superstep, vertex_repr), name, left, right = first_divergence(
                    _normalized_rows(baseline_fs, job_id, default_codec),
                    _normalized_rows(permuted_fs, job_id, default_codec),
                )
                capture_set = name == PRESENCE
                kind_name = "vertex" if kind == KIND_VERTEX else "master"
                report.first_divergence = FirstDivergence(
                    schedule=schedule,
                    superstep=superstep,
                    vertex_id=vertex_repr,
                    kind="capture-set" if capture_set else kind_name,
                    field="" if capture_set else name,
                    baseline=repr(left),
                    permuted=repr(right),
                )
    return report
