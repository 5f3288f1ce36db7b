"""graft-san end to end: the determinism race detector's closed loop.

Two halves of one claim:

- the seeded order-sensitivity bug (``BuggyLabelPropagation``) is flagged
  statically (GL016) AND diverges under permuted delivery schedules, with
  a first-divergence report naming the superstep, vertex, and field;
- every shipped deterministic algorithm produces a byte-identical
  order-insensitive canonical digest across >= 3 permutation schedules on
  all three execution backends, and carries zero proven GL016-GL020
  findings.

Permuted runs materialize the packed store before shuffling it. The
digests, ``inboxes_permuted`` totals and first divergence pinned here were
recorded at commit b2123e5, where permuted runs still had an envelope
emission plane of their own — they are what keeps the two routes equal.
"""

import pytest

from repro.algorithms import (
    BuggyLabelPropagation,
    ConnectedComponents,
    GCMaster,
    GraphColoring,
    KCore,
    LabelPropagation,
    MaximumWeightMatching,
    PageRank,
    RandomWalk,
    ShortestPaths,
    TriangleCount,
)
from repro.analysis import PROVEN, analyze_computation
from repro.datasets import load_dataset, random_symmetric_weights
from repro.graft import CaptureAllActiveConfig, debug_run
from repro.graft.sanitizer import order_insensitive_digest, run_sanitizer
from repro.graft.trace import canonical_trace_digest
from repro.graph import to_undirected
from repro.pregel import MasterComputation, SumAggregator
from repro.pregel.permutation import PermutationSchedule
from repro.pregel.runtime import EXECUTOR_NAMES

from tests.integration.test_columnar_determinism import (
    TopologyChurn,
    _graph as _churn_graph,
    _values_sha,
)

DETERMINISM_RULES = ("GL016", "GL017", "GL018", "GL019", "GL020")
SCHEDULES = 3


def _directed():
    return load_dataset("web-BS", num_vertices=40, seed=3)


#: name -> (factory, graph builder, engine kwargs). Every shipped
#: deterministic algorithm, sized for a fast sweep.
ALGORITHMS = {
    "pagerank": (lambda: PageRank(iterations=3), _directed, {}),
    "sssp": (lambda: ShortestPaths(0), _directed, {}),
    "rw": (
        lambda: RandomWalk(steps=4, initial_walkers=20),
        _directed,
        {"max_supersteps": 12},
    ),
    "components": (
        lambda: ConnectedComponents(),
        lambda: to_undirected(_directed()),
        {},
    ),
    "label-prop": (
        lambda: LabelPropagation(iterations=5),
        lambda: to_undirected(_directed()),
        {},
    ),
    "triangles": (
        lambda: TriangleCount(),
        lambda: to_undirected(_directed()),
        {},
    ),
    "kcore": (lambda: KCore(2), lambda: to_undirected(_directed()), {}),
    "gc": (
        lambda: GraphColoring(),
        lambda: to_undirected(_directed()),
        {"master": GCMaster(), "max_supersteps": 30},
    ),
    "mwm": (
        lambda: MaximumWeightMatching(),
        lambda: to_undirected(random_symmetric_weights(_directed(), seed=3)),
        {"max_supersteps": 30},
    ),
}

#: name -> (the digest the baseline and every schedule reproduce,
#: ``inboxes_permuted`` over the three schedules), on every backend.
PINNED = {
    "components": ("4d2786060a075b3979c61734253f359e4e36524528b21d1fbd6ef20593b60f17", 333),
    "gc": ("a70a08446f36324c81d534500f5205320dbcc4366fd10816989d85162889639c", 1038),
    "kcore": ("00b193b12fa75d2275d4de404fbe28d3a739d54215e7975ba1dea2aea704282f", 0),
    "label-prop": ("4ccf3089348dd6276f1764abea55b8ca7af485c659f3f163f75e681e6a5973dd", 600),
    "mwm": ("f2a3a8bd486b2ee09f91f52f2e3762ba5e1a697db93fd8ffb16c3ec2f0c4a6f3", 261),
    "pagerank": ("426424bc1b253bb6bdeb6f6add1666829151eb77a3aec128b36e4fd246e597f0", 360),
    "rw": ("74943769818ab8bef2fb2c27c0df9c6115f7443754085628710f9b467c1787c3", 474),
    "sssp": ("d8a58cf07aeccf8551dbce2af7031cb6ccec55f6e0cc88266046190b9c5b9000", 174),
    "triangles": ("0b073b6c0d990e5318fcc6e89e7bdaabbfcc10d18d19392a71954443521f63ac", 120),
}

#: ``BuggyLabelPropagation(iterations=6)`` on 4 workers: baseline digest,
#: then one distinct digest per schedule.
BUGGY_BASELINE = "9ccdf29c1d9c84a8fbc321a8743f483f19e6a75cf5de8c2e39d2affa7faed3c1"
BUGGY_SCHEDULES = {
    1: "d3c1d931ed1cdcd7dded565de185ba9e2c99e952b944401fecae67e89bc57953",
    2: "fb1863771c4cb2711af68adf2fc0b7de0e59d81d220393f739e37568bc89def8",
    3: "0589005bf0ce98c7094837f8fdf72559902836b7620ffa8cf6935e9dcaf5affd",
}

_CACHE = {}


def _sweep(algorithm, executor):
    """One sanitizer sweep per (algorithm, executor); memoized."""
    key = (algorithm, executor)
    if key not in _CACHE:
        factory, graph_builder, kwargs = ALGORITHMS[algorithm]
        _CACHE[key] = run_sanitizer(
            factory,
            graph_builder(),
            schedules=SCHEDULES,
            seed=7,
            num_workers=2,
            executor=executor,
            **kwargs,
        )
    return _CACHE[key]


# -- the buggy half: flagged statically, proven dynamically --------------------


@pytest.mark.san
class TestClosedLoop:
    def test_buggy_label_propagation_flagged_statically(self):
        report = analyze_computation(BuggyLabelPropagation)
        gl016 = [f for f in report.findings if f.rule_id == "GL016"]
        assert gl016, "the seeded tie-break bug must be flagged"

    def test_buggy_label_propagation_diverges(self):
        for executor in EXECUTOR_NAMES:
            report = run_sanitizer(
                lambda: BuggyLabelPropagation(iterations=6),
                to_undirected(_directed()),
                schedules=SCHEDULES,
                seed=7,
                num_workers=4,
                executor=executor,
            )
            assert report.ok, report.failures
            assert not report.deterministic
            assert report.baseline_digest == BUGGY_BASELINE
            assert report.schedule_digests == BUGGY_SCHEDULES
            assert report.divergent_schedules == [1, 2, 3]
            assert report.inboxes_permuted == 720

            divergence = report.first_divergence
            assert (
                divergence.schedule, divergence.superstep,
                divergence.vertex_id, divergence.field,
            ) == (1, 1, "0", "value_after")
            assert (divergence.baseline, divergence.permuted) == ("9", "16")
            assert str(divergence.superstep) in divergence.summary()

            # The GL016 finding is judged against the runtime evidence.
            verdicts = report.verdicts()
            assert [finding.rule_id for finding in verdicts] == ["GL016"]
            assert all(v == "confirmed" for v in verdicts.values())
            assert report.observed_evidence_kinds() == ["order_divergence"]

    def test_sanitizer_report_round_trips_to_dict(self):
        report = run_sanitizer(
            lambda: BuggyLabelPropagation(iterations=4),
            to_undirected(_directed()),
            schedules=2,
            seed=7,
            num_workers=2,
        )
        payload = report.to_dict()
        assert payload["deterministic"] is False
        assert payload["divergent_schedules"]
        assert payload["first_divergence"]["field"]
        assert any("GL016" in key for key in payload["verdicts"])
        assert "ORDER-SENSITIVE" in report.summary()


class _SummedLabels(BuggyLabelPropagation):
    """The seeded bug, its effect also summed into an aggregator — which
    the master's record shows one barrier after the vertex that moved it."""

    def compute(self, ctx, messages):
        super().compute(ctx, messages)
        ctx.aggregate("labels", ctx.value)


class _LabelsMaster(MasterComputation):
    def initialize(self, registry):
        registry.register("labels", SumAggregator(0))

    def master_compute(self, master_ctx):
        pass


@pytest.mark.san
def test_first_divergence_is_first_in_step_order():
    """A later superstep's master record never outranks the vertex that
    caused it: the walk is by superstep, not by record kind."""
    report = run_sanitizer(
        lambda: _SummedLabels(iterations=4),
        to_undirected(_directed()),
        schedules=2, seed=7, num_workers=2, master=_LabelsMaster(),
    )
    divergence = report.first_divergence
    assert (
        divergence.schedule, divergence.superstep, divergence.vertex_id,
        divergence.kind, divergence.field,
    ) == (1, 1, "0", "vertex", "value_after")


@pytest.mark.san
def test_first_divergence_is_one_across_planes_executors_and_workers():
    found = {
        (store, executor, workers): run_sanitizer(
            lambda: BuggyLabelPropagation(iterations=4),
            to_undirected(_directed()),
            schedules=1, seed=7, num_workers=workers, executor=executor,
            lint=False, store=store,
        ).first_divergence
        for store in ("memory", "spill")
        for executor in EXECUTOR_NAMES
        for workers in (1, 2, 4)
    }
    assert None not in found.values()
    assert len(set(found.values())) == 1, found


# -- the clean half: every shipped algorithm, every backend --------------------


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_no_proven_determinism_findings(algorithm):
    factory, _graph, _kwargs = ALGORITHMS[algorithm]
    report = analyze_computation(type(factory()))
    proven = [
        f for f in report.findings
        if f.rule_id in DETERMINISM_RULES and f.confidence == PROVEN
    ]
    assert proven == [], proven


@pytest.mark.san
@pytest.mark.parametrize("algorithm", ["pagerank", "label-prop"])
def test_smoke_deterministic_on_serial(algorithm):
    report = _sweep(algorithm, "serial")
    assert report.ok, report.failures
    assert report.deterministic, report.summary()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_deterministic_across_schedules(algorithm, executor):
    report = _sweep(algorithm, executor)
    assert report.ok, report.failures
    assert len(report.schedules) >= 3
    assert report.deterministic, report.summary()
    assert report.observed_evidence_kinds() == []
    # No order-sensitivity finding to judge on clean code, let alone confirm.
    assert report.verdicts() == {}
    digest, inboxes_permuted = PINNED[algorithm]
    assert report.baseline_digest == digest
    assert set(report.schedule_digests.values()) == {digest}
    assert report.inboxes_permuted == inboxes_permuted


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_digest_identical_across_backends(algorithm):
    """The order-insensitive digest is one hash whatever backend ran."""
    digests = {
        executor: _sweep(algorithm, executor).baseline_digest
        for executor in EXECUTOR_NAMES
    }
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_mutations_under_schedule(executor):
    """A barrier that permutes AND mutates: vertex creation, explicit
    add/remove requests and dirty adjacency all land on the store the
    schedule just shuffled."""
    run = debug_run(
        TopologyChurn, _churn_graph(), CaptureAllActiveConfig(),
        job_id="churn", lint=False, seed=7, num_workers=2,
        executor=executor, max_supersteps=8,
        delivery_schedule=PermutationSchedule(1),
    )
    assert run.ok, run.failure
    fs = run.session.filesystem
    assert run.result.num_supersteps == 4
    assert run.capture_count == 720
    assert run.result.metrics.total_inboxes_permuted == 175
    assert _values_sha(run.result.vertex_values) == (
        "474b7100beecd03e83b11343e6c5eb85b958798acd86fd181781a8e051a35314"
    )
    # Both re-pinned when string-keyed edge maps (this job's "spawn:<id>"
    # edges) moved to the order-preserving item form; decoded records equal.
    assert canonical_trace_digest(fs, "churn") == (
        "2cc2324ff3482110a0cd0f869e75dbad1872cd283c7dae301e34d63c0dbcbc1b"
    )
    assert order_insensitive_digest(fs, "churn") == (
        "361dd1af9a15684d2e221f14332208c396eb3b3f8e1810ac3410116ebd972c3a"
    )


# -- wiring: verdicts feed the score, the view, and the fidelity report --------


class TestSanitizerWiring:
    def _buggy_pair(self):
        import warnings

        from repro.graft import CaptureAllActiveConfig, debug_run

        graph = to_undirected(_directed())
        sanitizer = run_sanitizer(
            lambda: BuggyLabelPropagation(iterations=4),
            graph, schedules=2, seed=7, num_workers=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = debug_run(
                lambda: BuggyLabelPropagation(iterations=4),
                graph, CaptureAllActiveConfig(),
                seed=7, num_workers=2,
            )
        return run, sanitizer

    def test_violations_view_footer_carries_verdicts(self):
        run, sanitizer = self._buggy_pair()
        rendered = run.violations_view(sanitizer=sanitizer).render()
        assert "order_divergence" in rendered
        assert "confirmed by graft-san" in rendered
        assert "first divergence" in rendered

    def test_fidelity_report_observes_order_divergence(self):
        from repro.graft import verify_run_fidelity

        run, sanitizer = self._buggy_pair()
        report = verify_run_fidelity(run, limit=10, sanitizer=sanitizer)
        assert report.ok, "replay fidelity is unaffected by the race"
        assert "order_divergence" in report.prediction_score.observed


# -- the CLI surface -----------------------------------------------------------


@pytest.mark.san
class TestSanCli:
    def _run_cli(self, *argv):
        from repro.cli import main

        lines = []
        status = main(list(argv), out=lines.append)
        return status, "\n".join(lines)

    def test_divergence_exits_2(self):
        status, output = self._run_cli(
            "san", "--algorithm", "label-prop-buggy", "--dataset", "web-BS",
            "--vertices", "40", "--schedules", "2", "--workers", "2",
        )
        assert status == 2
        assert "ORDER-SENSITIVE" in output
        assert "first divergence" in output

    def test_deterministic_exits_0(self):
        status, output = self._run_cli(
            "san", "--algorithm", "label-prop", "--dataset", "web-BS",
            "--vertices", "40", "--schedules", "2", "--workers", "2",
        )
        assert status == 0
        assert "DETERMINISTIC" in output

    def test_json_format(self):
        import json

        status, output = self._run_cli(
            "san", "--algorithm", "pagerank", "--dataset", "web-BS",
            "--vertices", "30", "--schedules", "2", "--workers", "2",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(output.split("\n", 1)[1])
        assert payload["deterministic"] is True
        assert len(payload["schedule_digests"]) == 2
