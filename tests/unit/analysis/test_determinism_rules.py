"""The determinism pack: fold classification facts and rules GL016-GL020.

The commutativity classifier is exercised over the full fold-idiom table
(``+``, ``*``, ``min``, ``max``, ``-``, ``/``, string concat, last-wins),
then each rule gets positive/negative cases in the style of the GL009-015
suite.
"""

import ast

import pytest

from repro.analysis import (
    ERROR,
    LIKELY,
    PROVEN,
    WARNING,
    analyze_computation,
    analyze_module_source,
    classify_fold_op,
    message_fold_sites,
    messages_order_uses,
    shared_state_writes,
)
from repro.analysis.scopes import build_method_scope

PRELUDE = "from repro.pregel import Computation\n"


def lint(source, class_name=None):
    reports = analyze_module_source(PRELUDE + source, "t.py")
    if class_name is None:
        assert len(reports) == 1, [r.class_name for r in reports]
        return reports[0]
    return next(r for r in reports if r.class_name == class_name)


def findings_of(source, rule_id, class_name=None):
    return lint(source, class_name).by_rule(rule_id)


def compute_scope(body):
    """Build a MethodScope for a compute() whose body is ``body``."""
    source = (
        "class C:\n"
        "    def compute(self, ctx, messages):\n"
        + "".join(f"        {line}\n" for line in body)
    )
    tree = ast.parse(source)
    func = tree.body[0].body[0]
    return build_method_scope(func, "C", "t.py", {"compute"})


# -- the fold-idiom table ------------------------------------------------------


class TestClassifyFoldOp:
    @pytest.mark.parametrize("op", [ast.Add, ast.Mult, ast.BitOr,
                                    ast.BitAnd, ast.BitXor])
    def test_commutative_ops(self, op):
        assert classify_fold_op(op) == "commutative"
        assert classify_fold_op(op()) == "commutative"

    @pytest.mark.parametrize("op", [ast.Sub, ast.Div, ast.FloorDiv, ast.Mod,
                                    ast.Pow, ast.LShift, ast.RShift])
    def test_noncommutative_ops(self, op):
        assert classify_fold_op(op) == "noncommutative"

    def test_unknown_op(self):
        assert classify_fold_op(ast.MatMult) == "unknown"


class TestFoldIdiomTable:
    """One row per idiom: what the fact extractor sees in the loop body."""

    def sites(self, *body_lines):
        body = list(body_lines) + ["ctx.set_value(acc)"]
        return message_fold_sites(compute_scope(body))

    def test_plus_fold_is_commutative_augassign(self):
        (site,) = self.sites("acc = 0", "for m in messages:", "    acc += m")
        assert site.kind == "augassign"
        assert site.op == "+"
        assert site.order_class == "commutative"
        assert site.escapes

    def test_star_fold_is_commutative(self):
        (site,) = self.sites("acc = 1", "for m in messages:", "    acc *= m")
        assert site.op == "*"
        assert site.order_class == "commutative"

    def test_min_idiom_is_strictly_guarded_last_wins(self):
        (site,) = self.sites(
            "acc = 10**9",
            "for m in messages:",
            "    if m < acc:",
            "        acc = m",
        )
        assert site.kind == "last_wins"
        assert site.guard == "strict"

    def test_max_idiom_is_strictly_guarded_last_wins(self):
        (site,) = self.sites(
            "acc = 0",
            "for m in messages:",
            "    if m > acc:",
            "        acc = m",
        )
        assert site.kind == "last_wins"
        assert site.guard == "strict"

    def test_minus_fold_is_noncommutative(self):
        (site,) = self.sites("acc = 0", "for m in messages:", "    acc -= m")
        assert site.op == "-"
        assert site.order_class == "noncommutative"

    def test_div_fold_is_noncommutative_binop(self):
        (site,) = self.sites(
            "acc = 1.0", "for m in messages:", "    acc = acc / m"
        )
        assert site.kind == "binop"
        assert site.op == "/"
        assert site.order_class == "noncommutative"

    def test_concat_fold_is_commutative_op_with_string_evidence(self):
        (site,) = self.sites(
            "acc = ''", "for m in messages:", "    acc += str(m)"
        )
        assert site.op == "+"
        assert site.string_evidence

    def test_unconditional_last_wins(self):
        (site,) = self.sites("acc = None", "for m in messages:", "    acc = m")
        assert site.kind == "last_wins"
        assert site.guard is None

    def test_nonstrict_guard_detected(self):
        (site,) = self.sites(
            "acc = 0",
            "best = 0",
            "for m in messages:",
            "    if m >= best:",
            "        acc = m",
        )
        assert site.kind == "last_wins"
        assert site.guard == "nonstrict"

    def test_float_evidence_from_literal_init(self):
        (site,) = self.sites(
            "acc = 0.0", "for m in messages:", "    acc += m"
        )
        assert site.float_evidence

    def test_non_escaping_fold_is_marked(self):
        scope = compute_scope(
            ["acc = 0", "for m in messages:", "    acc += m",
             "ctx.vote_to_halt()"]
        )
        (site,) = message_fold_sites(scope)
        assert not site.escapes


class TestOrderUseFacts:
    def test_subscript_and_enumerate_and_set(self):
        scope = compute_scope([
            "first = messages[0]",
            "for i, m in enumerate(messages):",
            "    pass",
            "for x in set(messages):",
            "    pass",
        ])
        kinds = sorted(u.kind for u in messages_order_uses(scope))
        assert kinds == ["enumerate", "set-iteration", "subscript"]


class TestSharedWriteFacts:
    def test_global_and_class_attr(self):
        scope = compute_scope([
            "global seen",
            "seen = ctx.vertex_id",
            "C.cache = 1",
        ])
        kinds = sorted(w.kind for w in shared_state_writes(scope, "C"))
        assert kinds == ["class-attr", "global"]


# -- GL016: non-commutative fold over the message bag --------------------------


class TestGL016NoncommutativeFold:
    def test_subtraction_fold_is_proven_error(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        acc = 0\n"
            "        for m in messages:\n"
            "            acc -= m\n"
            "        ctx.set_value(acc)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        )
        assert finding.severity == ERROR
        assert finding.confidence == PROVEN
        assert finding.predicts == "order_divergence"

    def test_unconditional_last_wins_is_proven(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        acc = ctx.value\n"
            "        for m in messages:\n"
            "            acc = m\n"
            "        ctx.set_value(acc)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        )
        assert finding.confidence == PROVEN

    def test_tie_admitting_guard_is_likely_warning(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        best = 0\n"
            "        for m in messages:\n"
            "            if m >= best:\n"
            "                best = m\n"
            "        ctx.set_value(best)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        )
        assert finding.severity == WARNING
        assert finding.confidence == LIKELY

    def test_strict_min_idiom_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        best = ctx.value\n"
            "        for m in messages:\n"
            "            if m < best:\n"
            "                best = m\n"
            "        ctx.set_value(best)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        ) == []

    def test_commutative_sum_fold_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        total = 0\n"
            "        for m in messages:\n"
            "            total += m\n"
            "        ctx.set_value(total)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        ) == []

    def test_string_concat_is_likely(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        path = ''\n"
            "        for m in messages:\n"
            "            path += str(m)\n"
            "        ctx.set_value(path)\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        )
        assert finding.confidence == LIKELY

    def test_non_escaping_fold_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        acc = 0\n"
            "        for m in messages:\n"
            "            acc -= m\n"
            "        ctx.vote_to_halt()\n",
            "GL016",
        ) == []


# -- GL017: explicit reliance on delivery order --------------------------------


class TestGL017IterationOrder:
    def test_positional_subscript_is_likely(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        if messages:\n"
            "            ctx.set_value(messages[0])\n"
            "        ctx.vote_to_halt()\n",
            "GL017",
        )
        assert finding.severity == WARNING
        assert finding.confidence == LIKELY
        assert finding.predicts == "order_divergence"

    def test_enumerate_is_flagged(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        for i, m in enumerate(messages):\n"
            "            if i == 0:\n"
            "                ctx.set_value(m)\n"
            "        ctx.vote_to_halt()\n",
            "GL017",
        )
        assert finding.confidence == LIKELY

    def test_set_iteration_is_flagged(self):
        findings = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        for m in set(messages):\n"
            "            ctx.set_value(m)\n"
            "        ctx.vote_to_halt()\n",
            "GL017",
        )
        assert len(findings) == 1

    def test_plain_message_loop_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        total = 0\n"
            "        for m in messages:\n"
            "            total += m\n"
            "        ctx.set_value(total)\n"
            "        ctx.vote_to_halt()\n",
            "GL017",
        ) == []

    def test_dict_iteration_not_flagged(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        counts = {}\n"
            "        for m in messages:\n"
            "            counts[m] = counts.get(m, 0) + 1\n"
            "        best = 0\n"
            "        for label, count in counts.items():\n"
            "            best = max(best, count)\n"
            "        ctx.set_value(best)\n"
            "        ctx.vote_to_halt()\n",
            "GL017",
        ) == []


# -- GL018: float accumulation order sensitivity -------------------------------


class TestGL018FloatAccumulation:
    def test_float_loop_fold_is_likely_warning(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        total = 0.0\n"
            "        for m in messages:\n"
            "            total += m\n"
            "        ctx.set_value(total)\n"
            "        ctx.vote_to_halt()\n",
            "GL018",
        )
        assert finding.severity == WARNING
        assert finding.confidence == LIKELY
        assert finding.predicts == "order_divergence"

    def test_float_sum_call_is_flagged(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        ctx.set_value(0.15 + 0.85 * sum(messages))\n"
            "        ctx.vote_to_halt()\n",
            "GL018",
        )
        assert finding.confidence == LIKELY

    def test_sorted_sum_is_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        ctx.set_value(0.15 + 0.85 * sum(sorted(messages)))\n"
            "        ctx.vote_to_halt()\n",
            "GL018",
        ) == []

    def test_integer_fold_is_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        total = 0\n"
            "        for m in messages:\n"
            "            total += m\n"
            "        ctx.set_value(total)\n"
            "        ctx.vote_to_halt()\n",
            "GL018",
        ) == []


# -- GL019: cross-vertex shared mutable state ----------------------------------


class TestGL019SharedMutableState:
    def test_global_write_is_proven_error(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        global seen\n"
            "        seen = ctx.vertex_id\n"
            "        ctx.vote_to_halt()\n",
            "GL019",
        )
        assert finding.severity == ERROR
        assert finding.confidence == PROVEN
        assert finding.predicts == "replay_divergence"

    def test_class_attribute_write_is_proven(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    cache = {}\n"
            "    def compute(self, ctx, messages):\n"
            "        C.cache[ctx.vertex_id] = ctx.value\n"
            "        ctx.vote_to_halt()\n",
            "GL019",
        )
        assert finding.confidence == PROVEN
        # The hazard named is the one left: every worker steps in one
        # process, so the shared object's contents follow vertex order.
        assert (
            "all workers share one process, so what it holds depends on "
            "vertex order" in finding.message
        )
        assert "processes" not in finding.message + finding.hint
        assert "depends on vertex order when all workers share one process" in (
            finding.hint
        )

    def test_closure_mutation_is_likely(self):
        (finding,) = findings_of(
            "shared = []\n"
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        shared.append(ctx.vertex_id)\n"
            "        ctx.vote_to_halt()\n",
            "GL019",
        )
        assert finding.severity == WARNING
        assert finding.confidence == LIKELY

    def test_local_and_instance_state_clean(self):
        assert findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        local = []\n"
            "        local.append(ctx.value)\n"
            "        self.scratch = local\n"
            "        ctx.set_value(len(local))\n"
            "        ctx.vote_to_halt()\n",
            "GL019",
        ) == []


# -- GL020: unseeded nondeterminism sources ------------------------------------


class TestGL020UnseededSources:
    def test_wall_clock_is_proven_error(self):
        (finding,) = findings_of(
            "import datetime\n"
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        ctx.set_value(datetime.datetime.now())\n"
            "        ctx.vote_to_halt()\n",
            "GL020",
        )
        assert finding.severity == ERROR
        assert finding.confidence == PROVEN
        assert finding.predicts == "replay_divergence"

    def test_id_is_likely(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        ctx.set_value(id(ctx) % 7)\n"
            "        ctx.vote_to_halt()\n",
            "GL020",
        )
        assert finding.confidence == LIKELY

    def test_hash_of_nonliteral_is_likely(self):
        (finding,) = findings_of(
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        ctx.set_value(hash(str(ctx.vertex_id)))\n"
            "        ctx.vote_to_halt()\n",
            "GL020",
        )
        assert finding.confidence == LIKELY

    def test_seeded_derive_rng_clean(self):
        assert findings_of(
            "from repro.common.rng import derive_rng\n"
            "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        rng = derive_rng(7, ctx.vertex_id, ctx.superstep)\n"
            "        ctx.set_value(rng.random())\n"
            "        ctx.vote_to_halt()\n",
            "GL020",
        ) == []


# -- pack-level integration ----------------------------------------------------


class TestDeterminismPackIntegration:
    def test_buggy_label_propagation_is_flagged(self):
        from repro.algorithms import BuggyLabelPropagation

        report = analyze_computation(BuggyLabelPropagation)
        assert any(f.rule_id == "GL016" for f in report.findings)

    def test_shipped_deterministic_algorithms_have_no_proven_findings(self):
        from repro.algorithms import (
            ConnectedComponents,
            LabelPropagation,
            PageRank,
            ShortestPaths,
        )

        pack = {"GL016", "GL017", "GL018", "GL019", "GL020"}
        for cls in (PageRank, LabelPropagation, ConnectedComponents,
                    ShortestPaths):
            report = analyze_computation(cls)
            proven = [
                f for f in report.findings
                if f.rule_id in pack and f.confidence == PROVEN
            ]
            assert proven == [], (cls.__name__, proven)

    def test_explain_includes_determinism_facts(self):
        from repro.analysis import contexts_from_module_source

        (context,) = contexts_from_module_source(
            PRELUDE
            + "class C(Computation):\n"
            "    def compute(self, ctx, messages):\n"
            "        acc = 0\n"
            "        for m in messages:\n"
            "            acc -= m\n"
            "        ctx.set_value(acc)\n"
            "        ctx.vote_to_halt()\n",
            "t.py",
        )
        (scope,) = list(context.iter_scopes())
        text = context.dataflow(scope).explain()
        assert "determinism facts" in text
        assert "fold" in text
