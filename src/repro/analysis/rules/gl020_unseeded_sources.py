"""GL020: nondeterminism sources GL003's module scan cannot see.

GL003 bans calls into the global ``random``/``uuid``/``time`` modules.
This rule covers the sources that slip past a module-name scan:

- ``datetime.now()`` / ``utcnow()`` / ``today()`` / ``date.today()`` —
  wall-clock reads through the ``datetime`` module — ``proven``, error
  severity, predicts ``replay_divergence``;
- ``id(...)`` — CPython object identity is an address: it differs
  between processes, so using it in branching or payloads makes a run
  and its replay diverge — ``likely``;
- ``hash(x)`` for non-literal ``x`` — ``str``/``bytes`` hashing is
  randomized per interpreter (PYTHONHASHSEED), so hashes differ between
  runs — ``likely``;
- a bare ``Random()`` constructed with no seed (``from random import
  Random`` escapes GL003's bare-name list) — ``likely``.

Calls through ``ctx``/``self`` stay exempt, mirroring GL003: the
seeded ``ctx.rng`` is the sanctioned randomness source.
"""

import ast

from repro.analysis.findings import ERROR, LIKELY, PROVEN, WARNING, Finding

RULE_ID = "GL020"
SEVERITY = WARNING
TITLE = "nondeterminism source outside the seeded context"

#: ``module.attr`` call tails that read the wall clock via datetime.
_WALL_CLOCK_TAILS = {
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}


def check(context):
    for scope in context.iter_scopes():
        for call in scope.calls:
            finding = _classify(context, scope, call)
            if finding is not None:
                yield finding


def _classify(context, scope, call):
    head = call.target.split(".", 1)[0]
    if head in (scope.ctx_name, scope.self_name):
        return None

    tail2 = ".".join(call.target.split(".")[-2:])
    if tail2 in _WALL_CLOCK_TAILS:
        return _finding(
            context, scope, call.line,
            message=(
                f"`{scope.name}` calls `{call.target}()` — a wall-clock "
                "read; the captured run and its replay see different "
                "times, so exact replay is impossible"
            ),
            hint=(
                "compute() must be a pure function of (value, messages, "
                "superstep); derive timestamps outside the job or from "
                "the superstep counter"
            ),
            confidence=PROVEN,
            severity=ERROR,
        )

    if call.target == "id":
        return _finding(
            context, scope, call.line,
            message=(
                f"`{scope.name}` uses `id(...)` — object identity is a "
                "memory address, different in every process; branching "
                "or payloads built on it diverge between a run and its "
                "replay"
            ),
            hint="key on vertex ids or message values, never on id()",
            confidence=LIKELY,
            severity=WARNING,
        )

    if call.target == "hash" and call.node.args and not _is_literal(
        call.node.args[0]
    ):
        return _finding(
            context, scope, call.line,
            message=(
                f"`{scope.name}` hashes a runtime value — str/bytes "
                "hashing is randomized per interpreter "
                "(PYTHONHASHSEED), so the result differs between runs"
            ),
            hint=(
                "use a content hash (hashlib) or sort keys explicitly "
                "instead of relying on hash()"
            ),
            confidence=LIKELY,
            severity=WARNING,
        )

    if (
        call.target.rsplit(".", 1)[-1] == "Random"
        and head != "random"      # random.Random() is GL003's catch
        and not call.node.args
    ):
        return _finding(
            context, scope, call.line,
            message=(
                f"`{scope.name}` constructs `Random()` with no seed — it "
                "seeds from the OS, outside the per-(vertex, superstep) "
                "derivation, so replays draw different numbers"
            ),
            hint=(
                "use ctx.rng, or seed explicitly via "
                "repro.common.rng.derive_rng"
            ),
            confidence=LIKELY,
            severity=WARNING,
        )
    return None


def _is_literal(node):
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_literal(e) for e in node.elts)
    return False


def _finding(context, scope, line, message, hint, confidence, severity):
    return Finding(
        rule_id=RULE_ID,
        severity=severity,
        message=message,
        class_name=context.class_name,
        method=scope.name,
        filename=scope.filename,
        line=line,
        hint=hint,
        confidence=confidence,
        predicts="replay_divergence" if confidence == PROVEN else "",
    )
