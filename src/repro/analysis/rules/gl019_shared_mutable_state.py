"""GL019: compute() writes state shared across vertices.

A module global, a class-level attribute, or a closed-over mutable
written from ``compute()`` is shared by *every* vertex, and neither
backend makes that sharing well-defined. Under the processes backend
each worker's writes land in its own pool child: other workers never
see them, and they are gone whenever the pool re-forks (a topology
change, a rollback). Under the serial backend the value depends on
vertex *iteration* order, which the Pregel model leaves undefined.

This is GL001's bigger sibling: GL001 catches per-*worker* state
smuggled through instance attributes; GL019 catches per-*job* state
shared across every vertex and worker.

Decided cases:

- ``global name`` + assignment, or ``nonlocal name`` + assignment —
  ``proven``, error severity, predicts ``replay_divergence``;
- assignment through the class object (``Cls.attr = ...``,
  ``type(self).attr = ...``, ``self.__class__.attr = ...``), including
  in-place mutation of class-level containers — ``proven``;
- in-place mutation (``.append``, ``[k] = v``, ...) of a name never
  bound in the method — a closed-over or module-level mutable —
  ``likely`` (the name might be an imported helper object rather than
  shared state).
"""

from repro.analysis.determinism import shared_state_writes
from repro.analysis.findings import ERROR, LIKELY, PROVEN, WARNING, Finding

RULE_ID = "GL019"
SEVERITY = ERROR
TITLE = "compute() mutates state shared across vertices"

_HINT = (
    "keep per-vertex state in ctx.value and cross-vertex reductions in "
    "aggregators; writes to a shared Python object stay inside each "
    "worker's process under processes, depend on vertex order under "
    "serial, and break replay everywhere"
)


def check(context):
    for scope in context.iter_scopes():
        for write in shared_state_writes(scope, context.class_name):
            if write.kind == "global":
                message = (
                    f"`{scope.name}` assigns the module global "
                    f"`{write.name}` — every vertex on every worker sees "
                    "the same binding, so the final value depends on "
                    "scheduling, not the computation"
                )
                confidence = PROVEN
            elif write.kind == "class-attr":
                message = (
                    f"`{scope.name}` writes the class-level attribute "
                    f"`{write.name}` — one object shared by every vertex "
                    "instance; under the processes backend its writes stay "
                    "inside each worker's process, unseen by the others"
                )
                confidence = PROVEN
            else:
                message = (
                    f"`{scope.name}` mutates `{write.name}`, which is "
                    "never bound in the method — if it is a closed-over "
                    "or module-level container, every vertex shares it "
                    "and its contents depend on vertex order"
                )
                confidence = LIKELY
            yield Finding(
                rule_id=RULE_ID,
                severity=ERROR if confidence == PROVEN else WARNING,
                message=message,
                class_name=context.class_name,
                method=scope.name,
                filename=scope.filename,
                line=write.line,
                hint=_HINT,
                confidence=confidence,
                predicts="replay_divergence" if confidence == PROVEN else "",
            )
