"""Ready-made DebugConfigs for common invariants.

The paper's interviews found users wanting richer constraints than ad-hoc
lambdas (Section 7). This module packages the invariants that come up over
and over as composable DebugConfigs:

- :class:`NonNegativeMessages` / :class:`NonNegativeValues` — the Table 3
  constraints, reusable directly;
- :class:`BoundedValues` — vertex values must stay inside a numeric range;
- :class:`MonotoneValues` — a vertex's value may only move in one
  direction across supersteps (shortest-path distances and HashMin labels
  only ever decrease; a violation means the relaxation logic regressed);
- :class:`NoSelfMessages` — a vertex must never message itself;
- :class:`DistinctNeighborValues` — the paper's own Section 7 example,
  "no two adjacent vertices should be assigned the same color", as a
  neighborhood constraint over a key function.
"""

from repro.graft.config import DebugConfig, nonnegative_message, nonnegative_value


def _numeric(value):
    """The comparable number inside ``value``, or None if there is none.

    ``bool`` is excluded in both places — a bare ``True`` and a wrapper
    whose ``.value`` is ``True`` are flags, not magnitudes, and must not be
    range- or monotonicity-checked as 0/1.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    inner = getattr(value, "value", None)
    if isinstance(inner, (int, float)) and not isinstance(inner, bool):
        return inner
    return None


class NonNegativeMessages(DebugConfig):
    """Message values must be >= 0 (the paper's RW scenario constraint)."""

    message_value_constraint = nonnegative_message


class NonNegativeValues(DebugConfig):
    """Vertex values must be >= 0."""

    vertex_value_constraint = nonnegative_value


class BoundedValues(DebugConfig):
    """Vertex values must stay within ``[low, high]`` (when numeric)."""

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def vertex_value_constraint(self, value, vertex_id, superstep):
        number = _numeric(value)
        if number is None:
            return True
        if self.low is not None and number < self.low:
            return False
        if self.high is not None and number > self.high:
            return False
        return True


class MonotoneValues(DebugConfig):
    """Each vertex's numeric value may only move in one direction.

    ``direction`` is ``"decreasing"`` (default: SSSP distances, HashMin
    labels) or ``"increasing"``. The config tracks the previous value per
    vertex; a later superstep moving the wrong way is a violation. Uses
    one config instance per run (state is per-run history).
    """

    def __init__(self, direction="decreasing"):
        if direction not in ("decreasing", "increasing"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self._previous = {}

    def vertex_value_constraint(self, value, vertex_id, superstep):
        number = _numeric(value)
        if number is None:
            return True
        previous = self._previous.get(vertex_id)
        self._previous[vertex_id] = number
        if previous is None:
            return True
        if self.direction == "decreasing":
            return number <= previous
        return number >= previous


class NoSelfMessages(DebugConfig):
    """A vertex must never send a message to itself."""

    def message_value_constraint(self, message, source_id, target_id, superstep):
        return source_id != target_id


class DistinctNeighborValues(DebugConfig):
    """Adjacent vertices must differ under ``key`` (Section 7's example).

    With ``key=lambda v: v.color`` this is literally "no two adjacent
    vertices should be assigned the same color"; None keys are ignored
    (uncolored vertices cannot conflict yet).
    """

    def __init__(self, key=None):
        self._key = key or (lambda value: value)

    def neighborhood_constraint(self, value, neighbor_values, vertex_id, superstep):
        mine = self._key(value)
        if mine is None:
            return True
        for neighbor_value in neighbor_values.values():
            if self._key(neighbor_value) == mine:
                return False
        return True
