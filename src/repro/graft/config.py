"""DebugConfig: how users tell Graft what to capture.

Users subclass :class:`DebugConfig` and override the methods they need —
the direct analogue of the paper's Figure 2. The five capture categories of
Section 3.1 map to:

1. ``vertices_to_capture()`` (+ ``capture_neighbors_of_vertices()``);
2. ``num_random_vertices_to_capture()`` (+ neighbors, same flag);
3. ``vertex_value_constraint(value, vertex_id, superstep)``;
4. ``message_value_constraint(message, source_id, target_id, superstep)``;
5. exception capture (``capture_exceptions()``, on by default).

``capture_all_active()`` switches to capturing every computed vertex, and
``should_capture_superstep()`` limits which supersteps capture at all
(Scenario 4.3 captures all active vertices only late in the run). The
``max_captures()`` safety net is the paper's adjustable threshold after
which Graft stops capturing.

Two extended-constraint hooks implement the paper's Section 7 future work:
``message_value_constraint_with_target`` also sees the *destination
vertex's current value*, and ``neighborhood_constraint`` sees the values of
all neighbors (enough to express "no two adjacent vertices share a color").
"""

from repro.common.errors import GraftError

DEFAULT_MAX_CAPTURES = 100_000


class DebugConfig:
    """Base configuration; every method has the paper's default behaviour.

    A constraint method returning ``True`` means the value satisfies the
    constraint; ``False`` flags a violation. Constraint checking is only
    enabled when the method is actually overridden, so an un-overridden
    constraint costs nothing (this matters for reproducing the paper's
    per-configuration overhead differences).
    """

    # -- category 1 & 2: which vertices --------------------------------------

    def vertices_to_capture(self):
        """Explicit vertex ids to capture (category 1). Default: none."""
        return ()

    def num_random_vertices_to_capture(self):
        """How many randomly chosen vertices to capture (category 2)."""
        return 0

    def capture_neighbors_of_vertices(self):
        """Also capture the out-neighbors of specified/random vertices."""
        return False

    def capture_all_active(self):
        """Capture every vertex that computes (subject to superstep filter)."""
        return False

    # -- categories 3-5: constraints and exceptions -------------------------

    def vertex_value_constraint(self, value, vertex_id, superstep):
        """Return False if ``value`` is bad; checked after each compute()."""
        return True

    def message_value_constraint(self, message, source_id, target_id, superstep):
        """Return False if ``message`` is bad; checked at each send."""
        return True

    def capture_exceptions(self):
        """Capture vertices whose compute() raises (category 5)."""
        return True

    def continue_on_exception(self):
        """After capturing an exception, halt the vertex and keep running
        instead of failing the job (lets one run collect every failure)."""
        return False

    # -- Section 7 extended constraints --------------------------------------

    def message_value_constraint_with_target(
        self, message, source_id, target_id, target_value, superstep
    ):
        """Like ``message_value_constraint`` but also sees the destination
        vertex's current value. Checked at the superstep barrier (the
        destination value is not known at send time on a real cluster)."""
        return True

    def neighborhood_constraint(self, value, neighbor_values, vertex_id, superstep):
        """Constraint over a vertex and its neighbors' values, checked at
        the superstep barrier. ``neighbor_values`` maps neighbor id ->
        value. Express e.g. "no two adjacent vertices share a color"."""
        return True

    # -- scoping --------------------------------------------------------------

    def should_capture_superstep(self, superstep):
        """Limit capturing to certain supersteps. Default: all of them."""
        return True

    def max_captures(self):
        """Safety-net capture budget; capturing stops once exhausted."""
        return DEFAULT_MAX_CAPTURES

    # -- introspection (used by the instrumenter) ----------------------------

    def checks_vertex_values(self):
        return _overridden(self, "vertex_value_constraint")

    def checks_messages(self):
        return _overridden(self, "message_value_constraint")

    def checks_messages_with_target(self):
        return _overridden(self, "message_value_constraint_with_target")

    def checks_neighborhoods(self):
        return _overridden(self, "neighborhood_constraint")

    def validate(self):
        """Sanity-check the configuration values."""
        if self.num_random_vertices_to_capture() < 0:
            raise GraftError("num_random_vertices_to_capture() must be >= 0")
        if self.max_captures() <= 0:
            raise GraftError("max_captures() must be positive")
        return self


def _overridden(config, method_name):
    """True when ``config``'s class replaces DebugConfig's default method."""
    return getattr(type(config), method_name) is not getattr(
        DebugConfig, method_name
    )


def _is_negative(value):
    """Negativity test tolerant of non-numeric values (never a violation).

    Checked on every message/vertex value, so it must not rely on raising
    ``TypeError`` for non-numeric values — raising is far too slow for a
    hot path. Fixed-width integer values expose ``.value``.
    """
    if isinstance(value, (int, float)):
        return value < 0
    inner = getattr(value, "value", None)
    if isinstance(inner, (int, float)):
        return inner < 0
    return False


def nonnegative_message(config, message, source_id, target_id, superstep):
    """Messages must be non-negative: the ``message_value_constraint`` of
    Table 3's configs, ``constraint_library`` and the CLI's ``--nonneg-*``.

    It reads only ``message``, and ``GraftSession`` relies on that: a config
    whose class holds *this function* — not a user's copy, nor a subclass's
    override — has it evaluated once per send call, not once per target.
    """
    return not _is_negative(message)


def nonnegative_value(config, value, vertex_id, superstep):
    """Vertex values must be non-negative (used as ``nonnegative_message`` is)."""
    return not _is_negative(value)


class CaptureAllActiveConfig(DebugConfig):
    """Capture every active vertex, optionally only from a superstep on.

    Scenario 4.3 in one line: ``CaptureAllActiveConfig(from_superstep=500)``.
    """

    def __init__(self, from_superstep=0, to_superstep=None, max_captures=None):
        self._from = from_superstep
        self._to = to_superstep
        self._max = max_captures or DEFAULT_MAX_CAPTURES

    def capture_all_active(self):
        return True

    def should_capture_superstep(self, superstep):
        if superstep < self._from:
            return False
        return self._to is None or superstep <= self._to

    def max_captures(self):
        return self._max


# -- Table 3: the paper's benchmark configurations -----------------------------


class _SpecifiedConfig(DebugConfig):
    """DC-sp: captures a handful of vertices specified by their ids."""

    def __init__(self, vertex_ids, neighbors=False):
        self._ids = tuple(vertex_ids)
        self._neighbors = neighbors

    def vertices_to_capture(self):
        return self._ids

    def capture_neighbors_of_vertices(self):
        return self._neighbors


class _MessageConstraintConfig(DebugConfig):
    """DC-msg: message values must be non-negative."""

    message_value_constraint = nonnegative_message


class _VertexValueConstraintConfig(DebugConfig):
    """DC-vv: vertex values must be non-negative."""

    vertex_value_constraint = nonnegative_value


class _FullConfig(DebugConfig):
    """DC-full: ids + neighbors + both constraints + exceptions."""

    def __init__(self, vertex_ids):
        self._ids = tuple(vertex_ids)

    def vertices_to_capture(self):
        return self._ids

    def capture_neighbors_of_vertices(self):
        return True

    message_value_constraint = nonnegative_message
    vertex_value_constraint = nonnegative_value


def standard_configs(vertex_ids):
    """The paper's Table 3 DebugConfig set, keyed by the paper's names.

    ``vertex_ids`` supplies the specified vertices: DC-sp and DC-sp+nbr use
    the first 5, DC-full the first 10 (as in Table 3).

    >>> sorted(standard_configs(range(10)))
    ['DC-full', 'DC-msg', 'DC-sp', 'DC-sp+nbr', 'DC-vv']
    """
    ids = list(vertex_ids)
    if len(ids) < 10:
        raise GraftError("standard_configs needs at least 10 vertex ids")
    return {
        "DC-sp": _SpecifiedConfig(ids[:5]),
        "DC-sp+nbr": _SpecifiedConfig(ids[:5], neighbors=True),
        "DC-msg": _MessageConstraintConfig(),
        "DC-vv": _VertexValueConstraintConfig(),
        "DC-full": _FullConfig(ids[:10]),
    }


#: Table 3 descriptions, for the benchmark that regenerates the table.
STANDARD_CONFIG_DESCRIPTIONS = {
    "DC-sp": "Captures 5 specified vertices",
    "DC-sp+nbr": "Captures 5 specified vertices and their neighbors",
    "DC-msg": "Specifies constraint that message values are non-negative",
    "DC-vv": "Specifies constraint that vertex values are non-negative.",
    "DC-full": (
        "Captures 10 specified vertices and their neighbors, specifies "
        "message and vertex constraints, and checks for exceptions"
    ),
}
