"""The Graft GUI's three views, as deterministic renderers.

The paper's GUI runs in a browser; its data model and interactions are
reproduced here as library objects over the trace reader:

- :class:`~repro.graft.views.nodelink.NodeLinkView` — the node-link diagram
  for small capture sets, with superstep stepping, active/inactive dimming,
  small nodes for uncaptured neighbors, the aggregator panel, and the
  M/V/E status boxes;
- :class:`~repro.graft.views.tabular.TabularView` — the row-per-vertex view
  for larger capture sets, expandable rows, and search by id, neighbor,
  value, or message content;
- :class:`~repro.graft.views.violations.ViolationsView` — the constraint
  violations and exceptions table with messages and stack traces.

Each view renders to plain text (assertable in tests and readable in a
terminal); the node-link view additionally renders Graphviz DOT and a
self-contained HTML page.
"""

from repro.common.lazy import lazy_exports

TYPE_CHECKING = False

if TYPE_CHECKING:
    from repro.graft.views.nodelink import NodeLinkView
    from repro.graft.views.tabular import TabularView
    from repro.graft.views.violations import ViolationsView

__all__ = ["NodeLinkView", "TabularView", "ViolationsView"]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.graft.views.nodelink": ("NodeLinkView",),
    "repro.graft.views.tabular": ("TabularView",),
    "repro.graft.views.violations": ("ViolationsView",),
})
