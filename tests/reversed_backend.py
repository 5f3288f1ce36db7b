"""A test-only execution backend that runs each superstep's steps backwards.

The engine promises that a superstep's steps share no mutable state, so
the order they run in cannot change what the barrier sees.
:class:`ReversedBackend` runs them in reverse worker order on the calling
thread and returns the outcomes in step order; a job under it must give
serial's results and byte-identical traces.
"""

from repro.pregel.runtime import ExecutionBackend


class ReversedBackend(ExecutionBackend):
    name = "reversed"

    def run_superstep(self, steps):
        outcomes = [step() for step in reversed(steps)]
        return outcomes[::-1]
