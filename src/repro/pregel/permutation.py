"""Seeded permutation of message delivery order (graft-san's lever).

The Pregel model hands ``compute()`` its inbox as an unordered bag; this
engine *canonicalizes* inbox order (stable sort by source id) so that
runs are byte-identical across backends. That determinism is also a
blind spot: order-sensitive user code produces the same (wrong-by-luck)
answer on every run, so nothing ever notices. A
:class:`PermutationSchedule` re-opens the model's freedom on purpose —
it shuffles each inbox into a *different but deterministic* order, seeded
via :func:`~repro.common.rng.derive_rng` from
``(seed, "san", schedule, superstep, target)``, without adding, dropping,
or altering any message. Two runs under the same schedule agree exactly;
runs under different schedules agree only if the computation is
order-insensitive. The sanitizer (:mod:`repro.graft.sanitizer`) turns
that contrast into verdicts.

Schedule 0 is the identity (canonical order); schedules 1, 2, ... are
distinct deterministic shuffles. Inboxes are settled — at the barrier in
memory, at partition load on the spill plane — *after* canonicalization
and *before* combining, so combiner folds experience the permuted order
too, exercising GL015's hazard class along with GL016–GL018's.
"""

from repro.common.rng import derive_rng


class PermutationSchedule:
    """Deterministically permute per-vertex inbox order at each barrier.

    ``schedule`` selects the permutation family member: 0 is the identity
    (useful as an explicit baseline), any other value yields a shuffle
    derived from ``(seed, "san", schedule, superstep, repr(target))`` —
    stable across backends, worker counts, and platforms. ``seed``
    defaults to the engine's run seed via :meth:`bind` (the same
    late-binding discipline the chaos injector uses).
    """

    def __init__(self, schedule=1, seed=None):
        self.schedule = schedule
        self.seed = seed

    def bind(self, run_seed):
        """Adopt the engine's run seed unless one was given explicitly."""
        if self.seed is None:
            self.seed = run_seed
        return self

    def permute_inbox(self, target, superstep, order):
        """Shuffle one inbox's index vector in place; returns True if the
        order changed.

        The shuffle is driven by positions alone, so gathering an inbox's
        source and value columns through the shuffled ``range(len(inbox))``
        moves whole messages (:meth:`MessageStore.settle
        <repro.pregel.messages.MessageStore.settle>`, the only caller).
        """
        if self.schedule == 0 or len(order) < 2:
            return False
        rng = derive_rng(
            self.seed, "san", self.schedule, superstep, repr(target)
        )
        rng.shuffle(order)
        return True

    def __repr__(self):
        return (
            f"PermutationSchedule(schedule={self.schedule!r}, "
            f"seed={self.seed!r})"
        )
