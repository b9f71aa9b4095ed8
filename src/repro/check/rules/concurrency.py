"""Whole-project concurrency rules (conc tier, RC6xx).

The heavy lifting — the lock-set dataflow, the effect summaries, the
acquisition-order graph and the wait/trigger matching — lives in
:mod:`repro.check.concurrency` and runs once per project inside the
summary pass.  The :class:`~repro.check.concurrency.ConcIndex` it
produces pre-computes every finding with its rule id, so the rule
classes here are thin per-file filters: that keeps the output
deterministic no matter how files are sharded across lint workers.

These rules run only under the ``concurrency`` flag (``repro check
--concurrency``), whose runs assemble the ``ConcIndex`` they read; the
flat/flow/inter tiers do not select them.

- **RC601** — two lock-kind primitives are acquired in opposite orders
  somewhere in the project (an acquisition-order cycle): two
  concurrent processes can each hold one and wait forever for the
  other.  The static twin of a sim hang.
- **RC602** — a blocking wait (``Queue.get``, ``StagingBuffer.reserve``,
  ``yield ev`` on an engine event) on a primitive that no reachable
  code ever triggers: the waiter sleeps forever.  The static twin of a
  lost wakeup.
- **RC603** — two processes spawned by the same function write
  overlapping constant regions of one dataset with no happens-before
  edge between them.  The static twin of the runtime RT101 race.
- **RC604** — a claim (``Semaphore.acquire``, ``CacheTier.take``, a
  held ``Reservation``) is released on some paths but still held on
  others at function exit — typically an exception path that skips the
  release.  The static twin of the runtime RT201 leak.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.check.rules import LintContext, Rule, register

__all__ = ["RC601", "RC602", "RC603", "RC604"]

Violation = Tuple[int, int, str]


class _ConcRule(Rule):
    """Filter the project-wide ``ConcIndex`` down to one file + rule."""

    scope = "repo"
    tier = "conc"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        conc = ctx.inter.conc  # assembled by every concurrency run
        for rule_id, line, col, message in \
                conc.findings_for(ctx.path):  # type: ignore[union-attr]
            if rule_id == self.id:
                yield line, col, message


@register
class RC601(_ConcRule):
    id = "RC601"
    title = "acquisition-order cycle (static deadlock)"
    hint = ("acquire the primitives in one global order everywhere "
            "(or collapse them into a single lock); any cycle in the "
            "acquisition-order graph lets two processes deadlock")


@register
class RC602(_ConcRule):
    id = "RC602"
    title = "blocking wait with no reachable trigger (lost wakeup)"
    hint = ("spawn the producer that puts/closes the queue (or "
            "succeeds the event / releases the staging reservation) "
            "before blocking on it, or drop the dead wait")


@register
class RC603(_ConcRule):
    id = "RC603"
    title = "conflicting region writes without happens-before"
    hint = ("order the writers with a barrier/event/queue (any "
            "synchronization inside the task excuses it), or split "
            "the writers onto disjoint regions")


@register
class RC604(_ConcRule):
    id = "RC604"
    title = "claim released on some paths only (static leak)"
    hint = ("release the claim in a try/finally so exception exits "
            "cannot leak it; the strict CacheTier/Reservation ledgers "
            "raise on double release, so balance every path")
