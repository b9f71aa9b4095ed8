"""Bounded-height abstract domains for the ``repro check`` flow tier.

The flow rules (RC4xx typestate, RC5xx units) all operate over the same
shape of abstract state: a map from local variable names to a *set of
possible abstract values* drawn from a finite alphabet (typestates such
as ``es:pending`` or dimensions such as ``seconds``).  The powerset of
a finite alphabet is a finite-height lattice, and the per-variable join
is set union, so every forward fixpoint over these environments
terminates without widening — the property the acceptance gate on the
solver relies on.

:data:`UNBOUND` marks "the variable may be undefined on this path"; it
is injected when a join sees a variable tracked on one side only, so
must-style checks (``states == {CLOSED}``) cannot claim definiteness
across a branch that never bound the variable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

__all__ = ["Env", "UNBOUND", "UNBOUND_ONLY"]

#: Abstract value meaning "possibly unbound on some path into this join".
UNBOUND = "?"
#: ``{UNBOUND}``, built once: joins and taint reads add/strip it.
UNBOUND_ONLY = frozenset({UNBOUND})

States = FrozenSet[str]


class Env:
    """Immutable map ``variable name -> frozenset of abstract values``.

    Missing keys mean "not tracked" (top for the rule's purposes);
    unreachable program points are represented as ``None`` at the
    solver level, never as an :class:`Env`.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[Mapping[str, States]] = None) -> None:
        self._map: Dict[str, States] = dict(mapping or {})

    @classmethod
    def _wrap(cls, mapping: Dict[str, States]) -> "Env":
        """An Env owning ``mapping`` (a fresh dict nobody else holds)."""
        env = cls.__new__(cls)
        env._map = mapping
        return env

    # -- reads ------------------------------------------------------------
    def get(self, name: str) -> Optional[States]:
        """States of ``name``, or ``None`` when untracked."""
        return self._map.get(name)

    def items(self) -> Iterator[Tuple[str, States]]:
        return iter(self._map.items())

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __len__(self) -> int:
        return len(self._map)

    # -- functional updates ----------------------------------------------
    def set(self, name: str, states: States) -> "Env":
        """A copy with ``name`` bound to ``states``."""
        mapping = dict(self._map)
        mapping[name] = frozenset(states)
        return Env._wrap(mapping)

    def remove(self, name: str) -> "Env":
        """A copy with ``name`` untracked (no-op when absent)."""
        if name not in self._map:
            return self
        mapping = dict(self._map)
        del mapping[name]
        return Env._wrap(mapping)

    # -- lattice ----------------------------------------------------------
    def join(self, other: "Env") -> "Env":
        """Pointwise union; one-sided keys gain :data:`UNBOUND`.  An Env
        is immutable, so ``self`` is returned when nothing grows; the
        map is copied on the first key that does."""
        mine, theirs_map = self._map, other._map
        mapping: Optional[Dict[str, States]] = None
        for name, states in mine.items():
            theirs = theirs_map.get(name, UNBOUND_ONLY)
            if not theirs <= states:
                if mapping is None:
                    mapping = dict(mine)
                mapping[name] = states | theirs
        for name, states in theirs_map.items():
            if name not in mine:
                if mapping is None:
                    mapping = dict(mine)
                mapping[name] = states | UNBOUND_ONLY
        return self if mapping is None else Env._wrap(mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Env):
            return NotImplemented
        return other is self or self._map == other._map

    def __hash__(self) -> int:  # pragma: no cover - envs are not dict keys
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={{{', '.join(sorted(states))}}}"
            for name, states in sorted(self._map.items())
        )
        return f"Env({inner})"
