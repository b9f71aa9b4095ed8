"""Interprocedural concurrency analysis for ``repro check --concurrency``.

The runtime tier can only observe concurrency bugs on executed paths:
RT101 races and RT201 reservation leaks are sampled, never proven
absent, and a static deadlock simply hangs the engine.  This module
proves the acquire/wait/trigger discipline of the paper's async-VOL
protocol (SIII-B) *statically*, across function boundaries, using the
PR 9 summary machinery:

- every function gets a :class:`ConcEffects` record (carried on its
  :class:`~repro.check.summaries.FunctionSummary`): the lock/wait/
  trigger operations it performs on *tokens* — named sim primitives —
  directly or through resolved callees, the acquisition-order pairs it
  creates, what it does to primitive-typed parameters, and the
  constant-region dataset writes of the processes it spawns;
- :func:`build_conc_index` assembles the per-function effects into a
  global acquisition-order graph plus wait/trigger matching and
  pre-computes the RC601-RC604 findings that the rule classes in
  :mod:`repro.check.rules.concurrency` then filter per file.

Token grammar
-------------

``C:<class qualname>.<attr>``
    A primitive stored on ``self`` (``self._sem = Semaphore(...)``
    anywhere in the class body); shared by every method of the class,
    so acquisition edges compose across methods.
``L:<function qualname>:<name>``
    A single-assignment local bound by a recognized constructor
    (``q = Queue(engine)``, ``ev = engine.event(...)``,
    ``res = yield buf.reserve(n)``).
``param:<i>``
    A parameter, relative to its function; callers substitute their
    own tokens through the argument->parameter mapping, which is how a
    trigger (or an acquisition) inside a callee resolves against the
    caller's object.

Zero-false-positive hedge: any token that is aliased, returned, stored
into a container/attribute, passed to an unresolved call or captured
by a nested function is *escaped* — it still contributes ordering
edges already recorded, but RC602/RC604 never report it.  This is the
same trade the flow tier makes and is what keeps the repo-wide
zero-findings gate honest.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.check.astutil import dotted, target_names
from repro.check.callgraph import (
    FunctionInfo,
    strongly_connected_components,
)
from repro.check.cfg import CFG, CFGNode, FuncDef
from repro.check.dataflow import FixpointDiverged, ForwardAnalysis, solve
from repro.check.domains import UNBOUND, Env
from repro.check.nodetable import NodeTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.summaries import FileInter

__all__ = [
    "ConcEffects",
    "ConcIndex",
    "EMPTY_CONC",
    "analyze_function",
    "build_conc_index",
    "collect_prim_attrs",
    "conservative_conc",
    "display_token",
]

# -- abstract lock states ----------------------------------------------------
HELD, FREE = "held", "free"

# -- operation classes -------------------------------------------------------
ACQUIRE, RELEASE, WAIT, TRIGGER = "acquire", "release", "wait", "trigger"

#: Constructor tail name -> primitive kind (the asyncstate
#: ``_creation_states`` precedent: resolution by tail name, because the
#: resolver only resolves functions, never classes).
_CTOR_KINDS: Dict[str, str] = {
    "Semaphore": "sem",
    "Mutex": "sem",
    "Queue": "queue",
    "Barrier": "barrier",
    "EventSet": "es",
    "StagingBuffer": "staging",
    "CacheTier": "tier",
    "Reservation": "reservation",
    "StoredDataset": "dset",
    "Dataset": "dset",
}
#: ``x = <recv>.<attr>(...)`` creations.
_ATTR_CTOR_KINDS: Dict[str, str] = {
    "event": "event",
    "create_dataset": "dset",
}

#: kind -> method -> operation classes it performs.  A method *not* in
#: its kind's table escapes the token (unknown protocol interaction),
#: except for the lenient kinds below.
_KIND_OPS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "sem": {"acquire": (ACQUIRE,), "release": (RELEASE,)},
    "tier": {"take": (ACQUIRE,), "give": (RELEASE,)},
    "reservation": {"release": (RELEASE,)},
    "queue": {"get": (WAIT,), "put": (TRIGGER,), "close": (TRIGGER,),
              "pop_if": ()},
    "barrier": {"wait": (WAIT, TRIGGER)},  # arrival is its own trigger
    "es": {"wait": (WAIT,), "add": (TRIGGER,)},
    "staging": {"reserve": (WAIT,), "release": (TRIGGER,)},
    "event": {"succeed": (TRIGGER,), "fail": (TRIGGER,)},
    "dset": {},
}
#: Kinds whose unknown methods are neutral instead of escaping (their
#: protocol surface is open-ended and none of it affects RC6xx).
_LENIENT_KINDS = frozenset({"dset"})
#: Kinds with held/free state (RC601 ordering, RC604 balance).
_LOCK_KINDS = frozenset({"sem", "tier", "reservation"})
#: Kinds whose WAIT blocks until some *other* actor triggers (RC602).
#: ``barrier`` arrival triggers itself; ``es`` waits are the RC401
#: family's business.
_WAIT_KINDS = frozenset({"queue", "staging", "event"})
#: kind -> methods that satisfy its blocked waiters.
_TRIGGER_METHODS: Dict[str, Tuple[str, ...]] = {
    "queue": ("put", "close"),
    "staging": ("release",),
    "event": ("succeed", "fail"),
}
#: Trigger-ish methods on *unresolvable* receivers; any such loose call
#: excuses RC602 for every token of the matching kind (the trigger may
#: reach it through a path the token model cannot see).
_LOOSE_METHODS = frozenset({"put", "close", "release", "succeed", "fail"})
#: Method names recorded against parameters (validated against the
#: argument's kind at the call site; everything else is neutral).
_INTERESTING_METHODS = frozenset(
    m for table in _KIND_OPS.values() for m in table)
#: Parameter methods that move a lock-kind argument held/free.
_HOLD_METHODS = frozenset({"acquire", "take"})
_FREE_METHODS = frozenset({"release", "give"})
#: Methods that synchronize with other actors (non-empty op classes in
#: some kind table): calling one on *anything* gives the function a
#: happens-before edge, which excuses its spawns from RC603.
_SYNC_METHODS = frozenset(
    m for table in _KIND_OPS.values() for m, classes in table.items()
    if classes)
#: ``<recv>.<spawn>(generator_call, ...)`` starts a concurrent process.
_SPAWN_METHODS = frozenset({"process", "spawn"})

_PARAM = "param:"
_PARAM_KIND = "param"


def display_token(token: str) -> str:
    """Human-readable name of a token for finding messages."""
    if token.startswith("C:"):
        parts = token[2:].rsplit(".", 2)
        return ".".join(parts[-2:])
    if token.startswith("L:"):
        return token.rsplit(":", 1)[-1]
    if token.startswith(_PARAM):
        return f"parameter #{token[len(_PARAM):]}"
    return token


def _is_global(token: str) -> bool:
    return token.startswith(("C:", "L:"))


# ---------------------------------------------------------------------------
# Effects record (rides on FunctionSummary)
# ---------------------------------------------------------------------------

#: (opclass, token, kind, line, col, direct)
OpRec = Tuple[str, str, str, int, int, bool]
#: (held token, acquired token, line, col)
PairRec = Tuple[str, str, int, int]
#: (dataset token, start tuple, count tuple, line, col)
WriteRec = Tuple[str, Tuple[int, ...], Tuple[int, ...], int, int]
#: (line, col, callee qualname, writes, has_sync)
TaskRec = Tuple[int, int, str, Tuple[WriteRec, ...], bool]
#: (token, kind, line, col of first acquisition)
ImbalanceRec = Tuple[str, str, int, int]


@dataclass(frozen=True)
class ConcEffects:
    """Concurrency effect set of one function (direct + inherited)."""

    ops: Tuple[OpRec, ...] = ()
    pairs: Tuple[PairRec, ...] = ()
    #: Tokens (global or ``param:<i>``) this function may acquire,
    #: transitively through resolved callees.
    acquires: FrozenSet[str] = frozenset()
    #: Per-parameter interesting method names plus ``"escape"``.
    param_ops: Tuple[FrozenSet[str], ...] = ()
    #: Per-parameter exit lock state, subset of ``{held, free}``.
    param_exit: Tuple[FrozenSet[str], ...] = ()
    #: Exit lock states of class-attr tokens this function touches.
    global_exit: Tuple[Tuple[str, FrozenSet[str]], ...] = ()
    escaped: FrozenSet[str] = frozenset()
    #: Loose trigger-ish method names on unresolvable receivers.
    loose: FrozenSet[str] = frozenset()
    writes: Tuple[WriteRec, ...] = ()
    tasks: Tuple[TaskRec, ...] = ()
    has_sync: bool = False
    imbalance: Tuple[ImbalanceRec, ...] = ()

    def to_dict(self, sites: bool = True) -> Dict[str, object]:
        """JSON-safe form; ``sites=False`` drops line/col so the
        summary digest does not re-key callers on pure line shifts."""
        if sites:
            ops: List[object] = [list(o) for o in self.ops]
            pairs: List[object] = [list(p) for p in self.pairs]
            writes: List[object] = [
                [t, list(s), list(c), ln, co]
                for t, s, c, ln, co in self.writes]
            tasks: List[object] = [
                [ln, co, q, [[t, list(s), list(c), wl, wc]
                             for t, s, c, wl, wc in ws], sync]
                for ln, co, q, ws, sync in self.tasks]
            imbalance: List[object] = [list(i) for i in self.imbalance]
        else:
            ops = sorted({(o[0], o[1], o[2], o[5]) for o in self.ops})
            ops = [list(o) for o in ops]
            pairs = sorted({(p[0], p[1]) for p in self.pairs})
            pairs = [list(p) for p in pairs]
            writes = sorted({(t, s, c) for t, s, c, _, _ in self.writes})
            writes = [[t, list(s), list(c)] for t, s, c in writes]
            tasks = sorted({(q, tuple(sorted((t, s, c)
                                             for t, s, c, _, _ in ws)), sync)
                            for _, _, q, ws, sync in self.tasks})
            tasks = [[q, [[t, list(s), list(c)] for t, s, c in ws], sync]
                     for q, ws, sync in tasks]
            imbalance = sorted({(t, k) for t, k, _, _ in self.imbalance})
            imbalance = [list(i) for i in imbalance]
        return {
            "ops": ops,
            "pairs": pairs,
            "acquires": sorted(self.acquires),
            "param_ops": [sorted(p) for p in self.param_ops],
            "param_exit": [sorted(p) for p in self.param_exit],
            "global_exit": [[t, sorted(s)] for t, s in self.global_exit],
            "escaped": sorted(self.escaped),
            "loose": sorted(self.loose),
            "writes": writes,
            "tasks": tasks,
            "has_sync": self.has_sync,
            "imbalance": imbalance,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConcEffects":
        def _writes(rows: object) -> Tuple[WriteRec, ...]:
            return tuple(
                (str(t), tuple(int(x) for x in s),
                 tuple(int(x) for x in c), int(ln), int(co))
                for t, s, c, ln, co in rows)  # type: ignore[union-attr]

        return cls(
            ops=tuple((str(a), str(b), str(c), int(d), int(e), bool(f))
                      for a, b, c, d, e, f in data["ops"]),  # type: ignore[union-attr]
            pairs=tuple((str(a), str(b), int(c), int(d))
                        for a, b, c, d in data["pairs"]),  # type: ignore[union-attr]
            acquires=frozenset(data["acquires"]),  # type: ignore[arg-type]
            param_ops=tuple(frozenset(p)
                            for p in data["param_ops"]),  # type: ignore[union-attr]
            param_exit=tuple(frozenset(p)
                             for p in data["param_exit"]),  # type: ignore[union-attr]
            global_exit=tuple(
                (str(t), frozenset(s))
                for t, s in data["global_exit"]),  # type: ignore[union-attr]
            escaped=frozenset(data["escaped"]),  # type: ignore[arg-type]
            loose=frozenset(data["loose"]),  # type: ignore[arg-type]
            writes=_writes(data["writes"]),
            tasks=tuple(
                (int(ln), int(co), str(q), _writes(ws), bool(sync))
                for ln, co, q, ws, sync in data["tasks"]),  # type: ignore[union-attr]
            has_sync=bool(data["has_sync"]),
            imbalance=tuple(
                (str(t), str(k), int(ln), int(co))
                for t, k, ln, co in data["imbalance"]),  # type: ignore[union-attr]
        )


EMPTY_CONC = ConcEffects()


def conservative_conc(info: FunctionInfo) -> ConcEffects:
    """The escape hedge as a concurrency summary: every parameter
    escapes, nothing else is claimed; ``has_sync`` is set so RC603
    never trusts a task spawned from a degraded summary."""
    return ConcEffects(
        param_ops=tuple(frozenset({"escape"}) for _ in info.params),
        param_exit=tuple(frozenset() for _ in info.params),
        has_sync=True,
    )


def optimistic_conc(info: FunctionInfo) -> ConcEffects:
    """Fixpoint seed inside recursive SCCs: assume no effects."""
    return ConcEffects(
        param_ops=tuple(frozenset() for _ in info.params),
        param_exit=tuple(frozenset() for _ in info.params),
    )


# ---------------------------------------------------------------------------
# Project-wide primitive attribute scan
# ---------------------------------------------------------------------------

def _ctor_kind(value: ast.expr) -> Optional[str]:
    """Primitive kind an assignment RHS constructs, if recognized."""
    inner = value.value if isinstance(value, (ast.Yield, ast.YieldFrom,
                                              ast.Await)) \
        and value.value is not None else value
    if not isinstance(inner, ast.Call):
        return None
    if isinstance(value, (ast.Yield, ast.YieldFrom)):
        # ``res = yield buf.reserve(n)``: the generator's return value
        # is a held Reservation; any other driven call is opaque.
        if isinstance(inner.func, ast.Attribute) \
                and inner.func.attr == "reserve":
            return "reservation"
        return None
    name = dotted(inner.func)
    if name is not None:
        tail = name.rsplit(".", 1)[-1]
        if tail in _CTOR_KINDS:
            return _CTOR_KINDS[tail]
    if isinstance(inner.func, ast.Attribute) \
            and inner.func.attr in _ATTR_CTOR_KINDS:
        return _ATTR_CTOR_KINDS[inner.func.attr]
    return None


def collect_prim_attrs(tables: Mapping[str, NodeTable]) -> Dict[str, str]:
    """``"<class qualname>.<attr>" -> kind`` for every primitive bound
    to ``self`` anywhere in a top-level class body.  Attributes with
    conflicting bindings (two kinds, or a non-constructor reassignment)
    are dropped — their identity is not single-valued."""
    from repro.check.callgraph import module_name_for_path

    seen: Dict[str, Optional[str]] = {}
    for path in sorted(tables):
        module = module_name_for_path(path)
        table = tables[path]
        for cls_pos in table.body(0):
            stmt = table.nodes[cls_pos]
            if not isinstance(stmt, ast.ClassDef):
                continue
            cls_qual = f"{module}.{stmt.name}"
            for method_pos in table.body(cls_pos):
                method = table.nodes[method_pos]
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                args = method.args
                named = args.posonlyargs + args.args
                if not named:
                    continue
                self_name = named[0].arg
                for node in table.subtree(method_pos):
                    if not (isinstance(node, ast.Assign)
                            and len(node.targets) == 1):
                        continue
                    target = node.targets[0]
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name):
                        continue
                    key = f"{cls_qual}.{target.attr}"
                    kind = _ctor_kind(node.value)
                    if key in seen and seen[key] != kind:
                        seen[key] = None
                    elif key not in seen:
                        seen[key] = kind
    return {key: kind for key, kind in seen.items() if kind is not None}


# ---------------------------------------------------------------------------
# Per-function token scope
# ---------------------------------------------------------------------------

class _FuncScope:
    """Name -> token resolution for one function body."""

    def __init__(self, info: FunctionInfo, func: FuncDef,
                 view: "FileInter") -> None:
        self.info = info
        self.func = func
        self.view = view
        self.index = view.index
        self.prim_attrs: Dict[str, str] = view.prim_attrs
        self.param_index = {name: i for i, name in enumerate(info.params)}
        self.assigned_params: Set[str] = set()
        self.self_name: Optional[str] = None
        self.cls_qual: Optional[str] = None
        if info.kind == "method" and info.params:
            self.self_name = info.params[0]
            self.cls_qual = info.qualname.rsplit(".", 1)[0]
        #: local name -> (token, kind)
        self.locals: Dict[str, Tuple[str, str]] = {}
        #: token -> initial lock state at the binding site, if any.
        self.init_state: Dict[str, str] = {}
        self._attr_cache: Dict[str, Optional[Tuple[str, str]]] = {}
        self._prescan()

    def _prescan(self) -> None:
        assigns: Dict[str, List[Optional[str]]] = {}
        table: NodeTable = self.view.table
        nodes = table.nodes
        stack: List[int] = list(table.children(table.position(self.func)))
        while stack:
            pos = stack.pop()
            node = nodes[pos]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                # Nested bodies run later; their bindings are not ours
                # and captured tokens escape at the definition node.
                for name in _bound_names(node):
                    assigns.setdefault(name, []).append(None)
                continue
            stack.extend(table.children(pos))
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                assigns.setdefault(name, []).append(_ctor_kind(node.value))
            else:
                for name in _stmt_bound_names(node):
                    assigns.setdefault(name, []).append(None)
        for name, kinds in assigns.items():
            if name in self.param_index:
                self.assigned_params.add(name)
                continue
            if len(kinds) == 1 and kinds[0] is not None:
                token = f"L:{self.info.qualname}:{name}"
                self.locals[name] = (token, kinds[0])
                if kinds[0] == "reservation":
                    self.init_state[token] = HELD

    def token_for(self, expr: ast.AST) -> Optional[Tuple[str, str]]:
        """``(token, kind)`` for an expression, or ``None``.  Kind is
        ``"param"`` for parameter tokens (real kind unknown here)."""
        if isinstance(expr, ast.Name):
            if expr.id in self.locals:
                return self.locals[expr.id]
            idx = self.param_index.get(expr.id)
            if idx is not None and expr.id not in self.assigned_params:
                return f"{_PARAM}{idx}", _PARAM_KIND
            return None
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == self.self_name \
                and self.cls_qual is not None:
            cached = self._attr_cache.get(expr.attr, "miss")
            if cached != "miss":
                return cached  # type: ignore[return-value]
            resolved = self._lookup_attr(expr.attr)
            self._attr_cache[expr.attr] = resolved
            return resolved
        return None

    def _lookup_attr(self, attr: str) -> Optional[Tuple[str, str]]:
        queue: List[str] = [self.cls_qual or ""]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if not current or current in seen or len(seen) > 32:
                continue
            seen.add(current)
            key = f"{current}.{attr}"
            kind = self.prim_attrs.get(key)
            if kind is not None:
                return f"C:{key}", kind
            cls = self.index.classes.get(current)
            if cls is not None:
                queue.extend(cls.resolved_bases)
        return None


def _bound_names(func: ast.AST) -> Iterator[str]:
    """Names a nested def/lambda shadows in the enclosing scope: only
    its own name (defs); argument names are its own scope."""
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield func.name


def _stmt_bound_names(node: ast.AST) -> Iterator[str]:
    """Names (re)bound by a non-tokenizing statement."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from target_names(target)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        yield from target_names(node.target)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        yield from target_names(node.target)
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if item.optional_vars is not None:
                yield from target_names(item.optional_vars)
    elif isinstance(node, ast.excepthandler) and node.name:
        yield node.name
    elif isinstance(node, (ast.Global, ast.Nonlocal)):
        yield from node.names
    elif isinstance(node, ast.NamedExpr) \
            and isinstance(node.target, ast.Name):
        yield node.target.id


# ---------------------------------------------------------------------------
# Site actions: one syntactic pass per CFG node, memoized
# ---------------------------------------------------------------------------
#
# Action tuples (first element discriminates):
#   ("op", opclass, token, kind, line, col, direct)
#   ("cop", opclass, token, kind, line, col)   op inside a spawned
#                                      worker: recorded but concurrent,
#                                      so no env update and no pairing
#   ("exit", token, states)            exit lock states from a callee
#   ("escape", token)
#   ("loose", method)
#   ("write", token, start, count, line, col)
#   ("task", line, col, qual, writes, has_sync)
#   ("pair", held, acquired, line, col)   substituted callee pairs
#   ("acq", token)                     callee acquisition (held x pairing)
#   ("sync",)                          callee synchronizes internally
#   ("pop", index, method)             interesting method on a parameter
#   ("pexit", index, states)           callee exit states for a parameter
#   ("init", token, state)             binding-site lock state


def _iter_occurrences(scope: _FuncScope, node: CFGNode,
                      exprs: Sequence[ast.expr]
                      ) -> Iterator[Tuple[ast.AST, str, str]]:
    """Token occurrences in ``exprs`` (evaluated at ``node``): attribute
    access on a token does not count (reading ``sem.engine`` leaks
    nothing), nested lambda bodies are skipped (captures are handled
    via ``CFGNode.captured``)."""
    table: NodeTable = scope.view.table
    stack: List[Tuple[int, bool]] = [(table.find(e, node.pos), False)
                                     for e in reversed(list(exprs))]
    while stack:
        k, under_attr = stack.pop()
        expr = table.nodes[k]
        if isinstance(expr, ast.Attribute):
            found = scope.token_for(expr)
            if found is not None:
                yield expr, found[0], found[1]
                continue
            stack.append((k + 1, True))  # the attribute's value
            continue
        if isinstance(expr, ast.Name):
            if under_attr:
                continue
            found = scope.token_for(expr)
            if found is not None:
                yield expr, found[0], found[1]
            continue
        if isinstance(expr, ast.Lambda):
            continue
        for child in reversed(list(table.children(k))):
            stack.append((child, False))


def _constant_region(call: ast.Call
                     ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """``(start, count)`` of a ``Hyperslab(...)`` argument with constant
    integer tuples, else ``None``."""
    name = dotted(call.func)
    if name is None or name.rsplit(".", 1)[-1] != "Hyperslab":
        return None
    start: Optional[Tuple[int, ...]] = None
    count: Optional[Tuple[int, ...]] = None
    positional = list(call.args)
    if len(positional) >= 1:
        start = _int_tuple(positional[0])
    if len(positional) >= 2:
        count = _int_tuple(positional[1])
    for kw in call.keywords:
        if kw.arg == "start":
            start = _int_tuple(kw.value)
        elif kw.arg == "count":
            count = _int_tuple(kw.value)
    if start is None or count is None or len(start) != len(count):
        return None
    return start, count


def _int_tuple(expr: ast.expr) -> Optional[Tuple[int, ...]]:
    if not isinstance(expr, (ast.Tuple, ast.List)):
        return None
    out: List[int] = []
    for element in expr.elts:
        if isinstance(element, ast.Constant) \
                and isinstance(element.value, int) \
                and not isinstance(element.value, bool):
            out.append(element.value)
        else:
            return None
    return tuple(out)


class _SiteActions:
    """Per-node action extraction shared by the solve and the report
    walk (syntax only: no abstract state involved)."""

    def __init__(self, scope: _FuncScope) -> None:
        self.scope = scope
        self._memo: Dict[int, List[tuple]] = {}

    def actions(self, node: CFGNode) -> List[tuple]:
        cached = self._memo.get(node.index)
        if cached is None:
            cached = self._compute(node)
            self._memo[node.index] = cached
        return cached

    # -- helpers ----------------------------------------------------------
    def _summary_conc(self, call: ast.Call
                      ) -> Optional[Tuple[FunctionInfo, ConcEffects,
                                          Dict[int, ast.expr]]]:
        view = self.scope.view
        info = view.function_for_call(call)
        summary = view.summary_for_call(call)
        if info is None or summary is None:
            return None
        conc = getattr(summary, "conc", None)
        if conc is None:
            return None
        mapping = view.param_index_map(call)
        if mapping is None:
            return None
        return info, conc, mapping

    def _subst(self, endpoint: str,
               mapping: Dict[int, ast.expr]) -> Optional[str]:
        """Map a callee token endpoint into this function's namespace."""
        if endpoint.startswith(_PARAM):
            try:
                idx = int(endpoint[len(_PARAM):])
            except ValueError:
                return None
            expr = mapping.get(idx)
            if expr is None:
                return None
            found = self.scope.token_for(expr)
            return found[0] if found is not None else None
        return endpoint

    def _apply_callee(self, out: List[tuple], node: CFGNode,
                      call: ast.Call,
                      info: FunctionInfo, conc: ConcEffects,
                      mapping: Dict[int, ast.expr],
                      handled: Set[int], line: int, col: int,
                      spawned: bool,
                      skip_receiver_index: Optional[int]) -> None:
        """Record a resolved callee's effects at this call site."""
        scope = self.scope
        for idx, expr in sorted(mapping.items()):
            found = scope.token_for(expr)
            if found is None:
                # Tokens buried inside a structured argument escape.
                for leaf, token, _kind in _iter_occurrences(scope, node,
                                                            [expr]):
                    if id(leaf) not in handled:
                        handled.add(id(leaf))
                        out.append(("escape", token))
                continue
            token, kind = found
            handled.add(id(expr))
            if idx == skip_receiver_index:
                continue  # protocol receiver: the op table owns it
            methods = (conc.param_ops[idx]
                       if idx < len(conc.param_ops) else frozenset(
                           {"escape"}))
            if kind == _PARAM_KIND:
                if spawned:
                    # A worker holds our parameter beyond this frame's
                    # timeline; the caller must treat it as escaped.
                    out.append(("pop", int(token[len(_PARAM):]),
                                "escape"))
                else:
                    for method in sorted(methods):
                        out.append(("pop", int(token[len(_PARAM):]),
                                    method))
            else:
                table = _KIND_OPS.get(kind, {})
                for method in sorted(methods):
                    if method == "escape":
                        out.append(("escape", token))
                        continue
                    classes = table.get(method)
                    if classes is None:
                        if kind not in _LENIENT_KINDS:
                            out.append(("escape", token))
                        continue
                    for opclass in classes:
                        if spawned:
                            # Runs concurrently: its triggers/waits are
                            # real, but it never nests inside this
                            # frame's lock state.
                            out.append(("cop", opclass, token, kind,
                                        line, col))
                        else:
                            out.append(("op", opclass, token, kind,
                                        line, col, False))
            if not spawned:
                exits = (conc.param_exit[idx]
                         if idx < len(conc.param_exit) else frozenset())
                if exits and kind in _LOCK_KINDS:
                    out.append(("exit", token,
                                frozenset(_map_exit(exits))))
                elif exits and kind == _PARAM_KIND:
                    out.append(("pexit", int(token[len(_PARAM):]),
                                frozenset(exits)))
        for held, acquired, _ln, _co in conc.pairs:
            sub_h = self._subst(held, mapping)
            sub_a = self._subst(acquired, mapping)
            if sub_h is not None and sub_a is not None and sub_h != sub_a:
                out.append(("pair", sub_h, sub_a, line, col))
        if not spawned:
            # A spawned worker's acquisitions do not nest inside our
            # held set — only its internal (substituted) pairs count.
            for acquired in sorted(conc.acquires):
                sub_a = self._subst(acquired, mapping)
                if sub_a is not None:
                    out.append(("acq", sub_a))
            for token, states in conc.global_exit:
                out.append(("exit", token, states))
        for method in sorted(conc.loose):
            out.append(("loose", method))
        for token in sorted(conc.escaped):
            out.append(("escape", token))
        if conc.has_sync:
            out.append(("sync",))

    def _substituted_writes(self, conc: ConcEffects,
                            mapping: Dict[int, ast.expr],
                            line: int, col: int) -> Tuple[WriteRec, ...]:
        out: List[WriteRec] = []
        for token, start, count, _ln, _co in conc.writes:
            sub = self._subst(token, mapping)
            if sub is not None:
                out.append((sub, start, count, line, col))
        return tuple(out)

    # -- the extraction ---------------------------------------------------
    def _compute(self, node: CFGNode) -> List[tuple]:
        scope = self.scope
        stmt = node.ast_node
        out: List[tuple] = []
        if stmt is None:
            return out
        exprs = [scope.view.table.nodes[root]
                 for root in node.roots]

        for name in node.captured:
            found = scope.locals.get(name)
            if found is not None:
                out.append(("escape", found[0]))
            elif name in scope.param_index \
                    and name not in scope.assigned_params:
                out.append(("pop", scope.param_index[name], "escape"))

        handled: Set[int] = set()
        consumed_calls: Set[int] = set()
        driven_ids: Set[int] = set()
        yielded_names: Dict[int, ast.AST] = {}
        for sub in node.walked:
            if isinstance(sub, (ast.YieldFrom, ast.Await)) \
                    and isinstance(sub.value, ast.Call):
                driven_ids.add(id(sub.value))
            elif isinstance(sub, ast.Yield) and sub.value is not None \
                    and not isinstance(sub.value, ast.Call):
                yielded_names[id(sub.value)] = sub.value

        # ``yield ev`` on an event token is its blocking wait.
        for value in yielded_names.values():
            found = scope.token_for(value)
            if found is not None and found[1] == "event":
                handled.add(id(value))
                out.append(("op", WAIT, found[0], "event",
                            getattr(value, "lineno", node.line),
                            getattr(value, "col_offset", node.col), True))

        for sub in node.walked:
            if not isinstance(sub, ast.Call) or id(sub) in consumed_calls:
                continue
            line = getattr(sub, "lineno", node.line)
            col = getattr(sub, "col_offset", node.col)

            # -- spawn: <recv>.process(generator_call, ...) ---------------
            if isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _SPAWN_METHODS \
                    and sub.args and isinstance(sub.args[0], ast.Call):
                inner = sub.args[0]
                consumed_calls.add(id(inner))
                resolved = self._summary_conc(inner)
                if resolved is not None:
                    info, conc, mapping = resolved
                    self._apply_callee(out, node, inner, info, conc,
                                       mapping, handled, line, col,
                                       spawned=True,
                                       skip_receiver_index=None)
                    out.append(("task", line, col, info.qualname,
                                self._substituted_writes(conc, mapping,
                                                         line, col),
                                conc.has_sync))
                else:
                    for leaf, token, _k in _iter_occurrences(scope, node,
                                                             [inner]):
                        if id(leaf) not in handled:
                            handled.add(id(leaf))
                            out.append(("escape", token))
                consumed_calls.add(id(sub))
                continue

            # -- method call on a tokenized receiver ----------------------
            receiver_token: Optional[str] = None
            receiver_index: Optional[int] = None
            if isinstance(sub.func, ast.Attribute):
                recv = sub.func.value
                found = scope.token_for(recv)
                if found is not None:
                    token, kind = found
                    handled.add(id(recv))
                    receiver_token = token
                    method = sub.func.attr
                    if kind == _PARAM_KIND:
                        receiver_index = int(token[len(_PARAM):])
                        if method in _INTERESTING_METHODS:
                            out.append(("pop", receiver_index, method))
                            if method in _SYNC_METHODS:
                                out.append(("sync",))
                            if method in _HOLD_METHODS:
                                out.append(("op", ACQUIRE, token,
                                            _PARAM_KIND, line, col, True))
                            elif method in _FREE_METHODS:
                                out.append(("op", RELEASE, token,
                                            _PARAM_KIND, line, col, True))
                    else:
                        receiver_index = 0
                        table = _KIND_OPS.get(kind, {})
                        classes = table.get(method)
                        if method == "write" and kind == "dset":
                            self._record_write(out, sub, token, line, col)
                        elif classes is None:
                            if kind not in _LENIENT_KINDS:
                                out.append(("escape", token))
                        else:
                            for opclass in classes:
                                out.append(("op", opclass, token, kind,
                                            line, col, True))

            # ``.write`` region recording on a parameter receiver.
            if receiver_token is not None \
                    and receiver_token.startswith(_PARAM) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr == "write":
                self._record_write(out, sub, receiver_token, line, col)

            # -- resolved project call ------------------------------------
            resolved = self._summary_conc(sub)
            if resolved is not None:
                info, conc, mapping = resolved
                driven = id(sub) in driven_ids
                if info.deferred and not driven:
                    # A bare generator/coroutine call: effects apply only
                    # if someone drives it later, somewhere we cannot
                    # see.  Escape the token arguments.
                    for idx, expr in mapping.items():
                        if idx == 0 and receiver_index == 0 \
                                and receiver_token is not None:
                            continue
                        for leaf, token, kind in _iter_occurrences(
                                scope, node, [expr]):
                            if id(leaf) in handled:
                                continue
                            handled.add(id(leaf))
                            if kind == _PARAM_KIND:
                                out.append(("pop",
                                            int(token[len(_PARAM):]),
                                            "escape"))
                            else:
                                out.append(("escape", token))
                else:
                    skip = receiver_index if receiver_token is not None \
                        and not receiver_token.startswith(_PARAM) else None
                    self._apply_callee(out, node, sub, info, conc,
                                       mapping, handled, line, col,
                                       spawned=False,
                                       skip_receiver_index=skip)
                    out.append(("writes",
                                self._substituted_writes(conc, mapping,
                                                         line, col)))
                continue

            # -- unresolved call: loose triggers + escapes ----------------
            if isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _LOOSE_METHODS \
                    and receiver_token is None:
                out.append(("loose", sub.func.attr))
            arg_exprs: List[ast.expr] = list(sub.args)
            arg_exprs.extend(kw.value for kw in sub.keywords)
            for leaf, token, kind in _iter_occurrences(scope, node,
                                                       arg_exprs):
                if id(leaf) in handled:
                    continue
                handled.add(id(leaf))
                if kind == _PARAM_KIND:
                    out.append(("pop", int(token[len(_PARAM):]), "escape"))
                else:
                    out.append(("escape", token))

        # -- binding sites: the target occurrence is the definition,
        # not a leak --------------------------------------------------------
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            bound: Optional[Tuple[str, str]] = None
            if isinstance(target, ast.Name):
                bound = scope.locals.get(target.id)
            elif isinstance(target, ast.Attribute):
                found = scope.token_for(target)
                if found is not None and found[0].startswith("C:"):
                    bound = found
            if bound is not None \
                    and _ctor_kind(stmt.value) == bound[1]:
                handled.add(id(target))
                init = scope.init_state.get(bound[0])
                if init is not None:
                    out.append(("init", bound[0], init))

        # -- every other occurrence escapes -------------------------------
        for leaf, token, kind in _iter_occurrences(scope, node, exprs):
            if id(leaf) in handled:
                continue
            if kind == _PARAM_KIND:
                if isinstance(stmt, (ast.Expr, ast.If, ast.While,
                                     ast.Assert, ast.For, ast.AsyncFor,
                                     ast.Match)) \
                        and not isinstance(leaf, ast.Attribute):
                    continue  # reading a parameter name leaks nothing
                out.append(("pop", int(token[len(_PARAM):]), "escape"))
            else:
                if isinstance(stmt, (ast.If, ast.While, ast.Assert)):
                    continue  # truthiness reads leak nothing
                out.append(("escape", token))
        return out

    def _record_write(self, out: List[tuple], call: ast.Call,
                      token: str, line: int, col: int) -> None:
        selection: Optional[ast.expr] = None
        if call.args:
            selection = call.args[0]
        for kw in call.keywords:
            if kw.arg == "selection":
                selection = kw.value
        if isinstance(selection, ast.Call):
            region = _constant_region(selection)
            if region is not None:
                out.append(("write", token, region[0], region[1],
                            line, col))


def _map_exit(states: FrozenSet[str]) -> Set[str]:
    out: Set[str] = set()
    if HELD in states:
        out.add(HELD)
    if FREE in states:
        out.add(FREE)
    return out


# ---------------------------------------------------------------------------
# The lock-state dataflow + collection
# ---------------------------------------------------------------------------

class _LockAnalysis(ForwardAnalysis):
    """May-analysis of held/free lock states over tokens."""

    def __init__(self, actions: _SiteActions) -> None:
        self.actions = actions

    def initial(self, cfg: CFG) -> Env:
        return Env()

    def transfer(self, cfg: CFG, node: CFGNode, env: Env) -> Env:
        return _apply_actions(self.actions.actions(node), env)


def _apply_actions(actions: Sequence[tuple], env: Env) -> Env:
    out = env
    for action in actions:
        tag = action[0]
        if tag == "op":
            _, opclass, token, _kind, _ln, _co, _direct = action
            if opclass == ACQUIRE:
                out = out.set(token, frozenset({HELD}))
            elif opclass == RELEASE:
                out = out.set(token, frozenset({FREE}))
        elif tag == "exit":
            _, token, states = action
            if states:
                existing = out.get(token)
                if UNBOUND in states and existing:
                    out = out.set(token, frozenset(states) | existing)
                else:
                    out = out.set(token, frozenset(states))
        elif tag == "init":
            _, token, state = action
            out = out.set(token, frozenset({state}))
    return out


def analyze_function(info: FunctionInfo, func: FuncDef,
                     view: "FileInter", cfg: CFG) -> ConcEffects:
    """Compute one function's :class:`ConcEffects` (one solve + one
    replay over ``cfg``, the function's graph)."""
    scope = _FuncScope(info, func, view)
    actions = _SiteActions(scope)
    try:
        in_states = solve(cfg, _LockAnalysis(actions))
    except FixpointDiverged:
        return conservative_conc(info)

    n_params = len(info.params)
    ops: List[OpRec] = []
    pairs: List[PairRec] = []
    acquires: Set[str] = set()
    param_ops: List[Set[str]] = [set() for _ in range(n_params)]
    escaped: Set[str] = set()
    loose: Set[str] = set()
    writes: List[WriteRec] = []
    tasks: List[TaskRec] = []
    token_kinds: Dict[str, str] = {}
    first_acquire: Dict[str, Tuple[int, int]] = {}
    has_sync = False
    seen: Set[tuple] = set()

    def held_tokens(env: Env) -> List[str]:
        return sorted(t for t, s in env.items() if HELD in s)

    for node in cfg.stmt_nodes():
        env = in_states.get(node.index)
        if env is None:
            continue  # unreachable
        for action in actions.actions(node):
            tag = action[0]
            key = action if tag != "writes" else None
            if key is not None:
                if key in seen:
                    # ``finally`` clones duplicate statements; replay
                    # the env transition but record each site once.
                    env = _apply_actions([action], env)
                    continue
                seen.add(key)
            if tag == "op":
                _, opclass, token, kind, line, col, direct = action
                ops.append((opclass, token, kind, line, col, direct))
                if kind != _PARAM_KIND:
                    token_kinds[token] = kind
                if opclass in (WAIT, TRIGGER):
                    has_sync = True
                if opclass == ACQUIRE:
                    has_sync = True
                    acquires.add(token)
                    first_acquire.setdefault(token, (line, col))
                    for held in held_tokens(env):
                        if held != token:
                            pairs.append((held, token, line, col))
                if opclass == RELEASE:
                    has_sync = True
            elif tag == "cop":
                _, opclass, token, kind, line, col = action
                ops.append((opclass, token, kind, line, col, False))
                if kind != _PARAM_KIND:
                    token_kinds[token] = kind
                has_sync = True
            elif tag == "acq":
                _, token = action
                acquires.add(token)
                # The callee's internal acquisition nests inside
                # whatever this function already holds here.
                ln, co = node.line, node.col
                for held in held_tokens(env):
                    if held != token:
                        pairs.append((held, token, ln, co))
            elif tag == "pair":
                _, held, acquired, line, col = action
                pairs.append((held, acquired, line, col))
            elif tag == "escape":
                escaped.add(action[1])
            elif tag == "loose":
                loose.add(action[1])
            elif tag == "write":
                _, token, start, count, line, col = action
                writes.append((token, start, count, line, col))
            elif tag == "writes":
                writes.extend(action[1])
            elif tag == "task":
                _, line, col, qual, task_writes, sync = action
                tasks.append((line, col, qual, task_writes, sync))
            elif tag == "pop":
                _, idx, method = action
                if 0 <= idx < n_params:
                    param_ops[idx].add(method)
            elif tag == "sync":
                has_sync = True
            env = _apply_actions([action], env)

    exit_env = in_states.get(cfg.exit)
    param_exit: List[FrozenSet[str]] = []
    global_exit: List[Tuple[str, FrozenSet[str]]] = []
    imbalance: List[ImbalanceRec] = []
    if exit_env is not None:
        for i in range(n_params):
            states = exit_env.get(f"{_PARAM}{i}") or frozenset()
            param_exit.append(frozenset(_map_exit(states)))
        for token, states in sorted(exit_env.items()):
            if token.startswith("C:"):
                kept = frozenset(
                    s for s in states if s in (HELD, FREE, UNBOUND))
                if kept & {HELD, FREE}:
                    global_exit.append((token, kept))
            if _is_global(token) \
                    and token_kinds.get(token) in _LOCK_KINDS \
                    and HELD in states and FREE in states:
                line, col = first_acquire.get(
                    token, (func.lineno, func.col_offset))
                imbalance.append((token, token_kinds[token], line, col))
    else:
        param_exit = [frozenset() for _ in range(n_params)]

    return ConcEffects(
        ops=tuple(sorted(set(ops))),
        pairs=tuple(sorted(set(pairs))),
        acquires=frozenset(acquires),
        param_ops=tuple(frozenset(p) for p in param_ops),
        param_exit=tuple(param_exit),
        global_exit=tuple(global_exit),
        escaped=frozenset(escaped),
        loose=frozenset(loose),
        writes=tuple(sorted(set(writes))),
        tasks=tuple(sorted(set(tasks))),
        has_sync=has_sync,
        imbalance=tuple(sorted(set(imbalance))),
    )


# ---------------------------------------------------------------------------
# Global index: acquisition-order graph + wait/trigger matching
# ---------------------------------------------------------------------------

#: (rule id, path, line, col, message)
FindingRec = Tuple[str, str, int, int, str]


@dataclass(frozen=True)
class ConcIndex:
    """Whole-project concurrency verdicts, plain data (picklable)."""

    findings: Tuple[FindingRec, ...] = ()
    #: Tokens with at least one reachable trigger (diagnostics).
    triggered: FrozenSet[str] = frozenset()
    escaped: FrozenSet[str] = frozenset()

    @property
    def digest(self) -> str:
        blob = json.dumps(
            [list(f) for f in self.findings], sort_keys=True,
            separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def findings_for(self, path: str) -> List[Tuple[str, int, int, str]]:
        return [(rule, line, col, message)
                for rule, f_path, line, col, message in self.findings
                if f_path == path]


def _overlaps(a: WriteRec, b: WriteRec) -> bool:
    if a[0] != b[0] or len(a[1]) != len(b[1]):
        return False
    for start_a, count_a, start_b, count_b in zip(a[1], a[2], b[1], b[2]):
        if not (start_a < start_b + count_b
                and start_b < start_a + count_a):
            return False
    return True


def _region(write: WriteRec) -> str:
    return (f"[{','.join(map(str, write[1]))}"
            f")+({','.join(map(str, write[2]))})")


def build_conc_index(summaries: Mapping[str, object],
                     functions: Mapping[str, FunctionInfo]) -> ConcIndex:
    """Assemble the global graph and pre-compute RC601-RC604 findings.

    ``summaries`` maps qualname to anything carrying a ``.conc``
    :class:`ConcEffects`; ``functions`` supplies file paths."""
    effects: Dict[str, ConcEffects] = {}
    for qual, summary in summaries.items():
        conc = getattr(summary, "conc", None)
        if conc is not None and qual in functions:
            effects[qual] = conc

    path_of = {qual: functions[qual].path for qual in effects}
    escaped: Set[str] = set()
    loose: Set[str] = set()
    triggered: Set[str] = set()
    for conc in effects.values():
        escaped |= conc.escaped
        loose |= conc.loose
        for op in conc.ops:
            if op[0] == TRIGGER and _is_global(op[1]):
                triggered.add(op[1])

    findings: List[FindingRec] = []

    # -- RC601: acquisition-order cycles --------------------------------
    edges: Dict[str, Set[str]] = {}
    site_of: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
    for qual in sorted(effects):
        conc = effects[qual]
        for held, acquired, line, col in conc.pairs:
            if not (_is_global(held) and _is_global(acquired)):
                continue
            if held == acquired:
                continue
            edges.setdefault(held, set()).add(acquired)
            edges.setdefault(acquired, set())
            site = (path_of[qual], line, col)
            if (held, acquired) not in site_of \
                    or site < site_of[(held, acquired)]:
                site_of[(held, acquired)] = site
    for component in strongly_connected_components(edges):
        if len(component) < 2:
            continue
        members = set(component)
        cycle = " -> ".join(display_token(t) for t in sorted(members))
        for held in sorted(members):
            for acquired in sorted(edges.get(held, ())):
                if acquired not in members:
                    continue
                path, line, col = site_of[(held, acquired)]
                findings.append((
                    "RC601", path, line, col,
                    f"{display_token(acquired)} is acquired while "
                    f"{display_token(held)} is held, closing an "
                    f"acquisition-order cycle ({cycle}); concurrent "
                    f"callers can deadlock"))

    # -- RC602: blocking wait with no reachable trigger -----------------
    seen_waits: Set[Tuple[str, int, int, str]] = set()
    for qual in sorted(effects):
        conc = effects[qual]
        path = path_of[qual]
        for opclass, token, kind, line, col, direct in conc.ops:
            if opclass != WAIT or kind not in _WAIT_KINDS:
                continue
            if not _is_global(token):
                continue  # parameter waits are checked via substitution
            if token.startswith("C:") and not direct:
                continue  # the defining method already reports it
            if token in triggered or token in escaped:
                continue
            if any(m in loose for m in _TRIGGER_METHODS[kind]):
                continue  # a trigger may reach it through opaque code
            key = (path, line, col, token)
            if key in seen_waits:
                continue
            seen_waits.add(key)
            methods = "/".join(_TRIGGER_METHODS[kind])
            findings.append((
                "RC602", path, line, col,
                f"blocking wait on {kind} {display_token(token)!r} has "
                f"no reachable trigger ({methods} is never called on "
                f"it); the waiter sleeps forever"))

    # -- RC603: conflicting region writes without happens-before --------
    for qual in sorted(effects):
        conc = effects[qual]
        path = path_of[qual]
        for i, first in enumerate(conc.tasks):
            for second in conc.tasks[i + 1:]:
                if first[4] or second[4]:
                    continue  # some synchronization exists in a task
                hit = next(
                    ((w1, w2) for w1 in first[3] for w2 in second[3]
                     if _overlaps(w1, w2)), None)
                if hit is None:
                    continue
                w1, w2 = hit
                findings.append((
                    "RC603", path, second[0], second[1],
                    f"concurrently spawned tasks "
                    f"({first[2].rsplit('.', 1)[-1]} and "
                    f"{second[2].rsplit('.', 1)[-1]}) write overlapping "
                    f"regions {_region(w1)} and {_region(w2)} of "
                    f"{display_token(w1[0])} with no happens-before "
                    f"edge between them"))

    # -- RC604: claim/release imbalance ---------------------------------
    for qual in sorted(effects):
        conc = effects[qual]
        path = path_of[qual]
        for token, kind, line, col in conc.imbalance:
            if token in escaped:
                continue
            findings.append((
                "RC604", path, line, col,
                f"{kind} {display_token(token)!r} is released on some "
                f"paths but still held on others at function exit "
                f"(an exception path can leak the claim)"))

    return ConcIndex(
        findings=tuple(sorted(set(findings))),
        triggered=frozenset(triggered),
        escaped=frozenset(escaped),
    )
