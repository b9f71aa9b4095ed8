"""RC4xx: async-I/O API typestate (flow tier).

The paper's async VOL exposes a strict usage protocol (§III-B): every
operation inserted into an H5ES event set must be waited before its
result is observed or the carrying file is closed, files close exactly
once, and an :class:`~repro.hdf5.async_vol.AsyncVOL` must be finalized
on every path so its background worker drains (the static twin of the
runtime RT204 finding).  These rules prove the protocol *statically*
over each function body by running a typestate analysis on its CFG.

Tracked objects and their alphabets (see :mod:`repro.check.domains`;
values are per-variable powersets, so the lattice height is bounded):

========  =====================================================
kind      states
========  =====================================================
EventSet  ``es.new`` -> ``es.pending`` (insertion via ``es=``
          keyword or ``.add``) -> ``es.waited`` (``.wait()``)
file      ``file.open`` (``lib.create``/``lib.open``) ->
          ``file.closed`` (``.close()``)
AsyncVOL  ``vol.live`` (constructor) -> ``vol.final``
          (``.finalize()``)
result    ``res.unready:<es>`` (``.read(..., es=<es>)``) ->
          ``res.ready`` (after ``<es>.wait()``)
========  =====================================================

Escape hedge: a tracked variable that is aliased, returned, stored
into a container/attribute, passed as a plain argument or captured by
a nested function moves to ``escaped`` and is never reported — some
other owner may complete the protocol.  This trades recall for a
zero-false-positive repo-wide gate.

Interprocedural tier (``--inter``): every :class:`LintContext` carries
a ``FileInter`` view (:mod:`repro.check.summaries`); once the run has
summaries, a handle passed to a *resolved* project function no longer
escapes — the callee's effect summary is applied instead
(``arg.waited`` on all paths means the handle comes back waited;
``arg.escaped`` falls back to the hedge), and a helper's summarized
return states seed the caller's binding, so ``es = make_reads(...)``
is tracked just like a local ``EventSet()``.
The same transfer doubles as the summary abstraction: parameters seeded
with the ``arg`` token family record what a function does to its
arguments (``arg`` untouched, ``arg.waited``/``arg.pending``/
``arg.closed``/``arg.final`` protocol transitions, ``arg.escaped``
unknown).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.check.astutil import dotted, target_names
from repro.check.cfg import CFG, CFGNode
from repro.check.dataflow import ForwardAnalysis, solve
from repro.check.domains import UNBOUND, Env
from repro.check.nodetable import NodeTable
from repro.check.rules import FlowRule, LintContext, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.summaries import FileInter

__all__ = ["RC401", "RC402", "RC403", "RC404"]

ESCAPED = "escaped"
ES_NEW, ES_PENDING, ES_WAITED = "es.new", "es.pending", "es.waited"
FILE_OPEN, FILE_CLOSED = "file.open", "file.closed"
VOL_LIVE, VOL_FINAL = "vol.live", "vol.final"
RES_READY = "res.ready"
RES_UNREADY = "res.unready:"  # + name of the carrying event set

#: Effect-summary token family: the states of a *parameter* whose kind
#: the callee does not know.  ``arg`` means untouched; the others mirror
#: the protocol transitions; ``arg.escaped`` means the callee did
#: something unanalyzable with it (the caller falls back to the hedge).
ARG = "arg"
ARG_WAITED = "arg.waited"
ARG_PENDING = "arg.pending"
ARG_CLOSED = "arg.closed"
ARG_FINAL = "arg.final"
ARG_ESCAPED = "arg.escaped"

Violation = Tuple[int, int, str]


def _is_arg(states: Optional[frozenset]) -> bool:
    """Whether ``states`` belong to the summary ``arg`` token family."""
    return bool(states) and any(
        s == ARG or s.startswith("arg.") for s in states)


def _apply_effects(states: frozenset, effects: frozenset) -> frozenset:
    """Caller-side application of a callee's parameter effect set.

    ``states`` is the handle's current typestate (real kind during
    linting, ``arg`` kind during nested summary computation); every
    effect token contributes the matching post-state, so a may-effect
    (``{arg, arg.waited}``) yields the union of both outcomes.
    """
    if not effects:
        return states
    arg_kind = _is_arg(states)
    out: set = set()
    for token in effects:
        if token == ARG:
            out |= set(states)
        elif token == ARG_WAITED:
            out.add(ARG_WAITED if arg_kind else ES_WAITED)
        elif token == ARG_PENDING:
            out.add(ARG_PENDING if arg_kind else ES_PENDING)
        elif token == ARG_CLOSED:
            out.add(ARG_CLOSED if arg_kind else FILE_CLOSED)
        elif token == ARG_FINAL:
            out.add(ARG_FINAL if arg_kind else VOL_FINAL)
        elif token == ARG_ESCAPED:
            out.add(ARG_ESCAPED if arg_kind else ESCAPED)
    return frozenset(out) if out else states


def _summary_return_states(value: ast.expr,
                           inter: "FileInter") -> Optional[frozenset]:
    """Typestates a resolved helper call's return value carries."""
    inner = value.value if isinstance(value, (ast.YieldFrom, ast.Await)) \
        else value
    if not isinstance(inner, ast.Call):
        return None
    driven = isinstance(value, (ast.YieldFrom, ast.Await))
    return inter.return_states_for_call(inner, driven=driven)


def _creation_states(value: ast.expr) -> Optional[frozenset]:
    """Typestate seeded by an assignment RHS, if it creates a tracked
    object (``EventSet(...)``, ``AsyncVOL(...)``, ``lib.create/open``)."""
    inner = value.value if isinstance(value, (ast.YieldFrom, ast.Await)) \
        else value
    if not isinstance(inner, ast.Call):
        return None
    name = dotted(inner.func)
    if name is not None:
        tail = name.rsplit(".", 1)[-1]
        if tail == "EventSet":
            return frozenset({ES_NEW})
        if tail == "AsyncVOL":
            return frozenset({VOL_LIVE})
    if (isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("create", "open")
            and len(inner.args) >= 3):
        # The library protocol: lib.create(ctx, path, vol) /
        # lib.open(ctx, path, vol).
        return frozenset({FILE_OPEN})
    return None


def _read_binding(value: ast.expr, env: Env) -> Optional[str]:
    """Name of the event set carrying an async ``.read`` result."""
    inner = value.value if isinstance(value, (ast.YieldFrom, ast.Await)) \
        else value
    if not (isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "read"):
        return None
    for kw in inner.keywords:
        if kw.arg == "es" and isinstance(kw.value, ast.Name):
            states = env.get(kw.value.id)
            if states and any(s.startswith("es.") for s in states):
                return kw.value.id
    return None


def _is_kind(states: Optional[frozenset], prefix: str) -> bool:
    return bool(states) and any(s.startswith(prefix) for s in states)


class _TypestateAnalysis(ForwardAnalysis):
    """Transfer function shared by the solve and report passes."""

    def __init__(self, inter: "FileInter") -> None:
        self.inter = inter

    def transfer(self, cfg: CFG, node: CFGNode, env: Env) -> Env:
        return _apply(cfg.table, node, env, report=None, inter=self.inter)

    def initial(self, cfg: CFG) -> Env:
        return Env()


def _apply(table: NodeTable, node: CFGNode, env: Env,
           report: Optional[List[Violation]],
           inter: "FileInter") -> Env:
    """OUT state of ``node`` (a node of a graph over ``table``);
    optionally record RC401/RC402/RC403."""
    stmt = node.ast_node
    if stmt is None:
        return env
    walked = node.walked
    line, col = node.line, node.col

    # -- report phase (reads the IN state only) ---------------------------
    if report is not None:
        store_targets = set()
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                store_targets.update(target_names(target))
        for sub in walked:
            if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                    and sub.id not in store_targets):
                states = env.get(sub.id)
                if states and any(s.startswith(RES_UNREADY)
                                  for s in states):
                    carrier = next(s for s in states
                                   if s.startswith(RES_UNREADY))
                    report.append((sub.lineno, sub.col_offset,
                                   f"result {sub.id!r} read from an event "
                                   f"set is used before "
                                   f"{carrier[len(RES_UNREADY):]}.wait()"))
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)):
                receiver = sub.func.value.id
                states = env.get(receiver)
                if states is None:
                    continue
                if sub.func.attr == "close" and _is_kind(states, "file."):
                    if states == frozenset({FILE_CLOSED}):
                        report.append((sub.lineno, sub.col_offset,
                                       f"file {receiver!r} is closed "
                                       f"twice"))
                    # Closing the file ends the epoch: no tracked event
                    # set may still carry un-waited operations.
                    for name, es_states in env.items():
                        if (ES_PENDING in es_states
                                and ESCAPED not in es_states):
                            report.append((
                                sub.lineno, sub.col_offset,
                                f"event set {name!r} has operations "
                                f"inserted but not waited when "
                                f"{receiver!r} is closed"))
                elif (sub.func.attr != "close"
                        and states == frozenset({FILE_CLOSED})):
                    report.append((sub.lineno, sub.col_offset,
                                   f"file {receiver!r} is used after "
                                   f"close ({sub.func.attr})"))

    # -- transition phase -------------------------------------------------
    out = env

    # Closure capture escapes everything the nested body reads.
    for name in node.captured:
        if name in out:
            out = out.set(name, frozenset(
                {ARG_ESCAPED if _is_arg(out.get(name)) else ESCAPED}))

    # Calls sitting directly under ``yield from``/``await`` are *driven*:
    # a generator/coroutine callee's body actually runs.
    driven_ids = {
        id(sub.value) for sub in walked
        if isinstance(sub, (ast.YieldFrom, ast.Await))
        and isinstance(sub.value, ast.Call)
    }

    for sub in walked:
        if not isinstance(sub, ast.Call):
            continue
        # Method calls drive the state machines; a tracked receiver is
        # owned by the machine, so summaries never touch it below.
        protocol_receiver: Optional[str] = None
        if (isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Name)):
            receiver = sub.func.value.id
            states = out.get(receiver)
            if states is not None and ESCAPED not in states:
                protocol_receiver = receiver
                arg_kind = _is_arg(states)
                if sub.func.attr == "wait" \
                        and (_is_kind(states, "es.") or arg_kind):
                    if arg_kind:
                        out = out.set(receiver, frozenset({ARG_WAITED}))
                    else:
                        out = out.set(receiver, frozenset({ES_WAITED}))
                        for name, other in list(out.items()):
                            if RES_UNREADY + receiver in other:
                                out = out.set(name, frozenset({RES_READY}))
                elif sub.func.attr == "add" \
                        and (_is_kind(states, "es.") or arg_kind):
                    out = out.set(receiver, frozenset(
                        {ARG_PENDING if arg_kind else ES_PENDING}))
                elif sub.func.attr == "close" \
                        and (_is_kind(states, "file.") or arg_kind):
                    out = out.set(receiver, frozenset(
                        {ARG_CLOSED if arg_kind else FILE_CLOSED}))
                elif sub.func.attr == "finalize" \
                        and (_is_kind(states, "vol.") or arg_kind):
                    out = out.set(receiver, frozenset(
                        {ARG_FINAL if arg_kind else VOL_FINAL}))
        pairs = inter.call_effects(sub, driven=id(sub) in driven_ids)
        if pairs is not None:
            # Resolved project call: apply the callee's parameter effect
            # summary to each mapped argument instead of escaping it.
            for arg_expr, effects in pairs:
                if isinstance(arg_expr, ast.Name):
                    name = arg_expr.id
                    if name == protocol_receiver:
                        continue
                    states = out.get(name)
                    if states is None or ESCAPED in states:
                        continue
                    new = _apply_effects(states, effects)
                    if new != states:
                        out = out.set(name, new)
                        if new == frozenset({ES_WAITED}):
                            for rname, other in list(out.items()):
                                if RES_UNREADY + name in other:
                                    out = out.set(
                                        rname, frozenset({RES_READY}))
                else:
                    for leaf in table.walk(table.find(arg_expr, node.pos)):
                        if isinstance(leaf, ast.Name) and leaf.id in out \
                                and leaf.id != protocol_receiver:
                            out = out.set(leaf.id, frozenset({ESCAPED}))
            continue
        # ``es=<name>`` keyword = operation insertion into that set.
        for kw in sub.keywords:
            if kw.arg == "es" and isinstance(kw.value, ast.Name):
                states = out.get(kw.value.id)
                if (states is not None and ESCAPED not in states
                        and (_is_kind(states, "es.") or _is_arg(states))):
                    out = out.set(kw.value.id, frozenset(
                        {ARG_PENDING if _is_arg(states) else ES_PENDING}))
        # Any other argument position escapes a tracked object.
        escaping: List[ast.expr] = list(sub.args)
        escaping.extend(kw.value for kw in sub.keywords if kw.arg != "es")
        for arg in escaping:
            for leaf in table.walk(table.find(arg, node.pos)):
                if isinstance(leaf, ast.Name) and leaf.id in out:
                    states = out.get(leaf.id)
                    out = out.set(leaf.id, frozenset(
                        {ARG_ESCAPED if _is_arg(states) else ESCAPED}))

    # Storing into attributes/subscripts/containers or returning escapes.
    escape_roots: List[ast.expr] = []
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        escape_roots.append(stmt.value)
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                escape_roots.append(stmt.value)
    # Names inside a summarized call are owned by that summary (an
    # arg-storing callee already yields ``arg.escaped``): returning
    # ``helper(es)`` hands out helper's return value, not ``es``.
    summarized: set = set()
    for root in escape_roots:
        start = table.find(root, node.pos)
        for sub in table.walk(start):
            if isinstance(sub, ast.Call) and inter.call_effects(
                    sub, driven=id(sub) in driven_ids) is not None:
                summarized.update(id(leaf) for leaf in table.walk(
                    table.find(sub, start)))
    for root in escape_roots:
        for leaf in table.walk(table.find(root, node.pos)):
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load) \
                    and leaf.id in out and id(leaf) not in summarized:
                states = out.get(leaf.id)
                out = out.set(leaf.id, frozenset(
                    {ARG_ESCAPED if _is_arg(states) else ESCAPED}))

    # Rebinding: creations seed fresh state, anything else untracks.
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        created = _creation_states(stmt.value)
        carrier = _read_binding(stmt.value, env)
        returned = _summary_return_states(stmt.value, inter)
        for target in targets:
            if isinstance(target, ast.Name):
                if created is not None:
                    out = out.set(target.id, created)
                elif carrier is not None:
                    out = out.set(target.id,
                                  frozenset({RES_UNREADY + carrier}))
                elif returned is not None:
                    out = out.set(target.id, returned)
                elif isinstance(stmt.value, ast.Name) \
                        and stmt.value.id in out:
                    # Aliasing: both names stop being tracked.
                    aliased = out.get(stmt.value.id)
                    out = out.set(stmt.value.id, frozenset(
                        {ARG_ESCAPED if _is_arg(aliased) else ESCAPED}))
                    out = out.remove(target.id)
                else:
                    out = out.remove(target.id)
            else:
                for name in target_names(target):
                    out = out.remove(name)
    elif isinstance(stmt, ast.AugAssign):
        for name in target_names(stmt.target):
            out = out.remove(name)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in target_names(stmt.target):
            out = out.remove(name)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in target_names(item.optional_vars):
                    out = out.remove(name)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            for name in target_names(target):
                out = out.remove(name)
    elif isinstance(stmt, ast.excepthandler) and stmt.name:
        out = out.remove(stmt.name)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        out = out.remove(stmt.name)

    return out


def _analyze(cfg: CFG, inter: "FileInter"
             ) -> Tuple[Dict[int, Env], List[Violation],
                        Dict[str, Tuple[int, int]],
                        Dict[str, bool]]:
    """Solve, then replay for findings, creation sites and vol usage.

    Cached on the CFG object: all four RC40x rules share one solve (the
    run's summaries are final before any rule runs, so the cache never
    mixes modes).
    """
    cached = getattr(cfg, "_typestate", None)
    if cached is not None:
        return cached
    in_states = solve(cfg, _TypestateAnalysis(inter))
    findings: List[Violation] = []
    created_at: Dict[str, Tuple[int, int]] = {}
    vol_used: Dict[str, bool] = {}
    for node in cfg.stmt_nodes():
        stmt = node.ast_node
        if isinstance(stmt, ast.Assign) and stmt.value is not None:
            states = _creation_states(stmt.value)
            if states is None:
                states = _summary_return_states(stmt.value, inter)
            if states is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        created_at.setdefault(
                            target.id, (stmt.lineno, stmt.col_offset))
        for sub in node.walked:
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)):
                vol_used[sub.func.value.id] = True
        if node.index in in_states:
            _apply(cfg.table, node, in_states[node.index],
                   report=findings, inter=inter)
    result = (in_states, findings, created_at, vol_used)
    cfg._typestate = result  # type: ignore[attr-defined]
    return result


def _site(created_at: Dict[str, Tuple[int, int]], name: str,
          cfg: CFG) -> Tuple[int, int]:
    return created_at.get(name, (cfg.func.lineno, cfg.func.col_offset))


@register
class RC401(FlowRule):
    id = "RC401"
    title = ("event set with inserted operations never waited before "
             "file close or function exit")
    hint = ("call 'yield from es.wait()' before closing the file or "
            "returning; un-waited operations have undefined completion "
            "state (paper SIII-B protocol)")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        in_states, findings, created_at, _ = _analyze(cfg, ctx.inter)
        for line, col, message in findings:
            if "not waited when" in message:
                yield line, col, message
        exit_env = in_states.get(cfg.exit)
        if exit_env is None:
            return
        for name, states in exit_env.items():
            if ES_PENDING in states and ESCAPED not in states:
                line, col = _site(created_at, name, cfg)
                yield (line, col,
                       f"event set {name!r} has operations inserted but "
                       f"is never waited before the function returns")


@register
class RC402(FlowRule):
    id = "RC402"
    title = "async read result used before es.wait() on its event set"
    hint = ("wait on the event set that carries the read before touching "
            "its result; until then the buffer contents are undefined")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        _, findings, _, _ = _analyze(cfg, ctx.inter)
        for line, col, message in findings:
            if "used before" in message:
                yield line, col, message


@register
class RC403(FlowRule):
    id = "RC403"
    title = "double close / use after close of a file or event set"
    hint = ("close each handle exactly once and do not touch it "
            "afterwards; re-open instead of reusing a closed handle")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        _, findings, _, _ = _analyze(cfg, ctx.inter)
        for line, col, message in findings:
            if "closed twice" in message or "after close" in message:
                yield line, col, message


@register
class RC404(FlowRule):
    id = "RC404"
    title = "AsyncVOL without a matching finalize() on all paths"
    hint = ("call 'yield from vol.finalize(ctx)' on every path out of "
            "the function (a try/finally suits), so the background "
            "worker drains (static twin of runtime RT204)")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        in_states, _, created_at, vol_used = _analyze(cfg, ctx.inter)
        exit_env = in_states.get(cfg.exit)
        if exit_env is None:
            return
        for name, states in exit_env.items():
            if ESCAPED in states or not _is_kind(states, "vol."):
                continue
            if VOL_LIVE in states and VOL_FINAL in states:
                line, col = _site(created_at, name, cfg)
                yield (line, col,
                       f"AsyncVOL {name!r} is finalized on some paths "
                       f"but not all")
            elif (states - {UNBOUND} == frozenset({VOL_LIVE})
                    and vol_used.get(name)):
                line, col = _site(created_at, name, cfg)
                yield (line, col,
                       f"AsyncVOL {name!r} is used but never finalized")
