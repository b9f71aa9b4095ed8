"""Per-function effect summaries for the interprocedural tier.

Each project function gets a :class:`FunctionSummary` — a tiny, plain
abstraction of what it does to its arguments and what its return value
carries — computed by running the *existing* flow-tier transfer
functions over the function's CFG with parameters seeded abstractly:

- typestate effects use :mod:`repro.check.rules.asyncstate`'s transfer
  with every parameter seeded to the ``arg`` token family, so the exit
  environment directly reads off "waits param 1 on all paths" /
  "closes param 0" / "escapes param 2";
- return dimension uses :mod:`repro.check.rules.units`' inference on
  every ``return`` expression (an explicit annotation wins);
- determinism taint runs a small forward taint analysis whose sources
  are the RC101/RC102 wall-clock/RNG tables and whose ``param:<i>``
  tokens record pass-through, so taint composes across call chains.

Summaries for functions in one strongly connected component (mutual
recursion) are iterated to a fixpoint from an optimistic seed; if the
component does not converge within a small bound — or any member blows
the :class:`~repro.check.dataflow.FixpointDiverged` budget — every
member degrades to the conservative summary (all parameters escaped,
nothing known about the return), which is exactly the old escape hedge.

The caller-facing objects are :class:`InterContext` (one run of any
tier: trees, index, call graph, summaries) and :class:`FileInter` (one
file's ``ast.Call -> summary`` view, keyed by node identity so it must
be built over the same tree the rules walk).  Generator and ``async``
callees only apply their effects when the call is *driven* (``yield
from`` / ``await``) — a bare call just creates the generator object.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, FrozenSet, List, Mapping, Optional, Set, Tuple)

from repro.check.astutil import dotted
from repro.check.callgraph import (
    FileResolver,
    FunctionInfo,
    ProjectIndex,
    build_call_graph,
    build_index,
    collect_function_nodes,
    module_name_for_path,
    strongly_connected_components,
)
from repro.check.cfg import CFG, CFGNode, FuncDef, memo_cfg
from repro.check.concurrency import (
    ConcEffects,
    ConcIndex,
    EMPTY_CONC,
    analyze_function,
    collect_prim_attrs,
    conservative_conc,
    optimistic_conc,
)
from repro.check.dataflow import FixpointDiverged, ForwardAnalysis, solve
from repro.check.domains import UNBOUND, UNBOUND_ONLY, Env
from repro.check.nodetable import NodeTable
from repro.check.rules.asyncstate import (
    ARG,
    ARG_CLOSED,
    ARG_ESCAPED,
    ARG_FINAL,
    ARG_PENDING,
    ARG_WAITED,
    ES_PENDING,
    ES_WAITED,
    FILE_CLOSED,
    VOL_FINAL,
    _apply as _typestate_apply,
    _creation_states,
)
from repro.check.rules.determinism import (
    _GLOBAL_NP_RANDOM_FNS,
    _GLOBAL_RANDOM_FNS,
    _WALL_CLOCK_CALLS,
    _WALL_CLOCK_SUFFIXES,
)
from repro.check.rules.units import (
    _UnitsAnalysis,
    _annotation_dim,
    _definite,
    _dims,
)

__all__ = [
    "FileInter",
    "FunctionSummary",
    "InterContext",
    "TAINT_CLOCK",
    "TAINT_RNG",
    "compute_summaries",
    "conservative_summary",
    "taint_states",
]

#: Taint alphabet: concrete sources plus per-parameter pass-through.
TAINT_CLOCK = "clock"
TAINT_RNG = "rng"
PARAM = "param:"  # + parameter index

_ARG_TO_REAL = {
    ARG_WAITED: ES_WAITED,
    ARG_PENDING: ES_PENDING,
    ARG_CLOSED: FILE_CLOSED,
    ARG_FINAL: VOL_FINAL,
}

_TRACKED_PREFIXES = ("es.", "file.", "vol.")


# ---------------------------------------------------------------------------
# Summary record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSummary:
    """What one function does to its arguments / returns to its caller."""

    qualname: str
    params: Tuple[str, ...]
    #: Per-parameter effect token sets (``arg`` family; may-effects are
    #: unions, ``{arg.waited}`` alone means "waited on all paths").
    param_effects: Tuple[FrozenSet[str], ...]
    #: Typestates the return value carries (real-kind alphabet, may
    #: include ``UNBOUND`` for "untracked on some path"); ``None`` means
    #: nothing known.
    return_states: Optional[FrozenSet[str]]
    #: The return value may alias a parameter (``return es``); callers
    #: must not track it as a fresh object.
    return_from_param: bool
    #: Definite dimension of the return value (``bytes``/``seconds``/
    #: ``rate``) or ``None``.
    return_dim: Optional[str]
    #: Determinism taint of the return value: ``clock``/``rng`` plus
    #: ``param:<i>`` pass-through tokens.
    return_taint: FrozenSet[str]
    #: Concurrency effect set (lock/wait/trigger ops, acquisition
    #: pairs, spawned-task writes) for the ``--concurrency`` tier.
    conc: ConcEffects = EMPTY_CONC

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "params": list(self.params),
            "param_effects": [sorted(e) for e in self.param_effects],
            "return_states": (sorted(self.return_states)
                              if self.return_states is not None else None),
            "return_from_param": self.return_from_param,
            "return_dim": self.return_dim,
            "return_taint": sorted(self.return_taint),
            "conc": self.conc.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FunctionSummary":
        states = data["return_states"]
        conc_data = data.get("conc")
        return cls(
            qualname=str(data["qualname"]),
            params=tuple(data["params"]),  # type: ignore[arg-type]
            param_effects=tuple(
                frozenset(e)  # type: ignore[arg-type]
                for e in data["param_effects"]),  # type: ignore[union-attr]
            return_states=(frozenset(states)  # type: ignore[arg-type]
                           if states is not None else None),
            return_from_param=bool(data["return_from_param"]),
            return_dim=(str(data["return_dim"])
                        if data["return_dim"] is not None else None),
            return_taint=frozenset(
                data["return_taint"]),  # type: ignore[arg-type]
            conc=(ConcEffects.from_dict(conc_data)  # type: ignore[arg-type]
                  if conc_data is not None else EMPTY_CONC),
        )

    @property
    def digest(self) -> str:
        """Stable content hash (cache keys, invalidation).  Concurrency
        effects enter site-free so a pure line shift in a callee does
        not re-key (and re-lint) every caller."""
        data = self.to_dict()
        data["conc"] = self.conc.to_dict(sites=False)
        blob = json.dumps(data, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def conservative_summary(info: FunctionInfo) -> FunctionSummary:
    """The escape hedge as a summary: every parameter escapes."""
    return FunctionSummary(
        qualname=info.qualname, params=info.params,
        param_effects=tuple(frozenset({ARG_ESCAPED}) for _ in info.params),
        return_states=None, return_from_param=False,
        return_dim=None, return_taint=frozenset(),
        conc=conservative_conc(info))


def _optimistic_summary(info: FunctionInfo) -> FunctionSummary:
    """Fixpoint seed inside recursive SCCs: assume no effects."""
    return FunctionSummary(
        qualname=info.qualname, params=info.params,
        param_effects=tuple(frozenset({ARG}) for _ in info.params),
        return_states=None, return_from_param=False,
        return_dim=None, return_taint=frozenset(),
        conc=optimistic_conc(info))


# ---------------------------------------------------------------------------
# Determinism taint
# ---------------------------------------------------------------------------

_RNG_GLOBAL_CALLS = (
    {f"random.{fn}" for fn in _GLOBAL_RANDOM_FNS}
    | {f"np.random.{fn}" for fn in _GLOBAL_NP_RANDOM_FNS}
    | {f"numpy.random.{fn}" for fn in _GLOBAL_NP_RANDOM_FNS}
)
_CLOCK_SUFFIXES = tuple("." + s for s in _WALL_CLOCK_SUFFIXES)


def _call_source_taint(call: ast.Call) -> FrozenSet[str]:
    """Taint introduced directly by one call (RC101/RC102 tables)."""
    name = dotted(call.func)
    if name is None:
        return frozenset()
    out: Set[str] = set()
    if (name in _WALL_CLOCK_CALLS or name.startswith("secrets.")
            or name in _WALL_CLOCK_SUFFIXES
            or name.endswith(_CLOCK_SUFFIXES)):
        out.add(TAINT_CLOCK)
    if name in _RNG_GLOBAL_CALLS:
        out.add(TAINT_RNG)
    elif name == "random.Random" and not call.args:
        out.add(TAINT_RNG)
    elif name in ("np.random.default_rng", "numpy.random.default_rng") \
            and not call.args:
        out.add(TAINT_RNG)
    return frozenset(out)


def _sub_exprs(table: NodeTable, k: int) -> List[int]:
    """Positions of the immediate child expressions of the node at
    ``k``, looking through non-expr wrappers (keywords, comprehension
    clauses)."""
    out: List[int] = []
    for child in table.children(k):
        if isinstance(table.nodes[child], ast.expr):
            out.append(child)
        else:
            out.extend(_sub_exprs(table, child))
    return out


def _expr_taint(table: NodeTable, node: CFGNode, expr: ast.expr, env: Env,
                inter: "FileInter") -> FrozenSet[str]:
    """Taint tokens ``expr`` (evaluated at ``node``, a node of a graph
    over ``table``) may carry under ``env``."""
    return _taint_at(table, table.find(expr, node.pos), env, inter)


def _taint_at(table: NodeTable, k: int, env: Env,
              inter: "FileInter") -> FrozenSet[str]:
    expr = table.nodes[k]
    if isinstance(expr, ast.Name):
        return (env.get(expr.id) or frozenset()) - UNBOUND_ONLY
    if isinstance(expr, (ast.Lambda, ast.Constant)):
        return frozenset()
    if isinstance(expr, ast.Call):
        out: Set[str] = set(_call_source_taint(expr))
        summary = inter.summary_for_call(expr)
        if summary is not None:
            mapping = inter.param_index_map(expr)
            for token in summary.return_taint:
                if token.startswith(PARAM):
                    idx = int(token[len(PARAM):])
                    if mapping is not None and idx in mapping:
                        arg = table.find(mapping[idx], k)
                        out |= _taint_at(table, arg, env, inter)
                    else:
                        for sub in _sub_exprs(table, k):
                            out |= _taint_at(table, sub, env, inter)
                else:
                    out.add(token)
        else:
            # Unresolved call: taint flows through arbitrarily.
            for sub in _sub_exprs(table, k):
                out |= _taint_at(table, sub, env, inter)
        return frozenset(out)
    result: FrozenSet[str] = frozenset()
    for sub in _sub_exprs(table, k):
        result |= _taint_at(table, sub, env, inter)
    return result


def _bind(env: Env, target: ast.expr, taint: FrozenSet[str]) -> Env:
    """``env`` with the names ``target`` binds carrying ``taint``."""
    if isinstance(target, ast.Name):
        if taint:
            return env.set(target.id, taint)
        return env.remove(target.id)
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            env = _bind(env, element, taint)
    return env


def _taint_apply(table: NodeTable, node: CFGNode, env: Env,
                 inter: "FileInter") -> Env:
    """Forward taint transfer for one CFG node."""
    stmt = node.ast_node
    if stmt is None:
        return env
    out = env
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
            and stmt.value is not None:
        taint = _expr_taint(table, node, stmt.value, env, inter)
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            out = _bind(out, target, taint)
    elif isinstance(stmt, ast.AugAssign):
        taint = _expr_taint(table, node, stmt.value, env, inter)
        if isinstance(stmt.target, ast.Name):
            existing = (env.get(stmt.target.id) or frozenset()) \
                - UNBOUND_ONLY
            out = _bind(out, stmt.target, existing | taint)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        out = _bind(out, stmt.target,
                    _expr_taint(table, node, stmt.iter, env, inter))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                out = _bind(out, item.optional_vars,
                            _expr_taint(table, node, item.context_expr, env,
                                        inter))
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out = out.remove(target.id)
    elif isinstance(stmt, ast.excepthandler) and stmt.name:
        out = out.remove(stmt.name)
    return out


class _TaintAnalysis(ForwardAnalysis):
    """Parameters seeded ``param:<i>`` so pass-through is visible."""

    def __init__(self, inter: "FileInter") -> None:
        self.inter = inter

    def initial(self, cfg: CFG) -> Env:
        env = Env()
        args = cfg.func.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        for i, arg in enumerate(named):
            env = env.set(arg.arg, frozenset({f"{PARAM}{i}"}))
        return env

    def transfer(self, cfg: CFG, node: CFGNode, env: Env) -> Env:
        return _taint_apply(cfg.table, node, env, self.inter)


def taint_states(cfg: CFG,
                 inter: "FileInter") -> Dict[int, Env]:
    """Solve (and memoize) the taint analysis for one function."""
    cached = getattr(cfg, "_taint", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    in_states = solve(cfg, _TaintAnalysis(inter))
    cfg._taint = in_states  # type: ignore[attr-defined]
    return in_states


# ---------------------------------------------------------------------------
# Typestate / units abstraction
# ---------------------------------------------------------------------------

class _SummaryTypestate(ForwardAnalysis):
    """The asyncstate transfer with parameters seeded to ``arg``."""

    def __init__(self, inter: "FileInter") -> None:
        self.inter = inter

    def initial(self, cfg: CFG) -> Env:
        env = Env()
        args = cfg.func.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        for arg in named:
            env = env.set(arg.arg, frozenset({ARG}))
        return env

    def transfer(self, cfg: CFG, node: CFGNode, env: Env) -> Env:
        return _typestate_apply(cfg.table, node, env, report=None,
                                inter=self.inter)


def _abstract_param(states: Optional[FrozenSet[str]]) -> FrozenSet[str]:
    """Exit-state of one parameter -> effect token set."""
    if states is None:
        # Rebound/deleted on every path after a possible escape; the
        # history is gone, so stay conservative.
        return frozenset({ARG_ESCAPED})
    out: Set[str] = set()
    for s in states:
        if s == ARG or s.startswith("arg."):
            out.add(s)
        elif s == UNBOUND:
            out.add(ARG_ESCAPED)  # rebound on some path: history lost
        else:
            out.add(ARG_ESCAPED)  # real-kind/escaped: unknown provenance
    return frozenset(out) if out else frozenset({ARG_ESCAPED})


def _return_value_states(
        value: Optional[ast.expr], env: Env,
        inter: "FileInter"
) -> Tuple[Optional[FrozenSet[str]], bool]:
    """``(states, from_param)`` one return expression contributes."""
    if value is None:
        return None, False
    driven = isinstance(value, (ast.Await, ast.YieldFrom))
    inner = value.value if driven else value
    if isinstance(inner, ast.Name):
        states = env.get(inner.id)
        if not states:
            return None, False
        out: Set[str] = set()
        from_param = False
        for s in states:
            if s in _ARG_TO_REAL:
                out.add(_ARG_TO_REAL[s])
                from_param = True
            elif s == ARG:
                from_param = True
            elif s == UNBOUND:
                out.add(UNBOUND)
            elif s.startswith(_TRACKED_PREFIXES):
                out.add(s)
            else:
                return None, False  # escaped / result states: opaque
        if out - {UNBOUND}:
            return frozenset(out), from_param
        return None, from_param
    created = _creation_states(value)
    if created is not None:
        return created, False
    if isinstance(inner, ast.Call):
        states = inter.return_states_for_call(inner, driven=driven)
        if states is not None:
            # Transitive: the callee's own from_param already collapsed
            # its states to None, so reaching here means a fresh object.
            return states, False
    return None, False


def _abstract_returns(
        cfg: CFG, in_states: Dict[int, Env],
        inter: "FileInter"
) -> Tuple[Optional[FrozenSet[str]], bool]:
    """Join of every return site, ``UNBOUND`` for untracked paths."""
    rets: Set[str] = set()
    from_param = False
    for node in cfg.stmt_nodes():
        stmt = node.ast_node
        if not isinstance(stmt, ast.Return):
            continue
        env = in_states.get(node.index)
        if env is None:
            continue  # unreachable
        states, via_param = _return_value_states(stmt.value, env, inter)
        from_param = from_param or via_param
        if states is None:
            rets.add(UNBOUND)
        else:
            rets.update(states)
    exit_node = cfg.nodes[cfg.exit]
    for pred in exit_node.preds:
        pred_stmt = cfg.nodes[pred].ast_node
        if isinstance(pred_stmt, (ast.Return, ast.Raise)):
            continue
        # Implicit ``return None`` fall-through (or a finally clone on
        # the return path, indistinguishable here): value may be
        # untracked.
        rets.add(UNBOUND)
        break
    if not rets - {UNBOUND}:
        return None, from_param
    return frozenset(rets), from_param


def _return_dim(func: FuncDef, cfg: CFG,
                inter: "FileInter") -> Optional[str]:
    """Definite dimension of every return value, if they agree."""
    annotated = _annotation_dim(func.returns)
    if annotated is not None:
        return annotated
    try:
        in_states = solve(cfg, _UnitsAnalysis(cfg, inter))
    except FixpointDiverged:
        return None
    dims: Set[str] = set()
    saw_return = False
    for node in cfg.stmt_nodes():
        stmt = node.ast_node
        if not isinstance(stmt, ast.Return):
            continue
        env = in_states.get(node.index)
        if env is None:
            continue
        saw_return = True
        if stmt.value is None:
            return None
        definite = _definite(_dims(stmt.value, env, inter))
        if definite is None:
            return None
        dims.add(definite)
    if not saw_return:
        return None
    exit_node = cfg.nodes[cfg.exit]
    for pred in exit_node.preds:
        pred_stmt = cfg.nodes[pred].ast_node
        if not isinstance(pred_stmt, (ast.Return, ast.Raise)):
            return None  # implicit None fall-through
    if len(dims) == 1:
        return next(iter(dims))
    return None


def _return_taint(cfg: CFG,
                  inter: "FileInter") -> FrozenSet[str]:
    """Union of the taint of every returned expression."""
    try:
        in_states = solve(cfg, _TaintAnalysis(inter))
    except FixpointDiverged:
        return frozenset()
    out: Set[str] = set()
    for node in cfg.stmt_nodes():
        stmt = node.ast_node
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        env = in_states.get(node.index)
        if env is not None:
            out |= _expr_taint(cfg.table, node, stmt.value, env, inter)
    return frozenset(out)


def summarize_function(info: FunctionInfo, func: FuncDef,
                       view: "FileInter") -> FunctionSummary:
    """One summary from the typestate, units, taint and lock solves over
    the function's CFG (the view's shared graph)."""
    cfg = memo_cfg(view.cfgs, func, view.table)
    try:
        ts_in = solve(cfg, _SummaryTypestate(view))
    except FixpointDiverged:
        return conservative_summary(info)
    exit_env = ts_in.get(cfg.exit)
    if exit_env is None:
        # Exit unreachable (infinite loop): callers never resume, so
        # "no effect" is vacuously accurate.
        param_effects: Tuple[FrozenSet[str], ...] = tuple(
            frozenset({ARG}) for _ in info.params)
        return_states: Optional[FrozenSet[str]] = None
        from_param = False
    else:
        param_effects = tuple(
            _abstract_param(exit_env.get(p)) for p in info.params)
        return_states, from_param = _abstract_returns(cfg, ts_in, view)
    return FunctionSummary(
        qualname=info.qualname, params=info.params,
        param_effects=param_effects,
        return_states=return_states, return_from_param=from_param,
        return_dim=_return_dim(func, cfg, view),
        return_taint=_return_taint(cfg, view),
        conc=analyze_function(info, func, view, cfg))


# ---------------------------------------------------------------------------
# Per-file view and project context
# ---------------------------------------------------------------------------

class FileInter:
    """One file's view of the run: ``ast.Call`` (by identity) to callee
    resolution, summaries and argument->parameter mapping.

    Built by :meth:`InterContext.own_view` over the context's own tree
    — the resolver's maps (and :attr:`cfgs`) are keyed by ``id(node)``.
    Every tier's rules get one; with no summaries (the flat and flow
    tiers) every call is opaque, which is the escape hedge.  The view
    points at the context; the context keeps no views, so a finished
    run is freed by reference counting.
    """

    def __init__(self, ctx: "InterContext", path: str) -> None:
        self.path = path
        self.summaries = ctx.summaries
        self.table: NodeTable = ctx.tables[path]
        self._ctx = ctx
        #: ``id(def node) -> CFG`` memo, shared with the whole context.
        self.cfgs: Dict[int, CFG] = ctx.cfgs

    @cached_property
    def index(self) -> ProjectIndex:
        return self._ctx.index

    @cached_property
    def resolver(self) -> FileResolver:
        return self._ctx.resolver(self.path)

    @property
    def prim_attrs(self) -> Dict[str, str]:
        """Project-wide ``"<class>.<attr>" -> kind`` primitive map."""
        return self._ctx.prim_attrs

    @property
    def conc(self) -> Optional["ConcIndex"]:
        """Whole-project concurrency verdicts, when assembled."""
        return self._ctx.conc

    def resolve(self, call: ast.Call) -> Optional[str]:
        """Callee qualname, or ``None`` for opaque calls: every call in a
        run with no summaries (yet), so flow runs build no resolver."""
        if not self.summaries:
            return None
        return self.resolver.calls.get(id(call))

    def function_for_call(self, call: ast.Call) -> Optional[FunctionInfo]:
        qual = self.resolve(call)
        return self.index.functions.get(qual) if qual is not None else None

    def summary_for_call(self, call: ast.Call) -> Optional[FunctionSummary]:
        qual = self.resolve(call)
        return self.summaries.get(qual) if qual is not None else None

    def param_index_map(self,
                        call: ast.Call) -> Optional[Dict[int, ast.expr]]:
        """Parameter index -> argument expression, or ``None`` when the
        mapping cannot be established (``*args`` spread, ``**kw``,
        unknown keyword, arity mismatch)."""
        qual = self.resolve(call)
        if qual is None:
            return None
        info = self.index.functions.get(qual)
        if info is None:
            return None
        receiver = self.resolver.receivers.get(id(call), "plain")
        mapping: Dict[int, ast.expr] = {}
        offset = 0
        if info.kind == "method":
            if receiver == "instance":
                if isinstance(call.func, ast.Attribute):
                    mapping[0] = call.func.value
                offset = 1
        elif info.kind == "classmethod":
            offset = 1  # ``cls`` is bound either way; no expression maps
        index = offset
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                return None
            if index < len(info.params):
                mapping[index] = arg
            elif not info.has_vararg:
                return None
            index += 1
        for kw in call.keywords:
            if kw.arg is None:
                return None  # ``**kwargs`` spread
            if kw.arg in info.params:
                mapping[info.params.index(kw.arg)] = kw.value
            elif not info.has_kwarg:
                return None
        return mapping

    def call_effects(
            self, call: ast.Call, driven: bool = False
    ) -> Optional[List[Tuple[ast.expr, FrozenSet[str]]]]:
        """``(argument expression, effect token set)`` per argument of a
        resolved call, receiver included; ``None`` falls back to the
        escape hedge.  Arguments that map to no parameter (``*args``
        overflow) escape."""
        qual = self.resolve(call)
        if qual is None:
            return None
        info = self.index.functions.get(qual)
        summary = self.summaries.get(qual)
        if info is None or summary is None:
            return None
        if info.deferred and not driven:
            return None  # bare call only creates the generator/coroutine
        mapping = self.param_index_map(call)
        if mapping is None:
            return None
        index_of_expr = {id(expr): idx for idx, expr in mapping.items()}
        exprs: List[ast.expr] = []
        if 0 in mapping and isinstance(call.func, ast.Attribute) \
                and mapping[0] is call.func.value:
            exprs.append(call.func.value)
        exprs.extend(a for a in call.args)
        exprs.extend(kw.value for kw in call.keywords)
        pairs: List[Tuple[ast.expr, FrozenSet[str]]] = []
        for expr in exprs:
            idx = index_of_expr.get(id(expr))
            if idx is not None and idx < len(summary.param_effects):
                pairs.append((expr, summary.param_effects[idx]))
            else:
                pairs.append((expr, frozenset({ARG_ESCAPED})))
        return pairs

    def return_states_for_call(
            self, call: ast.Call,
            driven: bool = False) -> Optional[FrozenSet[str]]:
        """Typestates the call's value carries into the caller."""
        qual = self.resolve(call)
        if qual is None:
            return None
        info = self.index.functions.get(qual)
        summary = self.summaries.get(qual)
        if info is None or summary is None:
            return None
        if info.deferred and not driven:
            return None
        if summary.return_from_param:
            # The value may alias an argument the caller already
            # tracks; binding it fresh would double-count the object.
            return None
        return summary.return_states

    def return_dim_for_call(self, call: ast.Call) -> Optional[str]:
        """Definite dimension of the call's value, if summarized."""
        qual = self.resolve(call)
        if qual is None:
            return None
        info = self.index.functions.get(qual)
        summary = self.summaries.get(qual)
        if info is None or summary is None or info.deferred:
            return None
        return summary.return_dim

    def callee_in_sim(self, qual: str) -> bool:
        """Whether ``qual`` is defined in a determinism-critical path."""
        from repro.check.rules import SIM_PATHS
        info = self.index.functions.get(qual)
        return info is not None and any(
            fragment in info.path for fragment in SIM_PATHS)


class InterContext:
    """One ``repro check`` run's shared state, for every tier.

    It owns the run's per-file and per-function artifacts, each built
    once and shared by every pass: one :class:`NodeTable` (the file's
    only traversal, which keeps the nodes, hence the ids every per-run
    map is keyed by, alive) and one :class:`FileResolver` per file, one
    CFG per function node.  Only the tables are built up front, as the
    flat tier reads nothing else; the rest is built on first use.  The
    interprocedural tier fills :attr:`summaries`, the concurrency tier
    :attr:`conc`.  Pool workers inherit the context through ``fork``.
    The CFGs carry only syntax facts while summaries are computed; the
    rule-phase solve caches (``_typestate``, ``_units``, ``_taint``)
    land on them once summaries are final.
    """

    def __init__(self, sources: Mapping[str, str]) -> None:
        """Context over a ``{path: source}`` project; a file that does
        not parse is left out (``lint_source`` reports it as RC000)."""
        self.tables: Dict[str, NodeTable] = {}
        for path in sorted(sources):
            try:
                self.tables[path] = NodeTable(ast.parse(sources[path]))
            except SyntaxError:
                continue
        self.summaries: Dict[str, FunctionSummary] = {}
        self.conc: Optional[ConcIndex] = None
        self.cfgs: Dict[int, CFG] = {}
        self._resolvers: Dict[str, FileResolver] = {}

    @cached_property
    def index(self) -> ProjectIndex:
        return build_index(self.tables)

    @cached_property
    def prim_attrs(self) -> Dict[str, str]:
        return collect_prim_attrs(self.tables)

    @cached_property
    def file_functions(self) -> Dict[str, Dict[str, FuncDef]]:
        """Path -> ``qualname -> def node``."""
        return {path: collect_function_nodes(table,
                                             module_name_for_path(path))
                for path, table in self.tables.items()}

    @cached_property
    def nodes(self) -> Dict[str, FuncDef]:
        """Qualname -> def node, over every file."""
        return {qual: func for funcs in self.file_functions.values()
                for qual, func in funcs.items()}

    @cached_property
    def edges(self) -> Dict[str, Set[str]]:
        """The function-level call graph."""
        return build_call_graph(
            self.index, {path: self.resolver(path) for path in self.tables},
            self.file_functions)

    def resolver(self, path: str) -> FileResolver:
        resolver = self._resolvers.get(path)
        if resolver is None:
            resolver = FileResolver(self.index, path, self.tables[path])
            self._resolvers[path] = resolver
        return resolver

    def own_view(self, path: str) -> FileInter:
        """View over the context's own parse of ``path`` (a new, cheap
        object each call: the shared state lives on the context)."""
        return FileInter(self, path)


def compute_summaries(ctx: InterContext,
                      only: Optional[Set[str]] = None) -> None:
    """Fill ``ctx.summaries`` bottom-up over the SCC condensation.

    With ``only``, components disjoint from it are skipped — their
    summaries must already be present (loaded from the cache).
    """

    def summarize(qual: str) -> FunctionSummary:
        info = ctx.index.functions[qual]
        func = ctx.nodes.get(qual)
        if func is None:
            return conservative_summary(info)
        return summarize_function(info, func, ctx.own_view(info.path))

    for component in strongly_connected_components(ctx.edges):
        members = sorted(q for q in component if q in ctx.index.functions)
        if not members:
            continue
        if only is not None and not any(q in only for q in members):
            continue
        recursive = len(members) > 1 or any(
            members[0] in ctx.edges.get(members[0], ()) for _ in (0,))
        if not recursive:
            ctx.summaries[members[0]] = summarize(members[0])
            continue
        for qual in members:
            ctx.summaries[qual] = _optimistic_summary(
                ctx.index.functions[qual])
        budget = 4 + 2 * len(members)
        converged = False
        for _ in range(budget):
            changed = False
            for qual in members:
                new = summarize(qual)
                if new != ctx.summaries[qual]:
                    ctx.summaries[qual] = new
                    changed = True
            if not changed:
                converged = True
                break
        if not converged:
            for qual in members:
                ctx.summaries[qual] = conservative_summary(
                    ctx.index.functions[qual])
