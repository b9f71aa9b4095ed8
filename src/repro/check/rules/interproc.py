"""Summary-driven interprocedural rules (inter tier).

These rules run only under the ``inter`` flag (``repro check
--inter``), which also fills the run's summaries; the flat and flow
tiers do not select them.

- **RC405** — a helper whose summary says "returns an object carrying
  inserted-but-unwaited operations" is called and its value discarded:
  the caller just lost the only handle to the pending I/O.
- **RC110 / RC111** — cross-function determinism taint, the
  interprocedural twins of RC101/RC102: a value derived from the wall
  clock (RC110) or unseeded RNG (RC111) crosses a call boundary into a
  simulation path, either as a tainted argument to a sim-path function
  or as a summarized tainted return value consumed inside a sim path.
  The intraprocedural rules only see sources written *inside* sim
  files; these catch the helper-mediated flows.

The summary machinery is imported lazily inside the check methods:
this module is imported by the rules registry at package-import time,
and :mod:`repro.check.summaries` imports the rule modules for their
transfer functions — the lazy import breaks that cycle.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.check.cfg import CFG
from repro.check.dataflow import FixpointDiverged
from repro.check.domains import UNBOUND
from repro.check.rules import FlowRule, LintContext, register
from repro.check.rules.asyncstate import ES_NEW, ES_PENDING

__all__ = ["RC110", "RC111", "RC405"]

Violation = Tuple[int, int, str]

_PARAM = "param:"


@register
class RC405(FlowRule):
    id = "RC405"
    title = "helper's returned un-waited operation is discarded"
    hint = ("bind the helper's return value and wait its event set "
            "(or wait inside the helper); discarding it loses the only "
            "handle to the pending operations")
    scope = "repo"
    tier = "inter"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        inter = ctx.inter
        for node in cfg.stmt_nodes():
            stmt = node.ast_node
            if not isinstance(stmt, ast.Expr):
                continue
            value = stmt.value
            driven = isinstance(value, (ast.Await, ast.YieldFrom))
            inner = value.value if driven else value  # type: ignore[attr-defined]
            if not isinstance(inner, ast.Call):
                continue
            states = inter.return_states_for_call(inner, driven=driven)
            if states is None or UNBOUND in states:
                continue
            if ES_PENDING in states and states <= {ES_PENDING, ES_NEW}:
                qual = inter.resolve(inner)
                yield (stmt.lineno, stmt.col_offset,
                       f"result of {qual}() carries operations inserted "
                       f"but not waited and is discarded")


class _TaintFlowRule(FlowRule):
    """Shared engine for RC110/RC111; subclasses pick the token."""

    tier = "inter"
    scope = "repo"
    token = ""  # "clock" | "rng"
    source_desc = ""

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        inter = ctx.inter
        from repro.check.summaries import _expr_taint, taint_states
        try:
            in_states = taint_states(cfg, inter)
        except FixpointDiverged:
            return
        for node in cfg.stmt_nodes():
            env = in_states.get(node.index)
            if env is None:
                continue
            for sub in node.walked:
                if not isinstance(sub, ast.Call):
                    continue
                qual = inter.resolve(sub)
                if qual is None:
                    continue
                summary = inter.summaries.get(qual)
                if summary is None:
                    continue
                mapping = inter.param_index_map(sub)
                if inter.callee_in_sim(qual):
                    for idx, expr in sorted(mapping.items()) if mapping \
                            else []:
                        taint = _expr_taint(cfg.table, node, expr, env,
                                            inter)
                        if self.token in taint:
                            param = summary.params[idx] \
                                if idx < len(summary.params) else str(idx)
                            yield (expr.lineno, expr.col_offset,
                                   f"argument {param!r} of {qual}() is "
                                   f"derived from {self.source_desc} and "
                                   f"flows into a simulation path")
                if ctx.in_sim_path:
                    effective = set()
                    for token in summary.return_taint:
                        if token.startswith(_PARAM):
                            idx = int(token[len(_PARAM):])
                            expr = mapping.get(idx) if mapping else None
                            if expr is not None:
                                effective |= _expr_taint(
                                    cfg.table, node, expr, env, inter)
                        else:
                            effective.add(token)
                    if self.token in effective:
                        yield (sub.lineno, sub.col_offset,
                               f"{qual}() returns a value derived from "
                               f"{self.source_desc} inside a simulation "
                               f"path")


@register
class RC110(_TaintFlowRule):
    id = "RC110"
    title = "wall-clock-derived value crosses a call into a sim path"
    hint = ("the static cross-function twin of RC101: derive time from "
            "engine.now instead of passing host-clock values through "
            "helpers into simulation state")
    token = "clock"
    source_desc = "the host clock or OS entropy"


@register
class RC111(_TaintFlowRule):
    id = "RC111"
    title = "unseeded-RNG-derived value crosses a call into a sim path"
    hint = ("the static cross-function twin of RC102: draw from an "
            "explicitly seeded random.Random(seed) / "
            "np.random.default_rng(seed) before values reach a "
            "simulation path")
    token = "rng"
    source_desc = "an unseeded or process-global RNG"
