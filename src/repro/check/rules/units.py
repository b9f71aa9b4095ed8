"""RC5xx: dimension (unit) consistency for the performance model (flow tier).

The paper's model (Eqs. 1-5) mixes three physical dimensions — bytes,
seconds and rates (bytes/second) — and a silent unit slip corrupts
every downstream regression (Eq. 3 is ``t_io = data_size / f_io_rate``:
bytes / rate = seconds).  These rules infer dimensions from

- ``Annotated`` unit aliases on the :mod:`repro.model` public surface
  (:mod:`repro.model.units`: ``Bytes``, ``Seconds``, ``Rate``), and
- naming conventions used consistently across the repo
  (``*_bytes``/``nbytes`` are bytes, ``t_*``/``*_seconds``/``*_s`` are
  seconds, ``*_bandwidth``/``*_rate``/``*_gbps`` are rates,
  ``n_*``/``nranks`` are dimensionless counts),

propagate them through assignments and arithmetic with the obvious
algebra (bytes/seconds = rate, bytes/rate = seconds, rate*seconds =
bytes, dimensionless is transparent), and flag only *definite*
conflicts — both sides fully known and different — so unannotated code
stays silent.  Probability-style ``*_error_rate`` names are explicitly
exempt from the rate heuristic.
"""

from __future__ import annotations

import ast
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional,
                    Tuple)

from repro.check.astutil import target_names
from repro.check.cfg import CFG, CFGNode
from repro.check.dataflow import ForwardAnalysis, solve
from repro.check.domains import UNBOUND, Env
from repro.check.rules import FlowRule, LintContext, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.summaries import FileInter

__all__ = ["RC501", "RC502", "RC503"]

BYTES, SECONDS, RATE, DIMLESS, UNKNOWN = (
    "bytes", "seconds", "rate", "dimless", "unknown")
#: Dimensions a *definite* conflict can be built from.
CONCRETE = (BYTES, SECONDS, RATE)

Dims = FrozenSet[str]
Violation = Tuple[int, int, str]

_BYTES_SUFFIXES = ("_bytes", "_nbytes")
_BYTES_EXACT = {"nbytes", "data_size"}
_SECONDS_SUFFIXES = ("_seconds", "_secs", "_s", "_time")
_SECONDS_EXACT = {"seconds", "elapsed", "now"}
_RATE_SUFFIXES = ("_bandwidth", "_bw", "_gbps", "_bps", "_rate")
_RATE_EXACT = {"bandwidth", "io_rate", "rate"}
#: Probability/frequency names that merely *look* like I/O rates.
_RATE_EXEMPT_SUFFIXES = ("_error_rate", "_fault_rate", "_drop_rate",
                         "_retry_rate", "_hit_rate", "_miss_rate")
_RATE_EXEMPT_EXACT = {"fault_rate", "arrival_rate", "sample_rate"}
_COUNT_EXACT = {"nranks", "nnodes", "nprocs", "nsteps", "njobs",
                "Mi", "Ki", "Gi", "Ti"}
_COUNT_SUFFIXES = ("_count",)


def claim(name: Optional[str]) -> Optional[str]:
    """Dimension a name advertises via the repo's conventions."""
    if not name:
        return None
    if name in _BYTES_EXACT or name.endswith(_BYTES_SUFFIXES):
        return BYTES
    if name in _RATE_EXEMPT_EXACT or name.endswith(_RATE_EXEMPT_SUFFIXES):
        return None
    if name in _RATE_EXACT or name.endswith(_RATE_SUFFIXES):
        return RATE
    if name in _SECONDS_EXACT or name.endswith(_SECONDS_SUFFIXES):
        return SECONDS
    if (name.startswith("t_") and len(name) > 2
            and name[2:].replace("_", "").isalpha()):
        return SECONDS
    if name in _COUNT_EXACT or name.endswith(_COUNT_SUFFIXES) \
            or (name.startswith("n_") and len(name) > 2):
        return DIMLESS
    return None


def _annotation_dim(annotation: Optional[ast.expr]) -> Optional[str]:
    """Dimension declared by a ``repro.model.units`` alias annotation."""
    if annotation is None:
        return None
    tail: Optional[str] = None
    if isinstance(annotation, ast.Name):
        tail = annotation.id
    elif isinstance(annotation, ast.Attribute):
        tail = annotation.attr
    if tail in ("Bytes",):
        return BYTES
    if tail in ("Seconds",):
        return SECONDS
    if tail in ("Rate",):
        return RATE
    if tail in ("Dimensionless", "Count"):
        return DIMLESS
    if isinstance(annotation, ast.Subscript):
        # Annotated[float, "bytes"] spelled inline.
        base = annotation.value
        if isinstance(base, ast.Name) and base.id == "Annotated" \
                and isinstance(annotation.slice, ast.Tuple):
            for element in annotation.slice.elts[1:]:
                if isinstance(element, ast.Constant) \
                        and element.value in (BYTES, SECONDS, RATE, DIMLESS):
                    return str(element.value)
    return None


def _combine(op: ast.operator, a: str, b: str) -> str:
    """Dimension algebra for one pair of operand dimensions."""
    if UNKNOWN in (a, b) or UNBOUND in (a, b):
        return UNKNOWN
    if isinstance(op, (ast.Add, ast.Sub)):
        if a == b:
            return a
        if a == DIMLESS:
            return b
        if b == DIMLESS:
            return a
        return UNKNOWN  # mismatch; RC501 reports it separately
    if isinstance(op, ast.Mult):
        if a == DIMLESS:
            return b
        if b == DIMLESS:
            return a
        if {a, b} == {RATE, SECONDS}:
            return BYTES
        return UNKNOWN
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        if b == DIMLESS:
            return a
        if a == b:
            return DIMLESS
        if a == BYTES and b == SECONDS:
            return RATE
        if a == BYTES and b == RATE:
            return SECONDS
        return UNKNOWN
    return UNKNOWN


def _definite(dims: Dims) -> Optional[str]:
    """The single concrete dimension of ``dims``, if fully known."""
    core = dims - {UNBOUND}
    if len(core) == 1:
        (dim,) = core
        if dim in CONCRETE:
            return dim
    return None


def _dims(expr: ast.expr, env: Env,
          inter: "FileInter") -> Dims:
    """Possible dimensions of ``expr`` under ``env``.

    Once the run has summaries, a call resolved to a project function
    whose summary carries a definite return dimension contributes that
    dimension; the naming heuristic on the callee stays the fallback
    (precedence: return annotation > summary > name claim — the
    annotation already won inside the summary itself).
    """
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, (int, float)) \
                and not isinstance(expr.value, bool):
            return frozenset({DIMLESS})
        return frozenset({UNKNOWN})
    if isinstance(expr, ast.Name):
        states = env.get(expr.id)
        if states is not None:
            return states
        claimed = claim(expr.id)
        return frozenset({claimed}) if claimed else frozenset({UNKNOWN})
    if isinstance(expr, ast.Attribute):
        claimed = claim(expr.attr)
        return frozenset({claimed}) if claimed else frozenset({UNKNOWN})
    if isinstance(expr, ast.UnaryOp):
        return _dims(expr.operand, env, inter)
    if isinstance(expr, ast.IfExp):
        return _dims(expr.body, env, inter) | _dims(expr.orelse, env, inter)
    if isinstance(expr, ast.BinOp):
        left = _dims(expr.left, env, inter)
        right = _dims(expr.right, env, inter)
        return frozenset(
            _combine(expr.op, a, b) for a in left for b in right)
    if isinstance(expr, ast.Call):
        func = expr.func
        func_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if func_name in ("float", "abs") and len(expr.args) == 1:
            return _dims(expr.args[0], env, inter)
        if func_name in ("max", "min") and expr.args:
            out: Dims = frozenset()
            for arg in expr.args:
                out = out | _dims(arg, env, inter)
            return out
        summarized = inter.return_dim_for_call(expr)
        if summarized is not None:
            return frozenset({summarized})
        claimed = claim(func_name)
        return frozenset({claimed}) if claimed else frozenset({UNKNOWN})
    return frozenset({UNKNOWN})


class _UnitsAnalysis(ForwardAnalysis):
    def __init__(self, cfg: CFG, inter: "FileInter") -> None:
        self.cfg = cfg
        self.inter = inter

    def initial(self, cfg: CFG) -> Env:
        env = Env()
        args = cfg.func.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        for arg in every:
            dim = _annotation_dim(arg.annotation) or claim(arg.arg)
            if dim is not None:
                env = env.set(arg.arg, frozenset({dim}))
        return env

    def transfer(self, cfg: CFG, node: CFGNode, env: Env) -> Env:
        return _apply(node, env, report=None, inter=self.inter)


def _apply(node: CFGNode, env: Env,
           report: Optional[List[Violation]],
           inter: "FileInter") -> Env:
    stmt = node.ast_node
    if stmt is None:
        return env
    if report is not None:
        for sub in node.walked:
            if isinstance(sub, ast.BinOp) \
                    and isinstance(sub.op, (ast.Add, ast.Sub)):
                left = _definite(_dims(sub.left, env, inter))
                right = _definite(_dims(sub.right, env, inter))
                if left and right and left != right:
                    op = "+" if isinstance(sub.op, ast.Add) else "-"
                    report.append((sub.lineno, sub.col_offset,
                                   f"adding mismatched dimensions: "
                                   f"{left} {op} {right}"))
            elif isinstance(sub, ast.Compare):
                operands = [sub.left] + list(sub.comparators)
                for first, second in zip(operands, operands[1:]):
                    left = _definite(_dims(first, env, inter))
                    right = _definite(_dims(second, env, inter))
                    if left and right and left != right:
                        report.append((sub.lineno, sub.col_offset,
                                       f"comparing mismatched dimensions: "
                                       f"{left} vs {right}"))
            elif isinstance(sub, ast.Call):
                for kw in sub.keywords:
                    if kw.arg is None:
                        continue
                    claimed = claim(kw.arg)
                    if claimed not in CONCRETE:
                        continue
                    actual = _definite(_dims(kw.value, env, inter))
                    if actual and actual != claimed:
                        report.append((kw.value.lineno, kw.value.col_offset,
                                       f"argument {kw.arg!r} declares "
                                       f"{claimed} but receives {actual}"))
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                declared = None
                if isinstance(stmt, ast.AnnAssign):
                    declared = _annotation_dim(stmt.annotation)
                if isinstance(target, ast.Name):
                    declared = declared or claim(target.id)
                elif isinstance(target, ast.Attribute):
                    declared = declared or claim(target.attr)
                if declared not in CONCRETE:
                    continue
                actual = _definite(_dims(stmt.value, env, inter))
                if actual and actual != declared:
                    report.append((stmt.lineno, stmt.col_offset,
                                   f"storing {actual} into "
                                   f"{_target_label(target)} declared as "
                                   f"{declared}"))

    # -- transition -------------------------------------------------------
    out = env
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
            and stmt.value is not None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        value_dims = _dims(stmt.value, env, inter)
        for target in targets:
            if isinstance(target, ast.Name):
                declared = None
                if isinstance(stmt, ast.AnnAssign):
                    declared = _annotation_dim(stmt.annotation)
                declared = declared or claim(target.id)
                if declared is not None:
                    # Trust the declaration (prevents conflict cascades).
                    out = out.set(target.id, frozenset({declared}))
                else:
                    out = out.set(target.id, value_dims)
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
    return out


def _target_label(target: ast.expr) -> str:
    if isinstance(target, ast.Name):
        return repr(target.id)
    if isinstance(target, ast.Attribute):
        return repr(target.attr)
    return "target"


def _analyze(cfg: CFG, inter: "FileInter") -> List[Violation]:
    cached = getattr(cfg, "_units", None)
    if cached is not None:
        return cached
    in_states = solve(cfg, _UnitsAnalysis(cfg, inter))
    findings: List[Violation] = []
    for node in cfg.stmt_nodes():
        if node.index in in_states:
            _apply(node, in_states[node.index], report=findings,
                   inter=inter)
    cfg._units = findings  # type: ignore[attr-defined]
    return findings


@register
class RC501(FlowRule):
    id = "RC501"
    title = "addition/subtraction of mismatched dimensions"
    hint = ("bytes, seconds and rates cannot be added; convert first "
            "(Eq. 3: seconds = bytes / rate)")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        for line, col, message in _analyze(cfg, ctx.inter):
            if "adding mismatched" in message:
                yield line, col, message


@register
class RC502(FlowRule):
    id = "RC502"
    title = "value stored into a name declared with another dimension"
    hint = ("the name (or its Annotated alias) promises a different "
            "dimension than the expression produces; fix the arithmetic "
            "or rename the variable")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        for line, col, message in _analyze(cfg, ctx.inter):
            if "storing" in message or "declares" in message:
                yield line, col, message


@register
class RC503(FlowRule):
    id = "RC503"
    title = "comparison of mismatched dimensions"
    hint = ("comparing bytes with seconds (or rates) is always a bug; "
            "normalize both sides to one dimension first")
    scope = "repo"

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[Violation]:
        for line, col, message in _analyze(cfg, ctx.inter):
            if "comparing mismatched" in message:
                yield line, col, message
