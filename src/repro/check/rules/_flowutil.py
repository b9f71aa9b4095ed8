"""Shared AST helpers for the flow-tier rule modules (RC4xx/RC5xx).

These operate on CFG nodes, so they must answer "which expressions are
evaluated *at this node*" — for compound statements that is the header
only (the ``if`` test, the ``for`` iterable, the ``with`` items), never
the suite, whose statements are separate nodes.  Nested ``def``/
``lambda`` bodies are excluded everywhere: they execute later (or
never) and are analyzed with their own CFGs; for typestate purposes a
captured variable simply escapes.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Set, Tuple

from repro.check.cfg import CFGNode

__all__ = [
    "captured_names",
    "header_exprs",
    "node_walk",
    "walk_exprs",
]


def header_exprs(node: CFGNode) -> List[ast.expr]:
    """Expressions evaluated when control reaches this CFG node."""
    stmt = node.ast_node
    if stmt is None:
        return []
    if isinstance(stmt, ast.excepthandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        # Decorators and parameter defaults run at definition time; the
        # body does not (captures are handled via captured_names).
        exprs: List[ast.expr] = list(stmt.decorator_list)
        if not isinstance(stmt, ast.ClassDef):
            exprs.extend(stmt.args.defaults)
            exprs.extend(d for d in stmt.args.kw_defaults if d is not None)
        return exprs
    # Simple statement: every expression it contains.
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def walk_exprs(exprs: List[ast.expr]) -> Iterator[ast.AST]:
    """Pre-order walk of ``exprs`` that does not enter lambda bodies."""
    stack: List[ast.AST] = list(reversed(exprs))
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, ast.Lambda):
            continue  # body runs later; captures escape instead
        stack.extend(reversed(list(ast.iter_child_nodes(item))))


def node_walk(node: CFGNode) -> Tuple[ast.AST, ...]:
    """``walk_exprs(header_exprs(node))``, memoized on the node."""
    if node.walked is None:
        node.walked = tuple(walk_exprs(header_exprs(node)))
    return node.walked


def captured_names(node: CFGNode) -> FrozenSet[str]:
    """Names a nested ``def``/``lambda`` at this node reads from the
    enclosing scope (approximated as: all Name loads in the body that
    the body itself never binds).  Memoized on the node."""
    if node.captured is None:
        node.captured = frozenset(_captured_names(node))
    return node.captured


def _captured_names(node: CFGNode) -> Set[str]:
    stmt = node.ast_node
    roots: List[ast.AST] = []
    loads: Set[str] = set()
    bound: Set[str] = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots = list(stmt.body)
        args = stmt.args
        for arg in (args.args + args.posonlyargs + args.kwonlyargs):
            bound.add(arg.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                bound.add(extra.arg)
    elif stmt is not None:
        roots = [child for child in ast.walk(stmt)
                 if isinstance(child, ast.Lambda)]
    for root in roots:
        parts: List[ast.AST] = [root]
        if isinstance(root, ast.Lambda):
            bound.update(arg.arg for arg in root.args.args)
            bound.update(arg.arg for arg in root.args.kwonlyargs)
            parts = [root.body]
        for part in parts:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name):
                    if isinstance(sub.ctx, ast.Load):
                        loads.add(sub.id)
                    else:
                        bound.add(sub.id)
    return loads - bound

