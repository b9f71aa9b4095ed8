"""Syntax helpers shared by the index, the analyses and the rules.

Stdlib-only, so every ``repro.check`` module can import it without
closing an import cycle.
"""

from __future__ import annotations

import ast
from typing import List, Optional

__all__ = ["dotted", "target_names"]


def dotted(expr: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def target_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment/loop/``with`` target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    return []
