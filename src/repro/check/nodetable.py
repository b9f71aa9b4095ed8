"""One traversal per parsed file, shared by every ``repro check`` pass.

:class:`NodeTable` walks a tree once, in pre-order, and keeps the nodes
plus, for each position, where that node's subtree ends: every subtree
is a slice.  A *scope* (the module, or one ``def``/``class``) owns its
slice minus the slices of the scopes nested in it; the nested node
itself stays in the enclosing range, so a pass can enter it or jump
over it (``ends[i]``).  The same traversal records each scope's
position and depth and the imports in ``ast.walk`` order.  Nothing else
is stored per node: one pointer and one C int each.
"""

from __future__ import annotations

import ast
from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Tuple, Union, cast

__all__ = ["NodeTable"]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class NodeTable:
    """Pre-order nodes of one tree (position 0 is the root) and each
    node's subtree end: ``nodes[i:ends[i]]`` is the subtree at ``i``."""

    __slots__ = ("nodes", "ends", "imports", "_scope_pos", "_scope_depth",
                 "_scope_of")

    def __init__(self, root: ast.AST) -> None:
        nodes: List[ast.AST] = []
        ends = array("i")
        imports: List[Tuple[int, int]] = []
        self._scope_pos: List[int] = []
        self._scope_depth: List[int] = []
        #: ``id(def/class node) -> index`` into the two lists above.
        self._scope_of: Dict[int, int] = {}
        # An int on the stack closes the subtree opened at that
        # position; ``depth`` counts the subtrees open.
        stack: List[Union[ast.AST, int]] = [root]
        depth = 0
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                ends[item] = len(nodes)
                depth -= 1
                continue
            pos = len(nodes)
            nodes.append(item)
            ends.append(0)
            if isinstance(item, _SCOPES):
                self._scope_of[id(item)] = len(self._scope_pos)
                self._scope_pos.append(pos)
                self._scope_depth.append(depth)
            elif isinstance(item, (ast.Import, ast.ImportFrom)):
                imports.append((depth, pos))
            stack.append(pos)
            depth += 1
            children = list(ast.iter_child_nodes(item))
            children.reverse()
            stack.extend(children)
        self.nodes = nodes
        self.ends = ends
        #: Import/ImportFrom nodes in ``ast.walk`` (breadth-first) order.
        self.imports = [nodes[pos] for _, pos in sorted(imports)]

    def position(self, scope: ast.AST) -> int:
        """Position of a ``def``/``class`` node."""
        return self._scope_pos[self._scope_of[id(scope)]]

    def find(self, node: ast.AST, within: int) -> int:
        """Position of ``node`` inside the subtree at ``within``."""
        return self.nodes.index(node, within, self.ends[within])

    def subtree(self, pos: int) -> List[ast.AST]:
        """Every node of the subtree at ``pos``, itself first."""
        return self.nodes[pos:self.ends[pos]]

    def children(self, pos: int) -> Iterator[int]:
        """Positions of the direct children of ``pos``, in field order."""
        child, end = pos + 1, self.ends[pos]
        while child < end:
            yield child
            child = self.ends[child]

    def body(self, pos: int) -> Iterator[int]:
        """Positions of the statements directly in a scope's body."""
        for child in self.children(pos):
            if isinstance(self.nodes[child], ast.stmt):
                yield child

    def scopes_within(self, pos: int) -> List[Tuple[int, int]]:
        """``(position, depth)`` of every ``def``/``class`` strictly
        inside the subtree at ``pos``, in pre-order."""
        lo = bisect_left(self._scope_pos, pos + 1)
        hi = bisect_left(self._scope_pos, self.ends[pos])
        return list(zip(self._scope_pos[lo:hi], self._scope_depth[lo:hi]))

    def functions(self) -> List[Union[ast.FunctionDef,
                                      ast.AsyncFunctionDef]]:
        """Every ``def``/``async def`` node, in pre-order."""
        return [cast(Union[ast.FunctionDef, ast.AsyncFunctionDef], node)
                for node in (self.nodes[pos] for pos in self._scope_pos)
                if isinstance(node, _DEFS)]

    def _span(self, i: int, end: int, skip: Tuple[type, ...]
              ) -> Iterator[ast.AST]:
        """Nodes at positions ``i`` to ``end`` in pre-order, with the
        subtree below each node of a ``skip`` type jumped over (the
        ``skip`` node itself is yielded)."""
        nodes, ends = self.nodes, self.ends
        while i < end:
            node = nodes[i]
            yield node
            i = ends[i] if isinstance(node, skip) else i + 1

    def walk(self, pos: int) -> Iterator[ast.AST]:
        """The expression subtree at ``pos``, itself first, as it is
        evaluated there: lambda bodies run later, so they are jumped
        over."""
        return self._span(pos, self.ends[pos], (ast.Lambda,))

    def own_calls(self, pos: int) -> List[ast.Call]:
        """Calls in scope ``pos`` but not in a nested ``def``/``class``;
        a lambda has no scope of its own, so its calls count."""
        return [node for node in self._span(pos + 1, self.ends[pos], _SCOPES)
                if isinstance(node, ast.Call)]

    def yields(self, pos: int) -> bool:
        """Whether scope ``pos`` itself yields (nested ``def``, ``class``
        and ``lambda`` bodies excluded)."""
        return any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in self._span(pos + 1, self.ends[pos],
                                          _SCOPES + (ast.Lambda,)))
