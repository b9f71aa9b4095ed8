"""Intraprocedural control-flow graphs over Python AST.

The flow tier of ``repro check`` (RC4xx/RC5xx) needs statement-level
control flow: which statements may execute before which, across
branches, loops (including ``break``/``continue``/``else``), ``with``
blocks and ``try``/``except``/``finally`` (including ``return`` inside
a ``try`` routing through the ``finally`` suite).  This module builds
that graph; :mod:`repro.check.dataflow` runs fixpoint analyses over it.

Design notes
------------

- One :class:`CFGNode` per *statement*.  Compound statements get a node
  for their header (the ``if``/``while`` test, the ``for`` iterable,
  the ``with`` items, the ``try`` keyword) and separate nodes for the
  statements in their suites.  ``except`` handlers get a header node
  carrying the :class:`ast.ExceptHandler` (its ``as`` name binding is
  visible to transfer functions).
- ``finally`` suites are *cloned* per continuation class (normal fall
  through, ``return``, ``break``, ``continue``, propagating ``raise``),
  so a ``return`` inside ``try`` correctly flows through the ``finally``
  statements and then to the function exit — never to the statement
  after the ``try``.  Clones mean one ``ast.stmt`` may back several
  nodes; analyses must not assume the mapping is injective.
- Exception edges are approximate: every statement inside a ``try``
  body may jump to every one of its handlers.  Implicit exceptions
  outside ``try`` are not modeled (only explicit ``raise`` routes to
  the function exit), which keeps the graph small and is conservative
  for the may-analyses built on top.
- Nested ``def``/``class``/``lambda`` bodies are *not* inlined; the
  nested definition is a single statement node and nested functions are
  analyzed with their own CFGs.
- Each node carries the syntax facts the transfer functions read,
  sliced from the file's :class:`~repro.check.nodetable.NodeTable`
  when the graph is built (see :class:`CFGNode`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.check.nodetable import NodeTable

__all__ = ["CFG", "CFGNode", "FuncDef", "build_cfg", "memo_cfg"]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class CFGNode:
    """One vertex: a statement (or synthetic entry/exit/handler marker)."""

    index: int
    ast_node: Optional[ast.AST]  # None for entry/exit
    kind: str  # "entry" | "exit" | "stmt" | "except"
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: Position of ``ast_node`` in the CFG's :class:`NodeTable` (-1 for
    #: entry/exit), recorded when the graph is built.
    pos: int = -1
    #: Syntax facts, pure functions of ``ast_node`` filled when the
    #: graph is built: the table positions of the expressions evaluated
    #: here (for a compound statement its header only, never the suite),
    #: their pre-order walk (lambda bodies run later, so they are not
    #: entered) and the names nested ``def``/``lambda`` bodies capture
    #: (all Name loads in the body that the body itself never binds: a
    #: captured tracked value escapes).  Dataflow transfers read them on
    #: every fixpoint visit.
    roots: Tuple[int, ...] = field(default=(), repr=False, compare=False)
    walked: Tuple[ast.AST, ...] = field(
        default=(), repr=False, compare=False)
    captured: FrozenSet[str] = field(
        default=frozenset(), repr=False, compare=False)

    @property
    def line(self) -> int:
        """Source line (1 for the synthetic entry/exit nodes)."""
        return getattr(self.ast_node, "lineno", 1)

    @property
    def col(self) -> int:
        """Source column (0 for the synthetic entry/exit nodes)."""
        return getattr(self.ast_node, "col_offset", 0)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    func: FuncDef
    nodes: List[CFGNode]
    entry: int
    exit: int
    #: The node table of the tree ``func`` belongs to; ``CFGNode.pos``
    #: and ``CFGNode.roots`` index it.
    table: NodeTable = field(repr=False, compare=False)

    def stmt_nodes(self) -> Iterator[CFGNode]:
        """Real statement/handler nodes (skips entry/exit)."""
        for node in self.nodes:
            if node.kind in ("stmt", "except"):
                yield node


class _Frames:
    """Pending-jump collectors threaded through the recursive build.

    Each collector is a list of node indices whose control transfers to
    the channel's target once it is known.  ``try/finally`` intercepts
    the *top* of each stack (``break``/``continue`` target the innermost
    loop; ``raise`` propagates to the innermost handler group), routes
    the collected jumps through a clone of the ``finally`` suite, and
    re-emits them into the original collector.
    """

    def __init__(self) -> None:
        self.returns: List[int] = []
        self.break_stack: List[List[int]] = []
        self.continue_stack: List[List[int]] = []
        # Bottom entry collects uncaught raises (wired to the exit).
        self.raise_stack: List[List[int]] = [[]]


class _Builder:
    def __init__(self, func: FuncDef, table: NodeTable) -> None:
        self.func = func
        self.table = table
        self.nodes: List[CFGNode] = []
        self.entry = self._new(-1, "entry")
        self.exit = self._new(-1, "exit")

    # -- graph primitives -------------------------------------------------
    def _new(self, pos: int, kind: str = "stmt") -> int:
        """A node for the statement (or handler) at table position
        ``pos``; -1 makes a synthetic entry/exit node."""
        if pos < 0:
            node = CFGNode(index=len(self.nodes), ast_node=None, kind=kind)
        else:
            table = self.table
            roots = _header_roots(table, pos)
            node = CFGNode(
                index=len(self.nodes), ast_node=table.nodes[pos],
                kind=kind, pos=pos, roots=roots,
                walked=tuple(sub for root in roots
                             for sub in table.walk(root)),
                captured=_captured(table, pos))
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def _wire(self, preds: List[int], dst: int) -> None:
        for src in preds:
            self._edge(src, dst)

    def _suite(self, parent: int, stmts: Sequence[ast.AST]) -> List[int]:
        """Table positions of ``stmts``, a list field of the node at
        ``parent`` (consecutive children there)."""
        if not stmts:
            return []
        nodes, ends = self.table.nodes, self.table.ends
        pos = next(child for child in self.table.children(parent)
                   if nodes[child] is stmts[0])
        out = [pos]
        for _ in range(len(stmts) - 1):
            pos = ends[pos]
            out.append(pos)
        return out

    # -- construction -----------------------------------------------------
    def build(self) -> CFG:
        frames = _Frames()
        out = self._block(self.table.position(self.func), self.func.body,
                          [self.entry], frames)
        self._wire(out, self.exit)
        self._wire(frames.returns, self.exit)
        self._wire(frames.raise_stack[0], self.exit)
        return CFG(func=self.func, nodes=self.nodes, entry=self.entry,
                   exit=self.exit, table=self.table)

    def _block(self, parent: int, stmts: List[ast.stmt], preds: List[int],
               frames: _Frames) -> List[int]:
        for pos in self._suite(parent, stmts):
            preds = self._stmt(pos, preds, frames)
        return preds

    def _stmt(self, pos: int, preds: List[int],
              frames: _Frames) -> List[int]:
        stmt = self.table.nodes[pos]
        if isinstance(stmt, ast.If):
            return self._if(stmt, pos, preds, frames)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, pos, preds, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, pos, preds, frames)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, pos, preds, frames)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, pos, preds, frames)
        node = self._new(pos)
        self._wire(preds, node)
        if isinstance(stmt, ast.Return):
            frames.returns.append(node)
            return []
        if isinstance(stmt, ast.Raise):
            frames.raise_stack[-1].append(node)
            return []
        if isinstance(stmt, ast.Break):
            if frames.break_stack:
                frames.break_stack[-1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if frames.continue_stack:
                frames.continue_stack[-1].append(node)
            return []
        return [node]

    def _if(self, stmt: ast.If, pos: int, preds: List[int],
            frames: _Frames) -> List[int]:
        test = self._new(pos)
        self._wire(preds, test)
        then_out = self._block(pos, stmt.body, [test], frames)
        if stmt.orelse:
            else_out = self._block(pos, stmt.orelse, [test], frames)
        else:
            else_out = [test]
        return then_out + else_out

    def _loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor],
              pos: int, preds: List[int], frames: _Frames) -> List[int]:
        header = self._new(pos)
        self._wire(preds, header)
        breaks: List[int] = []
        continues: List[int] = []
        frames.break_stack.append(breaks)
        frames.continue_stack.append(continues)
        body_out = self._block(pos, stmt.body, [header], frames)
        frames.break_stack.pop()
        frames.continue_stack.pop()
        self._wire(body_out, header)
        self._wire(continues, header)
        # Normal termination (test false / iterator exhausted) runs the
        # loop ``else`` suite; ``break`` skips it.
        if stmt.orelse:
            else_out = self._block(pos, stmt.orelse, [header], frames)
        else:
            else_out = [header]
        return else_out + breaks

    def _with(self, stmt: Union[ast.With, ast.AsyncWith], pos: int,
              preds: List[int], frames: _Frames) -> List[int]:
        header = self._new(pos)
        self._wire(preds, header)
        return self._block(pos, stmt.body, [header], frames)

    def _match(self, stmt: ast.Match, pos: int, preds: List[int],
               frames: _Frames) -> List[int]:
        header = self._new(pos)
        self._wire(preds, header)
        outs: List[int] = [header]  # conservatively: no case may match
        for case_pos, case in zip(self._suite(pos, stmt.cases),
                                  stmt.cases):
            outs.extend(self._block(case_pos, case.body, [header], frames))
        return outs

    def _try(self, stmt: ast.Try, pos: int, preds: List[int],
             frames: _Frames) -> List[int]:
        has_finally = bool(stmt.finalbody)
        # Intercept every abrupt channel that could cross the finally.
        intercepted = []  # (collected, original) collector pairs
        if has_finally:
            original_returns = frames.returns
            frames.returns = []
            intercepted.append((frames.returns, original_returns))
            original_raises = frames.raise_stack[-1]
            frames.raise_stack[-1] = []
            intercepted.append((frames.raise_stack[-1], original_raises))
            if frames.break_stack:
                original_breaks = frames.break_stack[-1]
                frames.break_stack[-1] = []
                intercepted.append((frames.break_stack[-1], original_breaks))
            if frames.continue_stack:
                original_continues = frames.continue_stack[-1]
                frames.continue_stack[-1] = []
                intercepted.append(
                    (frames.continue_stack[-1], original_continues))

        handler_outs: List[int] = []
        if stmt.handlers:
            frames.raise_stack.append([])
        start = len(self.nodes)
        body_out = self._block(pos, stmt.body, preds, frames)
        end = len(self.nodes)
        if stmt.handlers:
            caught = frames.raise_stack.pop()
            handler_entries: List[int] = []
            for h_pos, handler in zip(self._suite(pos, stmt.handlers),
                                      stmt.handlers):
                h_node = self._new(h_pos, "except")
                handler_entries.append(h_node)
                handler_outs.extend(
                    self._block(h_pos, handler.body, [h_node], frames))
            # Any statement in the try body may raise into any handler;
            # explicit raises collected above land there too.
            for index in range(start, end):
                if self.nodes[index].kind == "stmt":
                    for h_node in handler_entries:
                        self._edge(index, h_node)
            for index in caught:
                for h_node in handler_entries:
                    self._edge(index, h_node)
        if stmt.orelse:
            body_out = self._block(pos, stmt.orelse, body_out, frames)
        normal_out = body_out + handler_outs

        if not has_finally:
            return normal_out
        # Restore the original channels *before* cloning the finally
        # suite, so abrupt jumps inside the finally target the outer
        # context, then route each intercepted class through its clone.
        pairs = []
        for collected, original in intercepted:
            pairs.append((list(collected), original))
        frames.returns = intercepted[0][1]
        frames.raise_stack[-1] = intercepted[1][1]
        rest = intercepted[2:]
        if frames.break_stack and rest:
            frames.break_stack[-1] = rest[0][1]
            rest = rest[1:]
        if frames.continue_stack and rest:
            frames.continue_stack[-1] = rest[0][1]
        out = self._block(pos, stmt.finalbody, normal_out, frames)
        for collected, original in pairs:
            if collected:
                clone_out = self._block(pos, stmt.finalbody, collected,
                                        frames)
                original.extend(clone_out)
        return out


def build_cfg(func: FuncDef, table: NodeTable) -> CFG:
    """Build the control-flow graph of one function definition;
    ``table`` is the node table of the tree ``func`` belongs to."""
    return _Builder(func, table).build()


def memo_cfg(cfgs: Dict[int, CFG], func: FuncDef,
             table: NodeTable) -> CFG:
    """``func``'s graph from ``cfgs`` (keyed by ``id(func)``; the owner
    keeps the node alive), built on first use."""
    cfg = cfgs.get(id(func))
    if cfg is None:
        cfg = cfgs[id(func)] = build_cfg(func, table)
    return cfg


# ---------------------------------------------------------------------------
# Per-node syntax facts
# ---------------------------------------------------------------------------

def _header_roots(table: NodeTable, pos: int) -> Tuple[int, ...]:
    """Positions of the expressions evaluated when control reaches the
    statement at ``pos``: for compound statements the header only (the
    ``if`` test, the ``for`` iterable, the ``with`` items), never the
    suite, whose statements are separate nodes."""
    stmt = table.nodes[pos]
    exprs: List[ast.AST]
    if isinstance(stmt, ast.excepthandler):
        exprs = [stmt.type] if stmt.type is not None else []
    elif isinstance(stmt, (ast.If, ast.While)):
        exprs = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Match):
        exprs = [stmt.subject]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        # Decorators and parameter defaults run at definition time; the
        # body does not (captures are handled via ``captured``).
        exprs = list(stmt.decorator_list)
        if not isinstance(stmt, ast.ClassDef):
            exprs.extend(stmt.args.defaults)
            exprs.extend(d for d in stmt.args.kw_defaults if d is not None)
    else:
        # Simple statement: every expression it contains.
        return tuple(child for child in table.children(pos)
                     if isinstance(table.nodes[child], ast.expr))
    return tuple(table.find(expr, pos) for expr in exprs)


#: Shared by every node whose nested bodies capture nothing (most).
_NO_NAMES: FrozenSet[str] = frozenset()


def _captured(table: NodeTable, pos: int) -> FrozenSet[str]:
    """Names a nested ``def``/``lambda`` at ``pos`` reads from the
    enclosing scope (approximated as: all Name loads in the body that
    the body itself never binds)."""
    nodes, ends = table.nodes, table.ends
    stmt = nodes[pos]
    bodies: List[Tuple[int, int]] = []
    bound: set = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = stmt.args
        bound.update(arg.arg for arg in
                     (args.args + args.posonlyargs + args.kwonlyargs))
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                bound.add(extra.arg)
        body = list(table.body(pos))
        if body:
            bodies.append((body[0], ends[body[-1]]))
    else:
        for i in range(pos, ends[pos]):
            lam = nodes[i]
            if isinstance(lam, ast.Lambda):
                bound.update(arg.arg for arg in lam.args.args)
                bound.update(arg.arg for arg in lam.args.kwonlyargs)
                start = ends[i + 1]  # after the arguments: the body
                bodies.append((start, ends[start]))
    loads: set = set()
    for start, end in bodies:
        for sub in nodes[start:end]:
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                else:
                    bound.add(sub.id)
    captured = loads - bound
    return frozenset(captured) if captured else _NO_NAMES
