"""Project-wide call graph for the interprocedural tier (``--inter``).

The flow tier's escape hedge gives up on any handle that crosses a
function boundary.  This module supplies the structure the summary tier
(:mod:`repro.check.summaries`) needs to look *through* those
boundaries:

- :class:`ProjectIndex` — every function/method/class defined under the
  linted roots, keyed by a dotted qualname (``repro.sim.engine.Engine.run``,
  nested defs as ``module.outer.<locals>.inner``).  Plain data, safe to
  share with worker processes.
- :class:`FileResolver` — one pass over a file's AST producing an
  ``id(Call) -> qualname`` map.  It understands imports (absolute,
  relative, aliased), module attribute chains, ``self``/``cls`` methods
  through base classes, and locally constructed instances
  (``es = EventSet(); es.wait()``).  Everything else — lambdas,
  higher-order values, dynamic attributes — stays *opaque*: the call
  simply does not resolve and callers fall back to the escape hedge.
- :func:`strongly_connected_components` — Tarjan condensation of the
  function-level graph, emitted bottom-up (callees before callers) so
  summaries can be computed in one sweep with a fixpoint only inside
  recursive components.

Decorated functions resolve to their undecorated bodies (decorator
unwrapping); ``@staticmethod``/``@classmethod`` only shift the implicit
first argument at call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union, cast

from repro.check.astutil import dotted
from repro.check.nodetable import NodeTable

__all__ = [
    "ClassInfo",
    "FileResolver",
    "FunctionInfo",
    "ProjectIndex",
    "build_index",
    "build_call_graph",
    "collect_function_nodes",
    "module_name_for_path",
    "strongly_connected_components",
]

LOCALS = "<locals>"
_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for_path(path: str) -> str:
    """Dotted module name a file path denotes (``src/`` stripped)."""
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        last = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part not in (".", "/"))


@dataclass(frozen=True)
class FunctionInfo:
    """One indexed ``def`` (module-level, method or nested)."""

    qualname: str
    module: str
    path: str
    params: Tuple[str, ...]  # every named parameter, in order, incl. self
    kind: str  # "function" | "method" | "staticmethod" | "classmethod"
    has_vararg: bool
    has_kwarg: bool
    lineno: int
    #: Generator or ``async def``: a bare call only creates the
    #: generator/coroutine object; effects apply when *driven*
    #: (``yield from`` / ``await``).
    deferred: bool = False


@dataclass
class ClassInfo:
    """One indexed class: its methods and (resolved) bases."""

    qualname: str
    module: str
    methods: Dict[str, str] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()  # raw dotted names as written
    resolved_bases: Tuple[str, ...] = ()  # class qualnames (pass 2)


@dataclass
class ProjectIndex:
    """Plain-data index of every definition under the linted roots."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    modules: Dict[str, str] = field(default_factory=dict)  # module -> path
    #: module -> top-level name -> qualname (function or class).
    module_defs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module -> import alias -> dotted target.
    imports: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def method_on(self, class_qualname: str,
                  name: str) -> Optional[str]:
        """Qualname of ``name`` on a class or its bases (BFS, bounded)."""
        seen: Set[str] = set()
        queue: List[str] = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen or len(seen) > 32:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(info.resolved_bases)
        return None


def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names: List[str] = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted(target)
        if name is not None:
            names.append(name)
    return tuple(names)


def collect_imports(table: NodeTable, module: str,
                    is_package: bool) -> Dict[str, str]:
    """Map each locally bound import alias to its dotted target."""
    out: Dict[str, str] = {}
    package = module if is_package else module.rpartition(".")[0]
    for node in table.imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    out[alias.asname] = alias.name
                else:
                    out[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                base_parts = package.split(".") if package else []
                strip = node.level - 1
                if strip:
                    base_parts = base_parts[:-strip] if strip <= len(
                        base_parts) else []
                if node.module:
                    base_parts.append(node.module)
                base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                out[bound] = f"{base}.{alias.name}" if base else alias.name
    return out


class _IndexWalker:
    """Collect definitions of one file into a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex, path: str, module: str,
                 table: NodeTable) -> None:
        self.index = index
        self.path = path
        self.module = module
        self.table = table

    def walk(self) -> None:
        defs = self.index.module_defs.setdefault(self.module, {})
        nodes = self.table.nodes
        for pos in self.table.body(0):
            stmt = nodes[pos]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{self.module}.{stmt.name}"
                defs[stmt.name] = qualname
                self._function(pos, qualname, kind="function")
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{self.module}.{stmt.name}"
                defs[stmt.name] = qualname
                self._class(pos, qualname)

    def _class(self, pos: int, qualname: str) -> None:
        node = cast(ast.ClassDef, self.table.nodes[pos])
        info = ClassInfo(
            qualname=qualname, module=self.module,
            bases=tuple(b for b in (dotted(base) for base in node.bases)
                        if b is not None),
        )
        self.index.classes[qualname] = info
        for member in self.table.body(pos):
            stmt = self.table.nodes[member]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = _decorator_names(stmt)
                kind = "method"
                if any(d.rsplit(".", 1)[-1] == "staticmethod"
                       for d in decorators):
                    kind = "staticmethod"
                elif any(d.rsplit(".", 1)[-1] == "classmethod"
                         for d in decorators):
                    kind = "classmethod"
                if any(d.rsplit(".", 1)[-1] == "property"
                       for d in decorators):
                    continue  # attribute access, not a call target
                method_qualname = f"{qualname}.{stmt.name}"
                info.methods[stmt.name] = method_qualname
                self._function(member, method_qualname, kind=kind)

    def _function(self, pos: int, qualname: str, kind: str) -> None:
        table = self.table
        node = cast(_Def, table.nodes[pos])
        args = node.args
        params = tuple(a.arg for a in
                       (args.posonlyargs + args.args + args.kwonlyargs))
        self.index.functions[qualname] = FunctionInfo(
            qualname=qualname, module=self.module, path=self.path,
            params=params, kind=kind,
            has_vararg=args.vararg is not None,
            has_kwarg=args.kwarg is not None,
            lineno=node.lineno,
            deferred=(isinstance(node, ast.AsyncFunctionDef)
                      or table.yields(pos)),
        )
        # Nested defs are callable within the enclosing scope only.
        # Every def below this one (through nested defs and classes)
        # gets a ``<locals>`` name here, breadth-first, so the
        # shallowest of two same-named defs wins.
        nested = sorted(table.scopes_within(pos), key=lambda s: s[1])
        for inner, _depth in nested:
            stmt = table.nodes[inner]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{LOCALS}.{stmt.name}"
                if name not in self.index.functions:
                    self._function(inner, name, kind="function")


def build_index(tables: Mapping[str, NodeTable]) -> ProjectIndex:
    """Index every definition in ``{posix path: node table}``."""
    index = ProjectIndex()
    for path in sorted(tables):
        table = tables[path]
        module = module_name_for_path(path)
        if not module:
            continue
        index.modules[module] = path
        is_package = PurePath(path).name == "__init__.py"
        index.imports[module] = collect_imports(table, module, is_package)
        _IndexWalker(index, path, module, table).walk()
    _resolve_bases(index)
    return index


def _resolve_bases(index: ProjectIndex) -> None:
    """Second pass: raw base names -> class qualnames where possible."""
    for info in index.classes.values():
        resolved: List[str] = []
        imports = index.imports.get(info.module, {})
        defs = index.module_defs.get(info.module, {})
        for base in info.bases:
            head, _, rest = base.partition(".")
            target: Optional[str] = None
            if head in defs and not rest:
                target = defs[head]
            elif head in imports:
                full = imports[head] + (f".{rest}" if rest else "")
                if full in index.classes:
                    target = full
                else:
                    # ``from m import C`` where C lives in m's defs.
                    mod, _, name = full.rpartition(".")
                    candidate = index.module_defs.get(mod, {}).get(name)
                    if candidate in index.classes:
                        target = candidate
            if target is not None and target in index.classes:
                resolved.append(target)
        info.resolved_bases = tuple(resolved)


class FileResolver:
    """Resolve each ``ast.Call`` in one file to a project qualname.

    One instance per (file, node table); :attr:`calls` maps
    ``id(call_node)`` to the callee qualname for every call it could
    resolve.  The rest (lambdas, dynamic attributes, unknown names)
    stays opaque, hence conservative.
    """

    def __init__(self, index: ProjectIndex, path: str,
                 table: NodeTable) -> None:
        self.index = index
        self.path = path
        self.table = table
        self.module = module_name_for_path(path)
        self.calls: Dict[int, str] = {}
        #: id(call) -> how the callee was reached: ``"instance"``
        #: (``obj.m()`` on a typed local / self), ``"class"``
        #: (``Cls.m(obj)``) or ``"plain"`` (module-level function).  The
        #: summary tier uses this to map arguments onto parameters.
        self.receivers: Dict[int, str] = {}
        module_scope: Dict[str, Tuple[str, str]] = {}
        for alias, target in index.imports.get(self.module, {}).items():
            module_scope[alias] = ("import", target)
        for name, qualname in index.module_defs.get(self.module,
                                                    {}).items():
            module_scope[name] = ("def", qualname)
        self._walk_body(0, [module_scope], enclosing_class=None,
                        enclosing_func=None)

    # -- scope machinery --------------------------------------------------
    def _lookup(self, scopes: List[Dict[str, Tuple[str, str]]],
                name: str) -> Optional[Tuple[str, str]]:
        for scope in reversed(scopes):
            if name in scope:
                spec = scope[name]
                return None if spec[0] == "opaque" else spec
        return None

    def _class_of_call(self, call: ast.expr,
                       scopes: List[Dict[str, Tuple[str, str]]]
                       ) -> Optional[str]:
        """Class qualname a ``Name = ClassName(...)`` RHS constructs."""
        if not isinstance(call, ast.Call):
            return None
        ref = dotted(call.func)
        if ref is None:
            return None
        resolved = self._resolve_dotted(ref, scopes)
        if resolved is not None and resolved[0] in self.index.classes:
            return resolved[0]
        return None

    def _resolve_dotted(self, ref: str,
                        scopes: List[Dict[str, Tuple[str, str]]]
                        ) -> Optional[Tuple[str, str]]:
        """``(qualname, receiver kind)`` for a dotted reference."""
        head, _, rest = ref.partition(".")
        spec = self._lookup(scopes, head)
        if spec is None:
            return None
        kind, target = spec
        if kind == "instance":
            # Methods on a typed local (``es.wait``); deeper attribute
            # chains (``es.log.flush``) stay opaque.
            if rest and "." not in rest:
                method = self.index.method_on(target, rest)
                if method is not None:
                    return method, "instance"
            return None
        full = f"{target}.{rest}" if rest else target
        resolved = self._canonical(full)
        if resolved is None:
            return None
        info = self.index.functions.get(resolved)
        if info is not None and info.kind in ("method", "classmethod",
                                              "staticmethod"):
            return resolved, "class"  # ``Cls.m(obj, ...)`` style
        return resolved, "plain"

    def _canonical(self, full: str) -> Optional[str]:
        """Map a dotted path to an indexed function/class qualname."""
        if full in self.index.functions or full in self.index.classes:
            return full
        # ``import a.b`` / ``from a import b`` chains: find the longest
        # module prefix, then descend through its top-level defs.
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.index.modules:
                defs = self.index.module_defs.get(module, {})
                head = parts[cut] if cut < len(parts) else None
                if head is None or head not in defs:
                    return None
                candidate = defs[head]
                remainder = parts[cut + 1:]
                for piece in remainder:
                    if candidate in self.index.classes:
                        method = self.index.method_on(candidate, piece)
                        if method is None:
                            return None
                        candidate = method
                    else:
                        return None
                if candidate in self.index.functions \
                        or candidate in self.index.classes:
                    return candidate
                return None
        return None

    # -- tree walk --------------------------------------------------------
    def _walk_body(self, pos: int,
                   scopes: List[Dict[str, Tuple[str, str]]],
                   enclosing_class: Optional[str],
                   enclosing_func: Optional[str]) -> None:
        for stmt in self.table.body(pos):
            self._stmt(stmt, scopes, enclosing_class, enclosing_func)

    def _stmt(self, pos: int,
              scopes: List[Dict[str, Tuple[str, str]]],
              enclosing_class: Optional[str],
              enclosing_func: Optional[str]) -> None:
        """Resolve the calls of one statement; a ``def``/``class``
        anywhere in it (compound bodies included) opens its own scope."""
        nodes, ends = self.table.nodes, self.table.ends
        i, end = pos, ends[pos]
        while i < end:
            node = nodes[i]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._enter_function(i, scopes, enclosing_class,
                                     enclosing_func)
                i = ends[i]
                continue
            if isinstance(node, ast.ClassDef):
                self._enter_class(i, scopes, enclosing_func)
                i = ends[i]
                continue
            if isinstance(node, ast.Call):
                self._resolve_call(node, scopes)
            i += 1

    def _qualname_for(self, name: str, enclosing_class: Optional[str],
                      enclosing_func: Optional[str]) -> str:
        if enclosing_func is not None:
            return f"{enclosing_func}.{LOCALS}.{name}"
        if enclosing_class is not None:
            return f"{enclosing_class}.{name}"
        return f"{self.module}.{name}"

    def _enter_class(self, pos: int,
                     scopes: List[Dict[str, Tuple[str, str]]],
                     enclosing_func: Optional[str]) -> None:
        node = cast(ast.ClassDef, self.table.nodes[pos])
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call):
                self._resolve_call(dec, scopes)
        if enclosing_func is not None:
            return  # classes inside functions are out of scope
        qualname = f"{self.module}.{node.name}"
        self._walk_body(pos, scopes + [{}],
                        enclosing_class=qualname, enclosing_func=None)

    def _enter_function(self, pos: int,
                        scopes: List[Dict[str, Tuple[str, str]]],
                        enclosing_class: Optional[str],
                        enclosing_func: Optional[str]) -> None:
        node = cast(_Def, self.table.nodes[pos])
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call):
                self._resolve_call(dec, scopes)
        qualname = self._qualname_for(node.name, enclosing_class,
                                      enclosing_func)
        local: Dict[str, Tuple[str, str]] = {}
        args = node.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        for arg in named:
            local[arg.arg] = ("opaque", "")
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                local[extra.arg] = ("opaque", "")
        info = self.index.functions.get(qualname)
        if (enclosing_class is not None and named and info is not None
                and info.kind in ("method", "classmethod")):
            local[named[0].arg] = ("instance", enclosing_class)
        # Pre-scan: sibling nested defs (mutual recursion) and
        # single-type constructor locals (flow-insensitive, over the
        # whole subtree).
        assigned_types: Dict[str, Optional[str]] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local[stmt.name] = (
                    "def", f"{qualname}.{LOCALS}.{stmt.name}")
        for stmt in self.table.subtree(pos)[1:]:
            if isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                cls = self._class_of_call(stmt.value, scopes)
                if name in assigned_types and assigned_types[name] != cls:
                    assigned_types[name] = None
                else:
                    assigned_types[name] = cls
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                    and isinstance(stmt.target, ast.Name):
                assigned_types[stmt.target.id] = None
        for name, cls in assigned_types.items():
            if cls is not None and name not in local:
                local[name] = ("instance", cls)
            elif name not in local:
                local[name] = ("opaque", "")
        self._walk_body(pos, scopes + [local],
                        enclosing_class=None, enclosing_func=qualname)

    def _resolve_call(self, call: ast.Call,
                      scopes: List[Dict[str, Tuple[str, str]]]) -> None:
        ref = dotted(call.func)
        if ref is None:
            return
        resolved = self._resolve_dotted(ref, scopes)
        if resolved is not None and resolved[0] in self.index.functions:
            self.calls[id(call)] = resolved[0]
            self.receivers[id(call)] = resolved[1]


def collect_function_nodes(
        table: NodeTable,
        module: str) -> Dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"]:
    """``qualname -> def node`` for every function in one file's table.

    A def nested in a def is ``outer.<locals>.inner``; methods of a
    top-level class are ``Class.method``; any other class is
    transparent (its methods take the enclosing def's or class's
    prefix).  The first of two same-named defs in source order wins.
    """
    out: Dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"] = {}
    ends = table.ends
    # (end of the scope's subtree, owner def qualname, class qualname)
    open_scopes: List[Tuple[int, Optional[str], Optional[str]]] = []
    for pos, _depth in table.scopes_within(0):
        while open_scopes and open_scopes[-1][0] <= pos:
            open_scopes.pop()
        owner, class_ctx = (open_scopes[-1][1:] if open_scopes
                            else (None, None))
        node = cast(Union[_Def, ast.ClassDef], table.nodes[pos])
        if isinstance(node, ast.ClassDef):
            if owner is None and class_ctx is None:
                class_ctx = f"{module}.{node.name}"
            open_scopes.append((ends[pos], owner, class_ctx))
            continue
        if owner is not None:
            qualname = f"{owner}.{LOCALS}.{node.name}"
        elif class_ctx is not None:
            qualname = f"{class_ctx}.{node.name}"
        else:
            qualname = f"{module}.{node.name}"
        out.setdefault(qualname, node)
        open_scopes.append((ends[pos], qualname, None))
    return out


def build_call_graph(
        index: ProjectIndex,
        resolvers: Mapping[str, FileResolver],
        functions: Mapping[
            str, Dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"]],
) -> Dict[str, Set[str]]:
    """Function-level edges ``caller qualname -> callee qualnames``.

    ``resolvers`` maps each path to its :class:`FileResolver` (whose
    node table supplies each function's own calls) and ``functions``
    to its :func:`collect_function_nodes` result; both are read only.
    Each resolved call is attributed to its innermost enclosing named
    function; module-level calls have no caller node and are dropped.
    """
    edges: Dict[str, Set[str]] = {q: set() for q in index.functions}
    for path in sorted(functions):
        resolver = resolvers[path]
        table = resolver.table
        for qualname, func in functions[path].items():
            bucket = edges.setdefault(qualname, set())
            for call in table.own_calls(table.position(func)):
                callee = resolver.calls.get(id(call))
                if callee is not None:
                    bucket.add(callee)
    return edges


def strongly_connected_components(
        edges: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """Tarjan SCCs of ``edges``, bottom-up (callees before callers).

    Iterative (no recursion limit risk on deep graphs) and
    deterministic: nodes are visited in sorted order and members of each
    component are sorted.
    """
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Tuple[str, ...]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = counter[0]
                lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = sorted(edges.get(node, ()))
            for offset in range(child_index, len(successors)):
                succ = successors[offset]
                if succ not in edges:
                    continue
                if succ not in index_of:
                    work.append((node, offset + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if recurse:
                continue
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(edges):
        if node not in index_of:
            strongconnect(node)
    return components
