"""Incremental, parallel driver for ``repro check --inter``.

The interprocedural tier costs up to four fixpoint solves per project
function (typestate, units, taint, lock set), so the repo-wide
zero-findings CI gate needs the classic compiler treatment: cache
everything on content hashes, re-analyze only what a change can
actually affect, and fan the per-file lint out across processes.
Three cache levels, all in one JSON file under
``.repro-check-cache/``:

1. **Tree key** — hash of every ``(path, content hash)`` pair plus the
   mode flags.  An unchanged tree returns the stored findings without
   even parsing: the warm no-op rerun.
2. **Summary units** — files grouped by the strongly connected
   components of the *file-level* call graph, processed bottom-up.  A
   unit's key hashes its member file contents and the summary digests
   of out-of-unit callees, so invalidation propagates through the
   reverse call graph exactly as far as summaries actually change: edit
   a helper's body without changing its summary and no caller is
   touched; change what it does to its arguments and every transitive
   caller re-keys.
3. **Per-file findings** — keyed by the file's content hash, the mode
   flags and the summary digests of every callee the file's calls
   resolve to.

A cold run parses each file once.  The resulting
:class:`~repro.check.summaries.InterContext` owns every per-file and
per-function artifact (resolver, view, CFG) and shares it across the
call-graph, summary, concurrency and lint passes; ``lint_source`` walks
the context's own tree.  The lint pool forks after the summaries
exist, so workers inherit the whole context and each task carries only
a path.

Output is byte-identical regardless of worker count or cache state:
files are linted independently (any order), then findings are emitted
in deterministic file order with a per-file sort — the exact order
:func:`repro.check.lint.lint_paths` produces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.check.callgraph import strongly_connected_components
from repro.check.concurrency import build_conc_index
from repro.check.lint import Finding, _iter_python_files, lint_source
from repro.check.summaries import (
    FunctionSummary,
    InterContext,
    compute_summaries,
)

__all__ = ["CheckResult", "check_paths"]

#: Bump to invalidate every cache entry (rule or summary format change).
CACHE_VERSION = 5
CACHE_FILE = "cache.json"


@dataclass
class CheckResult:
    """Findings plus what the incremental run actually did."""

    findings: List[Finding]
    #: Posix paths re-linted this run (``--diff`` reports only these).
    analyzed: List[str]
    #: Whole-tree cache hit: nothing was parsed or analyzed.
    tree_hit: bool
    stats: Dict[str, int] = field(default_factory=dict)

    def diff_findings(self) -> List[Finding]:
        """Findings restricted to files re-analyzed this run."""
        analyzed = set(self.analyzed)
        return [f for f in self.findings if f.path in analyzed]


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key_of(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_cache(cache_dir: pathlib.Path) -> Dict[str, object]:
    try:
        with open(cache_dir / CACHE_FILE, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return {}
    return data


def _save_cache(cache_dir: pathlib.Path, data: Dict[str, object]) -> None:
    """Atomic rewrite; only the current run's entries survive."""
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / (CACHE_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, cache_dir / CACHE_FILE)
    except OSError:
        pass  # a read-only checkout just runs cold every time


def _findings_to_wire(findings: Sequence[Finding]) -> List[Dict[str, object]]:
    return [dataclasses.asdict(f) for f in findings]


def _findings_from_wire(rows: object) -> List[Finding]:
    return [Finding(**row) for row in rows]  # type: ignore[arg-type]


def _summaries_with_cache(
        ctx: InterContext, hashes: Dict[str, str],
        old_units: Dict[str, Dict[str, Dict[str, object]]],
        new_units: Dict[str, Dict[str, Dict[str, object]]]) -> int:
    """Fill ``ctx.summaries`` unit by unit, reusing cached units.

    Returns the number of units recomputed (0 on a fully warm tree).
    """
    func_path = {q: info.path for q, info in ctx.index.functions.items()}
    funcs_by_path: Dict[str, List[str]] = {}
    for qual, path in func_path.items():
        funcs_by_path.setdefault(path, []).append(qual)
    file_edges: Dict[str, Set[str]] = {p: set() for p in ctx.trees}
    for caller, callees in ctx.edges.items():
        caller_path = func_path.get(caller)
        if caller_path is None:
            continue
        for callee in callees:
            callee_path = func_path.get(callee)
            if callee_path is not None and callee_path != caller_path:
                file_edges.setdefault(caller_path, set()).add(callee_path)

    recomputed = 0
    for component in strongly_connected_components(file_edges):
        members = sorted(component)
        member_set = set(members)
        funcs = sorted(
            q for m in members for q in funcs_by_path.get(m, ()))
        if not funcs:
            continue
        external = sorted({
            callee
            for qual in funcs
            for callee in ctx.edges.get(qual, ())
            if func_path.get(callee) not in member_set
            and callee in ctx.summaries
        })
        unit_key = _key_of([
            CACHE_VERSION,
            [(m, hashes.get(m, "")) for m in members],
            [(c, ctx.summaries[c].digest) for c in external],
        ])
        cached = old_units.get(unit_key)
        if cached is not None:
            for qual, data in cached.items():
                ctx.summaries[qual] = FunctionSummary.from_dict(data)
        else:
            compute_summaries(ctx, only=set(funcs))
            recomputed += 1
        new_units[unit_key] = {
            qual: ctx.summaries[qual].to_dict()
            for qual in funcs if qual in ctx.summaries
        }
    return recomputed


def _file_key(path: str, content_hash: str, flow: bool, inter: bool,
              concurrency: bool, ctx: Optional[InterContext]) -> str:
    """Findings cache key: content + flags + resolved-callee digests.

    Under ``--concurrency`` the whole-project ``ConcIndex`` digest
    joins the key: an RC6xx finding in this file can be produced (or
    excused) by code with no call-graph edge to it — a cycle-closing
    acquisition elsewhere, a trigger appearing anywhere — so per-file
    reuse is only sound while the global verdicts are unchanged."""
    callee_digests: List[Tuple[str, str]] = []
    if ctx is not None and path in ctx.trees:
        view = ctx.own_view(path)
        quals = sorted(set(view.resolver.calls.values()))
        callee_digests = [
            (q, ctx.summaries[q].digest)
            for q in quals if q in ctx.summaries
        ]
    conc_digest = ""
    if concurrency and ctx is not None and ctx.conc is not None:
        conc_digest = ctx.conc.digest
    return _key_of([CACHE_VERSION, path, content_hash, flow, inter,
                    concurrency, conc_digest, callee_digests])


# -- lint fan-out (workers inherit the run through ``fork``) ---------------

@dataclass
class _LintRun:
    """One run's lint inputs.  Pool workers get it through ``fork``
    (pool initargs are not pickled under that start method), so each
    task carries only a path and workers re-parse nothing."""

    texts: Dict[str, str]
    ctx: Optional[InterContext]
    flow: bool
    concurrency: bool

    def lint(self, path: str) -> List[Finding]:
        return lint_source(self.texts[path], path=path, flow=self.flow,
                           inter=self.ctx, concurrency=self.concurrency)


_WORKER: Dict[str, _LintRun] = {}


def _worker_init(run: _LintRun) -> None:
    _WORKER["run"] = run


def _worker_lint(path: str) -> Tuple[str, List[Dict[str, object]]]:
    return path, _findings_to_wire(_WORKER["run"].lint(path))


def check_paths(paths: Iterable[Union[str, pathlib.Path]],
                flow: bool = True,
                inter: bool = True,
                workers: Optional[int] = None,
                cache_dir: Union[str, pathlib.Path] = ".repro-check-cache",
                use_cache: bool = True,
                concurrency: bool = False) -> CheckResult:
    """Incremental interprocedural lint over ``paths``.

    ``workers`` caps the lint fan-out (``None``/``1`` runs serially —
    the output is byte-identical either way).  ``use_cache=False``
    forces a cold run and still writes a fresh cache.
    ``concurrency=True`` implies ``inter`` and additionally runs the
    RC6xx conc tier over the assembled project-wide ``ConcIndex``.
    """
    if concurrency:
        inter = True
    cache_path = pathlib.Path(cache_dir)
    files = _iter_python_files(paths)
    order: List[str] = []
    texts: Dict[str, str] = {}
    for file_path in files:
        posix = pathlib.PurePath(str(file_path)).as_posix()
        if posix in texts:
            continue
        order.append(posix)
        texts[posix] = file_path.read_text(encoding="utf-8")
    hashes = {p: _hash_text(t) for p, t in texts.items()}

    cache = _load_cache(cache_path) if use_cache else {}
    tree_key = _key_of([CACHE_VERSION, flow, inter, concurrency,
                        sorted(hashes.items())])
    tree_entry = cache.get("tree")
    if isinstance(tree_entry, dict) and tree_entry.get("key") == tree_key:
        findings = _findings_from_wire(tree_entry.get("findings", []))
        return CheckResult(findings=findings, analyzed=[], tree_hit=True,
                           stats={"files": len(order), "analyzed": 0,
                                  "units_recomputed": 0})

    ctx: Optional[InterContext] = None
    units_recomputed = 0
    new_units: Dict[str, Dict[str, Dict[str, object]]] = {}
    if inter:
        import ast as ast_mod
        trees = {}
        for posix in order:
            try:
                trees[posix] = ast_mod.parse(texts[posix])
            except SyntaxError:
                continue  # lint_source reports RC000
        ctx = InterContext.from_trees(trees)
        old_units = cache.get("units")
        if not isinstance(old_units, dict):
            old_units = {}
        units_recomputed = _summaries_with_cache(
            ctx, hashes, old_units, new_units)
        ctx.conc = build_conc_index(ctx.summaries, ctx.index.functions)
        flow = True

    old_files = cache.get("files")
    if not isinstance(old_files, dict):
        old_files = {}
    new_files: Dict[str, Dict[str, object]] = {}
    per_file: Dict[str, List[Finding]] = {}
    pending: List[str] = []
    for posix in order:
        key = _file_key(posix, hashes[posix], flow, inter, concurrency,
                        ctx)
        entry = old_files.get(posix)
        if isinstance(entry, dict) and entry.get("key") == key:
            per_file[posix] = _findings_from_wire(entry.get("findings", []))
        else:
            pending.append(posix)
        new_files[posix] = {"key": key}

    if pending:
        run = _LintRun(texts, ctx, flow, concurrency)
        n_workers = workers if workers is not None else 1
        if n_workers > 1 and len(pending) > 1 and ctx is not None:
            import multiprocessing

            mp = multiprocessing.get_context("fork")
            with mp.Pool(processes=min(n_workers, len(pending)),
                         initializer=_worker_init,
                         initargs=(run,)) as pool:
                for posix, rows in pool.map(_worker_lint, pending):
                    per_file[posix] = _findings_from_wire(rows)
        else:
            for posix in pending:
                per_file[posix] = run.lint(posix)

    findings: List[Finding] = []
    for posix in order:
        file_findings = per_file.get(posix, [])
        new_files[posix]["findings"] = _findings_to_wire(file_findings)
        findings.extend(file_findings)

    _save_cache(cache_path, {
        "version": CACHE_VERSION,
        "tree": {"key": tree_key, "findings": _findings_to_wire(findings)},
        "units": new_units,
        "files": new_files,
    })
    return CheckResult(
        findings=findings, analyzed=pending, tree_hit=False,
        stats={"files": len(order), "analyzed": len(pending),
               "units_recomputed": units_recomputed})
