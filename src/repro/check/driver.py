"""Incremental, parallel driver: the one path for every ``repro check``
tier.

The interprocedural tier costs up to four fixpoint solves per project
function (typestate, units, taint, lock set), so the repo-wide
zero-findings CI gate needs the classic compiler treatment: cache
everything on content hashes, re-analyze only what a change can
actually affect, and fan the per-file lint out across processes.
Three cache levels, all in one JSON file under
``.repro-check-cache/``; levels 1 and 3 keep one section per tier, so
tiers never evict each other:

1. **Tree key** — hash of every ``(path, content hash)`` pair.  An
   unchanged tree returns the stored findings without even parsing:
   the warm no-op rerun.
2. **Summary units** (``--inter``) — files grouped by the strongly connected
   components of the *file-level* call graph, processed bottom-up.  A
   unit's key hashes its member file contents and the summary digests
   of out-of-unit callees, so invalidation propagates through the
   reverse call graph exactly as far as summaries actually change: edit
   a helper's body without changing its summary and no caller is
   touched; change what it does to its arguments and every transitive
   caller re-keys.
3. **Per-file findings** — keyed by the file's content hash and the
   summary digests of every callee the file's calls resolve to.

A cold run parses each file once.  The resulting
:class:`~repro.check.summaries.InterContext` owns every per-file and
per-function artifact (resolver, view, CFG) and shares it across the
call-graph, summary, concurrency and lint passes; ``lint_source`` walks
the context's own tree.  The per-file lint jobs go to
:func:`repro.pool.fan_out`, the package's one pool, after the
summaries exist: its forked workers inherit the whole context, only a
job index crosses to them, and they take the largest files first.

Output is byte-identical regardless of worker count or cache state:
files are linted independently (any order), then findings are emitted
in deterministic file order with a per-file sort.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.check.callgraph import strongly_connected_components
from repro.check.concurrency import build_conc_index
from repro.check.lint import (Finding, _iter_python_files, lint_source,
                              read_source, syntax_error_findings)
from repro.check.summaries import (
    FunctionSummary,
    InterContext,
    compute_summaries,
)
from repro.pool import fan_out

__all__ = ["CheckResult", "check_paths"]

#: Bump to invalidate every cache entry (rule or summary format change).
CACHE_VERSION = 6
CACHE_FILE = "cache.json"


@dataclass
class CheckResult:
    """Findings plus what the incremental run actually did."""

    findings: List[Finding]
    #: Posix paths re-linted this run (``--diff`` reports only these).
    analyzed: List[str]
    #: Whole-tree cache hit: nothing was parsed or analyzed.
    tree_hit: bool
    #: The deepest tier that ran: ``flat``, ``flow``, ``inter``, ``conc``.
    tier: str
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
    """Atomic rewrite of the whole cache file."""
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
    file_edges: Dict[str, Set[str]] = {p: set() for p in ctx.tables}
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


def _file_key(ctx: InterContext, path: str, content_hash: str,
              inter: bool, concurrency: bool) -> str:
    """Findings cache key: content + resolved-callee digests.

    Under ``--concurrency`` the whole-project ``ConcIndex`` digest
    joins the key: an RC6xx finding in this file can be produced (or
    excused) by code with no call-graph edge to it — a cycle-closing
    acquisition elsewhere, a trigger appearing anywhere — so per-file
    reuse is only sound while the global verdicts are unchanged."""
    callee_digests: List[Tuple[str, str]] = []
    if inter and path in ctx.tables:
        quals = sorted(set(ctx.resolver(path).calls.values()))
        callee_digests = [
            (q, ctx.summaries[q].digest)
            for q in quals if q in ctx.summaries
        ]
    conc_digest = ""
    if concurrency:
        conc_digest = ctx.conc.digest  # type: ignore[union-attr]
    return _key_of([CACHE_VERSION, path, content_hash, conc_digest,
                    callee_digests])


def _section(data: Dict[str, Any], name: str) -> Dict[str, Any]:
    """``data[name]`` when it is a JSON object, else an empty one."""
    value = data.get(name)
    return value if isinstance(value, dict) else {}


@contextlib.contextmanager
def _frozen_context(texts: Dict[str, str]) -> Iterator[InterContext]:
    """The run's context, built with the cyclic collector paused and
    frozen out of its generations until the run ends: its trees and
    tables hold no reference cycles, yet rescanning them on every full
    collection costs as much as the parse."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = InterContext(texts)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    try:
        yield ctx
    finally:
        gc.unfreeze()


def check_paths(paths: Iterable[Union[str, pathlib.Path]],
                flow: bool = True,
                inter: bool = True,
                workers: Optional[int] = None,
                cache_dir: Union[str, pathlib.Path] = ".repro-check-cache",
                use_cache: bool = True,
                concurrency: bool = False) -> CheckResult:
    """Incremental lint over ``paths`` at the tier the flags select:
    flat always, plus ``flow``, plus ``inter`` (implies ``flow``), plus
    ``concurrency`` (implies ``inter``; runs the RC6xx conc tier over
    the assembled project-wide ``ConcIndex``).

    The lint fans out through :func:`repro.pool.fan_out`, one worker
    per CPU; ``workers`` caps that width (``1`` runs serially — the
    output is byte-identical either way).  ``use_cache=False`` forces a
    cold run and still writes a fresh cache.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    inter = inter or concurrency
    flow = flow or inter
    tier = ("conc" if concurrency else "inter" if inter
            else "flow" if flow else "flat")
    cache_path = pathlib.Path(cache_dir)
    files = _iter_python_files(paths)
    texts: Dict[str, str] = {}
    undecodable: Dict[str, List[Finding]] = {}
    for posix, file_path in files.items():
        try:
            texts[posix] = read_source(file_path)
        except SyntaxError as err:
            undecodable[posix] = syntax_error_findings(posix, err)
    order = list(files)
    hashes = {p: _hash_text(t) for p, t in texts.items()}
    hashes.update((p, _key_of(_findings_to_wire(f)))
                  for p, f in undecodable.items())

    cache = _load_cache(cache_path) if use_cache else {}
    tiers = _section(cache, "tiers")
    section = _section(tiers, tier)
    tree_key = _key_of([CACHE_VERSION, sorted(hashes.items())])
    tree_entry = _section(section, "tree")
    if tree_entry.get("key") == tree_key:
        findings = _findings_from_wire(tree_entry.get("findings", []))
        return CheckResult(findings=findings, analyzed=[], tree_hit=True,
                           tier=tier,
                           stats={"files": len(order), "analyzed": 0,
                                  "units_recomputed": 0})

    with _frozen_context(texts) as ctx:
        units_recomputed = 0
        units = _section(cache, "units")
        if inter:
            old_units, units = units, {}
            units_recomputed = _summaries_with_cache(
                ctx, hashes, old_units, units)
        if concurrency:
            ctx.conc = build_conc_index(ctx.summaries, ctx.index.functions)

        old_files = _section(section, "files")
        new_files: Dict[str, Dict[str, object]] = {}
        per_file: Dict[str, List[Finding]] = dict(undecodable)
        pending: List[str] = []
        for posix in order:
            key = _file_key(ctx, posix, hashes[posix], inter, concurrency)
            entry = old_files.get(posix)
            if isinstance(entry, dict) and entry.get("key") == key:
                per_file[posix] = _findings_from_wire(
                    entry.get("findings", []))
            else:
                pending.append(posix)
            new_files[posix] = {"key": key}

        lint = [p for p in pending if p in texts]
        per_file.update(zip(lint, fan_out(
            [functools.partial(lint_source, texts[p], p, ctx, flow=flow,
                               inter=inter, concurrency=concurrency)
             for p in lint],
            [len(texts[p]) for p in lint], max_workers=workers)))

    findings: List[Finding] = []
    for posix in order:
        file_findings = per_file[posix]
        new_files[posix]["findings"] = _findings_to_wire(file_findings)
        findings.extend(file_findings)

    tiers[tier] = {
        "tree": {"key": tree_key, "findings": _findings_to_wire(findings)},
        "files": new_files,
    }
    _save_cache(cache_path, {"version": CACHE_VERSION, "units": units,
                             "tiers": tiers})
    return CheckResult(
        findings=findings, analyzed=pending, tree_hit=False, tier=tier,
        stats={"files": len(order), "analyzed": len(pending),
               "units_recomputed": units_recomputed})
