"""Parse once, walk once: the per-run artifacts ``repro check`` shares.

A cold :func:`repro.check.driver.check_paths` run of any tier builds
each file's tree, node table (its one walk) and resolver, and each
function's CFG, at most once, and only the tiers that read them build
them at all; the index, call graph, summary, concurrency and lint
passes all reuse them, and the finished run is freed without the
cyclic collector.  These tests count the builds with wrappers installed
on every module binding
(:func:`repro.check.callcount.count_calls`), check that every rule
fixture of the other ``test_check*`` modules lints through that path
(a context's own tree, never a second parse), and pin the RC000 and
worker-count contracts the shared seam must keep, and how it reads
source files.
"""

import ast
import gc
import inspect
import multiprocessing
import os
import pathlib
import subprocess
import sys
from multiprocessing.pool import RemoteTraceback
from types import SimpleNamespace

import pytest

from repro import pool
from repro.check import InterContext, callgraph, cfg, lint_source
from repro.check.callcount import count_calls
from repro.check.driver import check_paths
from repro.check.lint import findings_to_json, read_source, suppression_stats
from repro.check.rules import RULES, LintContext, Rule

from tests import (
    test_check,
    test_check_concurrency,
    test_check_flow,
    test_check_inter,
)
from tests.test_check_inter import build

# A small project: a cross-file call chain, a class with methods, a
# nested def, a class nested in a function (linted but never indexed)
# and a mutually recursive pair (its summaries iterate to a fixpoint).
PROJECT = {
    "pkg/__init__.py": "",
    "pkg/helper.py": """\
def start_batch(engine):
    es = EventSet(engine)
    es.add(engine.event())
    return es


def ping(n):
    return pong(n - 1) if n else 0


def pong(n):
    return ping(n - 1) if n else 1
""",
    "pkg/caller.py": """\
from pkg.helper import ping, start_batch


class Driver:
    def __init__(self, engine):
        self.engine = engine

    def run(self):
        start_batch(self.engine)

        def inner(x):
            return ping(x)

        return inner(3)


def build():
    class Local:
        def go(self):
            return 1

    return Local()
""",
}


@pytest.fixture
def project(tmp_path, monkeypatch):
    for rel, src in PROJECT.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def function_count(sources):
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for src in sources for node in ast.walk(ast.parse(src)))


#: ``check_paths`` flags per tier.
TIERS = {
    "flat": dict(flow=False, inter=False),
    "flow": dict(flow=True, inter=False),
    "inter": dict(flow=True, inter=True),
    "conc": dict(flow=True, inter=True, concurrency=True),
}


# ---------------------------------------------------------------------------
# build counts on a cold serial run
# ---------------------------------------------------------------------------

def test_cold_check_builds_every_artifact_once(project):
    # Each tier builds what it reads once.  Without summaries every
    # call is opaque, so the flat and flow tiers build no index and no
    # resolver, and the flat tier no CFG either.
    for tier, flags in TIERS.items():
        with count_calls(ast.parse, cfg.build_cfg, callgraph.build_index,
                         callgraph.FileResolver) as (parses, cfgs, indexes,
                                                     resolvers):
            result = check_paths(["pkg"], workers=1, use_cache=False,
                                 cache_dir=".cache", **flags)
        assert not result.tree_hit, tier
        assert result.stats["analyzed"] == len(PROJECT), tier
        assert len(parses) == len(PROJECT), tier
        if not flags["inter"]:
            assert (indexes, resolvers) == ([], []), tier
        else:
            assert len(indexes) == 1, tier
            assert len(resolvers) == len(PROJECT), tier
        if tier == "flat":
            assert cfgs == [], tier
            continue
        assert len(cfgs) == function_count(PROJECT.values()), tier
        assert len(set(cfgs)) == len(cfgs), tier  # distinct def nodes


def test_cold_check_walks_each_tree_once(project):
    # ``ast.walk`` calls ``iter_child_nodes`` once per node, so one
    # traversal per tree is exactly one call per node.
    nodes = sum(len(list(ast.walk(ast.parse(src))))
                for src in PROJECT.values())
    with count_calls(ast.iter_child_nodes) as (child_iters,):
        check_paths(["pkg"], workers=1, use_cache=False,
                    cache_dir=".cache", concurrency=True)
    assert len(child_iters) == nodes


def test_finished_run_is_freed_by_refcount(project):
    # No reference cycle keeps a finished run alive: with the collector
    # saving everything it would free, nothing of the run shows up.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        check_paths(["pkg"], workers=1, use_cache=False,
                    cache_dir=".cache", concurrency=True)
        gc.collect()
        leaked = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not leaked & {"InterContext", "FileInter", "CFG", "Module"}


def test_findings_identical_for_one_and_two_workers(project):
    # A bare except (RC201) gives every tier a finding.
    pathlib.Path("pkg/bad.py").write_text(
        "try:\n    x = 1\nexcept:\n    pass\n")
    for tier, flags in TIERS.items():
        runs = [check_paths(["pkg"], workers=workers, use_cache=False,
                            cache_dir=f".c{workers}", **flags)
                for workers in (1, 2, 64)]
        assert runs[0].findings, f"{tier}: the fixture should find"
        for run in runs[1:]:
            assert findings_to_json(runs[0].findings) == \
                findings_to_json(run.findings), tier


def test_lint_pool_is_no_wider_than_the_cpus(project, monkeypatch):
    widths = []
    fork = multiprocessing.get_context("fork")

    def pool_of(width):
        widths.append(width)
        return fork.Pool(width)

    monkeypatch.setattr(pool.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=pool_of))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    result = check_paths(["pkg"], workers=64, use_cache=False,
                         cache_dir=".c", concurrency=True)
    assert result.stats["analyzed"] == len(PROJECT) > 2
    assert widths == [pool.available_cpus()]


def _no_pool(method):
    raise AssertionError("a one-CPU run must not build a pool")


def test_lint_on_one_cpu_runs_serially(project, monkeypatch):
    pathlib.Path("pkg/bad.py").write_text(
        "try:\n    x = 1\nexcept:\n    pass\n")
    serial = check_paths(["pkg"], workers=1, use_cache=False,
                         cache_dir=".c1", concurrency=True)
    monkeypatch.setattr(pool, "available_cpus", lambda: 1)
    monkeypatch.setattr(pool.multiprocessing, "get_context", _no_pool)
    capped = check_paths(["pkg"], workers=2, use_cache=False,
                         cache_dir=".c2", concurrency=True)
    assert serial.findings
    assert findings_to_json(capped.findings) == \
        findings_to_json(serial.findings)


class BrokenRuleError(RuntimeError):
    pass


class _RaisesOnTwoFiles(Rule):
    id, title, hint = "RC999", "raises on two files", "fix the rule"

    def check(self, ctx):
        # The larger file has the higher index, so a pool starts it first.
        if ctx.path in ("pkg/__init__.py", "pkg/caller.py"):
            raise BrokenRuleError(ctx.path)
        return iter(())


def test_failing_rule_raises_for_the_lowest_file_serial_and_parallel(
        project, monkeypatch):
    monkeypatch.setitem(RULES, "RC999", _RaisesOnTwoFiles())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    errors = []
    for workers in (1, 2):
        with pytest.raises(BrokenRuleError) as exc:
            check_paths(["pkg"], workers=workers, use_cache=False,
                        cache_dir=f".c{workers}")
        errors.append(exc.value)
    assert [str(e) for e in errors] == ["pkg/__init__.py"] * 2
    assert errors[0].__cause__ is None
    assert isinstance(errors[1].__cause__, RemoteTraceback)
    assert "BrokenRuleError: pkg/__init__.py" in str(errors[1].__cause__)


def _modules_loaded_by(statement):
    src = pathlib.Path(pool.__file__).resolve().parents[1]
    script = (f"import sys\n{statement}\n"
              "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_pool_and_driver_imports_stay_light():
    assert [m for m in _modules_loaded_by("import repro.pool")
            if m.startswith("repro")] == ["repro", "repro.pool"]
    heavy = [m for m in _modules_loaded_by("import repro.check.driver")
             if m.split(".")[0] == "numpy"
             or m.startswith(("repro.sim", "repro.harness"))]
    assert heavy == []


def test_syntax_error_still_reports_rc000(project):
    pathlib.Path("pkg/broken.py").write_text("def oops(:\n    pass\n")
    for workers in (1, 2):
        result = check_paths(["pkg"], workers=workers, use_cache=False,
                             cache_dir=f".c{workers}", concurrency=True)
        broken = [f for f in result.findings if f.path == "pkg/broken.py"]
        assert [f.rule_id for f in broken] == ["RC000"]
        assert any(f.path == "pkg/caller.py" for f in result.findings)
    broken = "def oops(:\n"
    assert [f.rule_id for f in lint_source(
        broken, "x.py", InterContext({"x.py": broken}))] == ["RC000"]


# A PEP 263 coding cookie with a latin-1 literal: valid Python, but not
# UTF-8.  A bare except gives it an RC201 finding on every tier, and a
# suppression gives ``--stats`` an entry.
LATIN1 = ("# -*- coding: latin-1 -*-\nNAME = 'caf\xe9'\n"
          "try:\n    x = 1\nexcept:\n    pass\n"
          "y = 2  # repro-check: disable=RC101 (fixture)\n"
          ).encode("latin-1")


def test_coding_cookie_is_honoured_on_every_tier_and_stats(project):
    pathlib.Path("pkg/latin.py").write_bytes(LATIN1)
    pathlib.Path("pkg/undecodable.py").write_bytes(b"x = 1\ny = '\xff'\n")
    assert "caf\xe9" in read_source(pathlib.Path("pkg/latin.py"))
    for tier, flags in TIERS.items():
        for workers in (1, 2):
            result = check_paths(["pkg"], workers=workers, use_cache=False,
                                 cache_dir=f".c{workers}", **flags)
            rules = {path: [f.rule_id for f in result.findings
                            if f.path == path]
                     for path in ("pkg/latin.py", "pkg/undecodable.py")}
            assert rules == {"pkg/latin.py": ["RC201"],
                             "pkg/undecodable.py": ["RC000"]}, tier
    undecodable, = [f for f in result.findings if f.rule_id == "RC000"]
    assert undecodable.line == 2
    assert "can't decode byte 0xff" in undecodable.message
    stats = suppression_stats(["pkg"])
    assert [(e["path"], e["reason"]) for e in stats["suppressions"]] == \
        [("pkg/latin.py", "fixture")]


def test_undecodable_file_is_reanalyzed_when_it_changes(project):
    bad = pathlib.Path("pkg/undecodable.py")
    bad.write_bytes(b"x = '\xff'\n")
    first = check_paths(["pkg"], cache_dir=".c", concurrency=True)
    bad.write_bytes(b"x = 1\ny = '\xff'\n")
    second = check_paths(["pkg"], cache_dir=".c", concurrency=True)
    assert not second.tree_hit and second.analyzed == ["pkg/undecodable.py"]
    assert [(f.line, f.rule_id) for f in first.findings
            if f.path == bad.as_posix()] == [(1, "RC000")]
    assert [(f.line, f.rule_id) for f in second.findings
            if f.path == bad.as_posix()] == [(2, "RC000")]


def test_utf8_sources_read_as_before(project):
    path = pathlib.Path("pkg/crlf.py")
    path.write_bytes("x = 'é'\r\ny = 1\r\nz = 2\r".encode("utf-8"))
    assert read_source(path) == path.read_text(encoding="utf-8")
    for rel in PROJECT:
        assert read_source(pathlib.Path(rel)) == \
            pathlib.Path(rel).read_text(encoding="utf-8")


def test_a_file_named_twice_is_checked_once(project):
    pathlib.Path("pkg/bad.py").write_text(
        "try:\n    x = 1\nexcept:\n    pass\n"
        "y = 2  # repro-check: disable=RC101 (fixture)\n")
    paths = ["pkg", "pkg/bad.py"]
    for tier, flags in TIERS.items():
        result = check_paths(paths, use_cache=False, cache_dir=".cache",
                             **flags)
        assert result.stats["files"] == len(PROJECT) + 1, tier
        assert [f.rule_id for f in result.findings
                if f.path == "pkg/bad.py"] == ["RC201"], tier
    assert suppression_stats(paths)["count"] == 1


# ---------------------------------------------------------------------------
# every rule fixture lints through the shared path
# ---------------------------------------------------------------------------

FIXTURE_MODULES = (test_check, test_check_flow, test_check_inter,
                   test_check_concurrency)


def _reaches_lint_source(fn, module, depth=2):
    """Whether ``fn`` calls the module's ``lint_source`` (directly or
    through a module-level helper such as ``inter_lint``)."""
    names = fn.__code__.co_names
    if "lint_source" in names:
        return True
    if depth == 0:
        return False
    return any(
        inspect.isfunction(helper) and helper.__module__ == module.__name__
        and _reaches_lint_source(helper, module, depth - 1)
        for helper in (getattr(module, name, None) for name in names))


def _fixture_tests():
    for module in FIXTURE_MODULES:
        for name, fn in sorted(vars(module).items()):
            if (name.startswith("test_") and inspect.isfunction(fn)
                    and not inspect.signature(fn).parameters
                    and _reaches_lint_source(fn, module)):
                yield pytest.param(module, name,
                                   id=f"{module.__name__[6:]}::{name}")


@pytest.mark.parametrize("module, name", _fixture_tests())
def test_fixture_lints_parse_each_source_once(monkeypatch, module, name):
    """Re-run a rule-fixture test with ``lint_source`` watched: it walks
    the tree its context already parsed and parses nothing, except once
    to report RC000 for a source the context could not parse."""
    real = module.lint_source
    calls = []

    def watched(source, path, ctx, flow=False, inter=False,
                concurrency=False):
        before = len(parses)
        findings = real(source, path, ctx, flow=flow, inter=inter,
                        concurrency=concurrency)
        assert len(parses) - before == (0 if path in ctx.tables else 1)
        calls.append(path)
        return findings

    monkeypatch.setattr(module, "lint_source", watched)
    with count_calls(ast.parse) as (parses,):
        getattr(module, name)()
    assert calls


def test_lint_source_rejects_a_file_outside_the_context():
    ctx = build({"a.py": "x = 1\n"})
    with pytest.raises(ValueError, match="not in the run's context"):
        lint_source("y = 2\n", "b.py", ctx, flow=True, inter=True)
    assert [f.rule_id for f in lint_source("def oops(:\n", "b.py", ctx,
                                           flow=True, inter=True)] == \
        ["RC000"]


# ---------------------------------------------------------------------------
# scope
# ---------------------------------------------------------------------------

def test_cache_package_is_a_sim_path():
    path = "src/repro/cache/planner.py"
    ctx = LintContext(path=path,
                      inter=InterContext({path: ""}).own_view(path))
    assert ctx.in_sim_path
