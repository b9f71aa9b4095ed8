"""Tests for the flow-sensitive tier of ``repro check``.

Three layers, mirroring the implementation:

- the CFG builder, probed through reaching-state fixtures (a tiny
  constant-tracing analysis run over the graph) for the edge cases the
  builder exists to get right: ``try/finally`` with ``return``,
  ``break``/``continue`` in loops, nested ``with``, early ``raise``;
- the RC4xx typestate and RC5xx unit rules, one good/bad fixture pair
  per rule plus the escape hedges that keep the repo-wide gate at zero
  false positives;
- the gate itself: the flow tier over the whole repository terminates
  and comes back clean.
"""

import ast
import textwrap

from repro.check import (InterContext, check_paths, lint_source,
                         render_findings)
from repro.check.cfg import build_cfg
from repro.check.dataflow import ForwardAnalysis, solve
from repro.check.domains import UNBOUND, Env
from repro.check.nodetable import NodeTable

import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Flow rules are repo-scoped; any plausible source path will do.
PATH = "src/repro/model/example.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, flow=False):
    """Lint ``source`` as a one-file run (no summaries) at the flat
    tier, or at the flow tier with ``flow=True``."""
    return lint_source(source, PATH, InterContext({PATH: source}),
                       flow=flow)


def flow(source):
    return lint(textwrap.dedent(source), flow=True)


# ---------------------------------------------------------------------------
# CFG builder: reaching-state fixtures
# ---------------------------------------------------------------------------

class ConstTrace(ForwardAnalysis):
    """Tracks ``name = "literal"`` assignments: a reaching-values probe.

    The state reaching the function exit tells exactly which paths the
    builder wired: a value overwritten on every path must not reach,
    a value live on some path must.
    """

    def transfer(self, cfg, node, env):
        stmt = node.ast_node
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env = env.set(target.id, frozenset({stmt.value.value}))
        return env


def exit_state(source):
    table = NodeTable(ast.parse(textwrap.dedent(source)))
    cfg = build_cfg(table.functions()[0], table)
    return solve(cfg, ConstTrace())[cfg.exit]


def test_cfg_try_finally_with_return_routes_through_finally():
    env = exit_state("""
        def f(cond):
            x = "start"
            try:
                if cond:
                    x = "early"
                    return x
                x = "body"
            finally:
                y = "fin"
            x = "after"
            return x
        """)
    # The early return must pass through the finally suite (y defined on
    # that path too, with no may-unbound marker) and then reach the exit
    # directly -- never the statement after the try, so "early" survives
    # while "body" is overwritten by "after" on the normal path.
    assert env.get("x") == frozenset({"early", "after"})
    assert env.get("y") == frozenset({"fin"})


def test_cfg_break_and_continue_in_loop():
    env = exit_state("""
        def f(items):
            x = "pre"
            for item in items:
                if item:
                    x = "broke"
                    break
                x = "cont"
                continue
            return x
        """)
    # Zero iterations ("pre"), break ("broke") and continue looping back
    # to the header ("cont") all reach the return.
    assert env.get("x") == frozenset({"pre", "broke", "cont"})


def test_cfg_break_skips_loop_else():
    env = exit_state("""
        def f(items):
            x = "pre"
            while items:
                x = "body"
                break
            else:
                x = "else"
            return x
        """)
    # Normal loop exit runs the else suite; break jumps past it.
    assert env.get("x") == frozenset({"body", "else"})


def test_cfg_nested_with_is_linear():
    env = exit_state("""
        def f(a, b):
            with a as f1:
                x = "outer"
                with b as f2:
                    x = "inner"
                y = "post"
            return x
        """)
    # No spurious bypass edges around with blocks: the inner assignment
    # definitely overwrites, and y is definitely bound at the exit.
    assert env.get("x") == frozenset({"inner"})
    assert env.get("y") == frozenset({"post"})


def test_cfg_early_raise_reaches_exit_with_pre_raise_state():
    env = exit_state("""
        def f(cond):
            x = "start"
            if cond:
                raise ValueError("boom")
            x = "ok"
            return x
        """)
    # The uncaught raise routes to the function exit carrying the state
    # before the raise; the fall-through path carries "ok".
    assert env.get("x") == frozenset({"start", "ok"})


def test_cfg_raise_caught_by_handler_does_not_fall_through():
    env = exit_state("""
        def f():
            try:
                x = "body"
                raise ValueError()
            except ValueError:
                x = "handled"
            return x
        """)
    # After an unconditional raise the only way to the return is via the
    # handler, whose assignment overwrites the body's.
    assert env.get("x") == frozenset({"handled"})


def test_env_join_marks_one_sided_keys_unbound():
    a = Env({"x": frozenset({"1"})})
    b = Env({"x": frozenset({"2"}), "y": frozenset({"3"})})
    joined = a.join(b)
    assert joined.get("x") == frozenset({"1", "2"})
    assert joined.get("y") == frozenset({"3", UNBOUND})


# ---------------------------------------------------------------------------
# RC401: operations inserted, never waited
# ---------------------------------------------------------------------------

def test_rc401_bad_never_waited_before_exit():
    findings = flow("""
        def prog(ctx, engine):
            es = EventSet(engine)
            es.add(engine.event())
            return None
        """)
    assert rule_ids(findings) == ["RC401"]
    assert "never waited before the function returns" in findings[0].message


def test_rc401_bad_pending_at_file_close():
    findings = flow("""
        def prog(ctx, lib, vol):
            f = lib.create(ctx, "out.h5", vol)
            es = EventSet(ctx.engine)
            yield from f.write(dset, data, es=es)
            yield from f.close()
        """)
    assert set(rule_ids(findings)) == {"RC401"}
    messages = " | ".join(f.message for f in findings)
    assert "not waited when 'f' is closed" in messages


def test_rc401_good_waited_before_close():
    findings = flow("""
        def prog(ctx, lib, vol):
            f = lib.create(ctx, "out.h5", vol)
            es = EventSet(ctx.engine)
            yield from f.write(dset, data, es=es)
            yield from es.wait()
            yield from f.close()
        """)
    assert findings == []


def test_rc401_escape_hedge_argument_passing():
    # Handing the event set to someone else transfers protocol duty;
    # the zero-false-positive gate must stay silent.
    findings = flow("""
        def prog(engine, sink):
            es = EventSet(engine)
            es.add(engine.event())
            sink.append(es)
            return None
        """)
    assert findings == []


def test_rc401_escape_hedge_closure_capture():
    findings = flow("""
        def prog(engine):
            es = EventSet(engine)
            es.add(engine.event())
            def drain():
                yield from es.wait()
            return drain
        """)
    assert findings == []


def test_rc401_suppressible():
    findings = flow("""
        def prog(ctx, engine):
            # repro-check: disable=RC401 (deliberate leak: fixture)
            es = EventSet(engine)
            es.add(engine.event())
            return None
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# RC402: result used before wait
# ---------------------------------------------------------------------------

def test_rc402_bad_result_used_before_wait():
    findings = flow("""
        def prog(f, engine):
            es = EventSet(engine)
            data = f.read(dset, es=es)
            total = data + 1
            yield from es.wait()
            return total
        """)
    assert rule_ids(findings) == ["RC402"]
    assert "used before es.wait()" in findings[0].message


def test_rc402_good_wait_before_use():
    findings = flow("""
        def prog(f, engine):
            es = EventSet(engine)
            data = f.read(dset, es=es)
            yield from es.wait()
            total = data + 1
            return total
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# RC403: double close / use after close
# ---------------------------------------------------------------------------

def test_rc403_bad_double_close():
    findings = flow("""
        def prog(ctx, lib, vol):
            f = lib.create(ctx, "a.h5", vol)
            yield from f.close()
            yield from f.close()
        """)
    assert rule_ids(findings) == ["RC403"]
    assert "closed twice" in findings[0].message


def test_rc403_bad_use_after_close():
    findings = flow("""
        def prog(ctx, lib, vol):
            f = lib.create(ctx, "a.h5", vol)
            yield from f.close()
            f.create_dataset("d", 8)
        """)
    assert rule_ids(findings) == ["RC403"]
    assert "used after close" in findings[0].message


def test_rc403_good_single_close():
    findings = flow("""
        def prog(ctx, lib, vol):
            f = lib.create(ctx, "a.h5", vol)
            yield from f.close()
        """)
    assert findings == []


def test_rc403_may_closed_is_not_definite():
    # Closed on one branch only: the close afterwards is a *may* double
    # close; the must-style check stays silent (zero-FP gate).
    findings = flow("""
        def prog(ctx, lib, vol, cond):
            f = lib.create(ctx, "a.h5", vol)
            if cond:
                yield from f.close()
            yield from f.close()
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# RC404: AsyncVOL without finalize on all paths
# ---------------------------------------------------------------------------

def test_rc404_bad_never_finalized():
    findings = flow("""
        def prog(ctx, engine):
            vol = AsyncVOL(engine)
            vol.submit(op)
            return None
        """)
    assert rule_ids(findings) == ["RC404"]
    assert "never finalized" in findings[0].message


def test_rc404_bad_finalized_on_some_paths_only():
    findings = flow("""
        def prog(ctx, engine, cond):
            vol = AsyncVOL(engine)
            if cond:
                yield from vol.finalize(ctx)
            return None
        """)
    assert rule_ids(findings) == ["RC404"]
    assert "some paths but not all" in findings[0].message


def test_rc404_good_finalize_in_finally():
    # The canonical fix -- and a typestate walk across the cloned
    # finally suite.
    findings = flow("""
        def prog(ctx, engine):
            vol = AsyncVOL(engine)
            try:
                yield from do_io(ctx)
            finally:
                yield from vol.finalize(ctx)
            return None
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# RC501-RC503: unit consistency
# ---------------------------------------------------------------------------

def test_rc501_bad_seconds_plus_bytes():
    findings = flow("""
        def f(t_comp, nbytes):
            return t_comp + nbytes
        """)
    assert rule_ids(findings) == ["RC501"]
    assert "seconds + bytes" in findings[0].message


def test_rc501_good_eq3_converts_first():
    findings = flow("""
        def f(t_comp, data_size, io_rate):
            t_io = data_size / io_rate
            return t_comp + t_io
        """)
    assert findings == []


def test_rc502_bad_store_seconds_into_bytes_name():
    findings = flow("""
        def f(t_comp, t_wait):
            total_bytes = t_comp + t_wait
            return total_bytes
        """)
    assert rule_ids(findings) == ["RC502"]
    assert "storing seconds into 'total_bytes'" in findings[0].message


def test_rc502_bad_annotation_alias_is_authoritative():
    findings = flow("""
        def f(elapsed):
            budget: Bytes = elapsed
            return budget
        """)
    assert rule_ids(findings) == ["RC502"]
    assert "declared as bytes" in findings[0].message


def test_rc502_bad_keyword_argument_dimension():
    findings = flow("""
        def f(history, t_comp, nranks):
            history.record(data_size=t_comp, nranks=nranks)
        """)
    assert rule_ids(findings) == ["RC502"]
    assert "argument 'data_size' declares bytes" in findings[0].message


def test_rc502_good_bytes_into_bytes_name():
    findings = flow("""
        def f(nbytes):
            total_bytes = nbytes + 4096
            return total_bytes
        """)
    assert findings == []


def test_rc503_bad_compare_seconds_with_bytes():
    findings = flow("""
        def f(t_comp, nbytes):
            if t_comp > nbytes:
                return t_comp
            return nbytes
        """)
    assert rule_ids(findings) == ["RC503"]
    assert "seconds vs bytes" in findings[0].message


def test_rc503_good_compare_after_eq3():
    findings = flow("""
        def f(t_comp, data_size, io_rate):
            t_io = data_size / io_rate
            if t_comp >= t_io:
                return t_comp
            return t_io
        """)
    assert findings == []


def test_units_propagate_through_neutral_names():
    # Eq. 3 inference: bytes / rate = seconds, carried through a name
    # with no naming-convention claim of its own.
    findings = flow("""
        def f(data_size, io_rate):
            x = data_size / io_rate
            if x > data_size:
                return x
            return data_size
        """)
    assert rule_ids(findings) == ["RC503"]


def test_units_branch_join_is_not_definite():
    # A variable that may be bytes or seconds depending on the branch is
    # not a *definite* conflict; the gate stays silent.
    findings = flow("""
        def f(cond, nbytes, t_comp):
            if cond:
                v = nbytes
            else:
                v = t_comp
            return v + nbytes
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# fixtures are invisible to the flat tier
# ---------------------------------------------------------------------------

def test_flow_bugs_are_invisible_to_flat_tier():
    source = textwrap.dedent("""
        def prog(ctx, engine):
            es = EventSet(engine)
            es.add(engine.event())
            return None
        """)
    assert lint(source) == []
    assert rule_ids(lint(source, flow=True)) == ["RC401"]


# ---------------------------------------------------------------------------
# the repo-wide gate: terminates and comes back clean
# ---------------------------------------------------------------------------

def test_repo_is_clean_under_flow_tier(tmp_path):
    """Acceptance gate: every CFG in src/ and tests/ reaches a fixpoint
    (no :class:`~repro.check.dataflow.FixpointDiverged`) and the flow
    rules report nothing."""
    findings = check_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                           flow=True, inter=False, cache_dir=tmp_path,
                           use_cache=False).findings
    assert findings == [], render_findings(findings)
