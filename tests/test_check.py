"""Tests for ``repro check``: the static analyzer and runtime checker.

Each lint rule gets a good/bad fixture pair; the suppression grammar is
exercised in both its valid and invalid forms; the runtime checker is
driven through real engine runs (races, leaks, swallowed failures); and
a self-test lints the whole repository, which must come back clean.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.check import (
    Finding,
    InterContext,
    RuntimeChecker,
    all_rules,
    check_paths,
    lint_source,
    render_findings,
)
from repro.check import hooks as check_hooks
from repro.check.rules import RULES
from repro.sim import Engine
from repro.sim.primitives import Mutex, Queue

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A path the sim-scoped rules apply to, and one they do not.
SIM_PATH = "src/repro/sim/example.py"
HOST_PATH = "src/repro/analysis/example.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path, flow=False):
    """Lint ``source`` as a one-file run (no summaries) at the flat
    tier, or at the flow tier with ``flow=True``."""
    return lint_source(source, path, InterContext({path: source}),
                       flow=flow)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_has_all_rule_bands():
    assert set(RULES) == {
        "RC101", "RC102", "RC110", "RC111",
        "RC201", "RC202", "RC203", "RC205",
        "RC301", "RC302", "RC303",
        "RC401", "RC402", "RC403", "RC404", "RC405",
        "RC501", "RC502", "RC503",
        "RC601", "RC602", "RC603", "RC604",
    }


def test_flow_rules_are_flow_tier_and_flat_default_skips_them():
    flow_ids = {r.id for r in all_rules() if r.tier == "flow"}
    assert flow_ids == {"RC401", "RC402", "RC403", "RC404",
                        "RC501", "RC502", "RC503"}
    # The flat tier (default) must not run flow rules: this source is a
    # blatant RC401 violation yet lints clean without flow=True.
    source = (
        "def prog(ctx, lib, vol):\n"
        "    es = EventSet(ctx.engine)\n"
        "    es.add(ctx.engine.event())\n"
        "    return ctx.now\n"
    )
    assert lint(source, SIM_PATH) == []
    assert rule_ids(lint(source, SIM_PATH, flow=True)) == ["RC401"]


def test_all_rules_have_metadata_and_stable_order():
    rules = all_rules()
    assert [r.id for r in rules] == sorted(RULES)
    for rule in rules:
        assert rule.id and rule.title and rule.hint
        assert rule.scope in ("repo", "sim")


# ---------------------------------------------------------------------------
# RC101 wall clock / RC102 unseeded RNG (sim scope)
# ---------------------------------------------------------------------------

def test_rc101_flags_wall_clock_in_sim_path():
    src = "import time\nt0 = time.time()\n"
    assert rule_ids(lint(src, SIM_PATH)) == ["RC101"]


def test_rc101_ignores_wall_clock_outside_sim_paths():
    src = "import time\nt0 = time.time()\n"
    assert lint(src, HOST_PATH) == []


def test_rc101_flags_datetime_and_urandom():
    src = (
        "import datetime, os\n"
        "stamp = datetime.datetime.now()\n"
        "blob = os.urandom(16)\n"
    )
    assert rule_ids(lint(src, SIM_PATH)) == ["RC101", "RC101"]


def test_rc101_clean_on_engine_time():
    src = "def step(engine):\n    return engine.now + 1.0\n"
    assert lint(src, SIM_PATH) == []


def test_rc102_flags_global_rng():
    src = "import random\nx = random.random()\n"
    assert rule_ids(lint(src, SIM_PATH)) == ["RC102"]


def test_rc102_flags_unseeded_constructors():
    src = (
        "import random\nimport numpy as np\n"
        "a = random.Random()\n"
        "b = np.random.default_rng()\n"
    )
    assert rule_ids(lint(src, SIM_PATH)) == ["RC102", "RC102"]


def test_rc102_clean_on_seeded_generators():
    src = (
        "import random\nimport numpy as np\n"
        "a = random.Random(7)\n"
        "b = np.random.default_rng((1234, 5))\n"
        "x = a.random() + b.random()\n"
    )
    assert lint(src, SIM_PATH) == []


# ---------------------------------------------------------------------------
# RC201/RC202/RC203 error discipline
# ---------------------------------------------------------------------------

def test_rc201_flags_bare_except_everywhere():
    src = "try:\n    x = 1\nexcept:\n    pass\n"
    assert rule_ids(lint(src, HOST_PATH)) == ["RC201"]


def test_rc201_clean_on_typed_except():
    src = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
    assert lint(src, HOST_PATH) == []


def test_rc202_flags_generic_raise():
    src = "def f():\n    raise Exception('boom')\n"
    assert rule_ids(lint(src, HOST_PATH)) == ["RC202"]


def test_rc202_clean_on_typed_raise_and_reraise():
    src = (
        "def f():\n"
        "    try:\n"
        "        raise ValueError('boom')\n"
        "    except ValueError:\n"
        "        raise\n"
    )
    assert lint(src, HOST_PATH) == []


def test_rc203_flags_bare_exception_subclass_in_sim_path():
    src = "class StallError(Exception):\n    pass\n"
    assert rule_ids(lint(src, SIM_PATH)) == ["RC203"]
    assert lint(src, HOST_PATH) == []


def test_rc203_clean_on_taxonomy_subclass():
    src = (
        "from repro.faults.errors import FaultError\n"
        "class StallError(FaultError):\n    pass\n"
    )
    assert lint(src, SIM_PATH) == []


# ---------------------------------------------------------------------------
# RC205 retry discipline
# ---------------------------------------------------------------------------

def test_rc205_flags_unbounded_delay_free_retry():
    src = (
        "def fetch(op):\n"
        "    while True:\n"
        "        try:\n"
        "            return op()\n"
        "        except TransientIOError:\n"
        "            continue\n"
    )
    findings = lint(src, SIM_PATH)
    assert rule_ids(findings) == ["RC205", "RC205"]
    assert "bounded" in findings[0].message
    assert "backoff" in findings[1].message
    # Outside the sim packages the rule does not apply.
    assert lint(src, HOST_PATH) == []


def test_rc205_flags_bounded_retry_without_backoff():
    src = (
        "def fetch(op):\n"
        "    for attempt in range(5):\n"
        "        try:\n"
        "            return op()\n"
        "        except FlakyReadError:\n"
        "            continue\n"
    )
    findings = lint(src, SIM_PATH)
    assert rule_ids(findings) == ["RC205"]
    assert "backoff" in findings[0].message


def test_rc205_clean_on_bounded_backoff_retry():
    src = (
        "def fetch(engine, op, max_retries):\n"
        "    attempt = 0\n"
        "    while True:\n"
        "        try:\n"
        "            return op()\n"
        "        except TransientIOError:\n"
        "            attempt += 1\n"
        "            if attempt > max_retries:\n"
        "                raise\n"
        "            yield engine.timeout(0.1 * attempt)\n"
    )
    assert lint(src, SIM_PATH) == []


def test_rc205_ignores_propagating_and_bailing_handlers():
    # A handler that re-raises or breaks is not a retry loop.
    src = (
        "def drain(ops):\n"
        "    for op in ops:\n"
        "        try:\n"
        "            op()\n"
        "        except PFSUnavailableError:\n"
        "            raise\n"
        "        except FlakyWriteError:\n"
        "            break\n"
    )
    assert lint(src, SIM_PATH) == []


def test_rc205_inner_retry_does_not_taint_outer_loop():
    # The disciplined inner loop must not flag the undisciplined-
    # looking outer sweep loop: attribution is innermost-loop only.
    src = (
        "def sweep(engine, points, op):\n"
        "    for point in points:\n"
        "        for attempt in range(3):\n"
        "            try:\n"
        "                op(point)\n"
        "                break\n"
        "            except TransientIOError:\n"
        "                yield engine.timeout(2.0 ** attempt)\n"
    )
    assert lint(src, SIM_PATH) == []


# ---------------------------------------------------------------------------
# RC301/RC302/RC303 hygiene
# ---------------------------------------------------------------------------

def test_rc301_flags_mutable_defaults():
    src = (
        "def f(items=[]):\n    return items\n"
        "def g(table=dict()):\n    return table\n"
    )
    assert rule_ids(lint(src, HOST_PATH)) == ["RC301", "RC301"]


def test_rc301_clean_on_none_default():
    src = (
        "def f(items=None):\n"
        "    items = [] if items is None else items\n"
        "    return items\n"
    )
    assert lint(src, HOST_PATH) == []


def test_rc302_flags_computed_time_equality():
    src = "def check(t_start, dt, t_end):\n    return t_start + dt == t_end\n"
    assert rule_ids(lint(src, HOST_PATH)) == ["RC302"]


def test_rc302_clean_on_stored_timestamps_and_tolerance():
    src = (
        "import math\n"
        "def same(t_submit, t_complete, dt):\n"
        "    a = t_submit == t_complete\n"
        "    b = math.isclose(t_submit + dt, t_complete)\n"
        "    return a and b\n"
    )
    assert lint(src, HOST_PATH) == []


def test_rc303_flags_set_iteration():
    src = (
        "def f(names):\n"
        "    out = []\n"
        "    for n in set(names):\n"
        "        out.append(n)\n"
        "    return ','.join({x for x in names})\n"
    )
    assert rule_ids(lint(src, HOST_PATH)) == ["RC303", "RC303"]


def test_rc303_clean_on_sorted_set():
    src = (
        "def f(names):\n"
        "    return [n for n in sorted(set(names))]\n"
    )
    assert lint(src, HOST_PATH) == []


# ---------------------------------------------------------------------------
# suppression grammar and meta rules
# ---------------------------------------------------------------------------

def test_valid_suppression_silences_the_finding():
    src = (
        "import time\n"
        "t0 = time.time()  # repro-check: disable=RC101 (host harness "
        "wall-time, not simulated time)\n"
    )
    assert lint(src, SIM_PATH) == []


def test_suppression_on_comment_line_above():
    src = (
        "import time\n"
        "# repro-check: disable=RC101 (host harness timing)\n"
        "t0 = time.time()\n"
    )
    assert lint(src, SIM_PATH) == []


def test_rc001_suppression_without_justification_suppresses_nothing():
    src = (
        "import time\n"
        "t0 = time.time()  # repro-check: disable=RC101\n"
    )
    assert sorted(rule_ids(lint(src, SIM_PATH))) == ["RC001", "RC101"]


def test_rc002_unknown_rule_in_suppression():
    src = "x = 1  # repro-check: disable=RC999 (no such rule)\n"
    assert rule_ids(lint(src, HOST_PATH)) == ["RC002"]


def test_suppression_covers_only_named_rules():
    src = (
        "import time, random\n"
        "t0 = time.time()  # repro-check: disable=RC102 (wrong rule named)\n"
    )
    # The wrong-rule directive does not silence RC101, and RC003 flags
    # it as orphaned: RC102 never fires on the covered line.
    assert rule_ids(lint(src, SIM_PATH)) == ["RC101", "RC003"]


def test_rc000_syntax_error():
    findings = lint("def broken(:\n", HOST_PATH)
    assert rule_ids(findings) == ["RC000"]


# ---------------------------------------------------------------------------
# output formatting and the repo-wide self-test
# ---------------------------------------------------------------------------

def test_finding_format_and_render():
    finding = Finding("src/x.py", 3, 4, "RC101", "msg", "hint text")
    assert finding.format() == "src/x.py:3:4: RC101 msg (hint: hint text)"
    rendered = render_findings([finding, finding])
    assert "RC101 x2" in rendered and "2 findings" in rendered
    assert render_findings([]) == "repro check: no findings"


def test_repo_is_clean(tmp_path):
    """The acceptance gate: the analyzer finds nothing in the repo itself."""
    findings = check_paths([REPO_ROOT / "src", REPO_ROOT / "tests"],
                           flow=False, inter=False, cache_dir=tmp_path,
                           use_cache=False).findings
    assert findings == [], render_findings(findings)


# ---------------------------------------------------------------------------
# runtime checker: installation seam
# ---------------------------------------------------------------------------

def test_checker_seam_is_off_by_default():
    assert check_hooks.checker is None


def test_install_is_exclusive():
    with RuntimeChecker().installed():
        with pytest.raises(RuntimeError):
            RuntimeChecker().install()
    assert check_hooks.checker is None


def test_uninstalled_runs_leave_no_instrumentation_state():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    p = eng.process(proc())
    eng.run()
    assert not hasattr(p, "_vc")


# ---------------------------------------------------------------------------
# runtime checker: RT101 races
# ---------------------------------------------------------------------------

def _touch(key, write, detail="dset[0+4]"):
    """Access tracked shared state the way objects.py instrumentation does."""
    ck = check_hooks.checker
    if ck is not None:
        ck.on_state(key, write=write, detail=detail)


def test_rt101_unsynchronized_writers_race():
    eng = Engine()
    key = ("region", 0, 4)

    def writer(delay):
        yield eng.timeout(delay)
        _touch(key, write=True)

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(writer(1.0))
        eng.process(writer(2.0))
        eng.run()
    assert [f.rule_id for f in checker.report()] == ["RT101"]


def test_rt101_read_write_race():
    eng = Engine()
    key = ("region", 0, 4)

    def reader():
        yield eng.timeout(1.0)
        _touch(key, write=False)

    def writer():
        yield eng.timeout(2.0)
        _touch(key, write=True)

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(reader())
        eng.process(writer())
        eng.run()
    assert [f.rule_id for f in checker.report()] == ["RT101"]


def test_queue_handoff_orders_accesses():
    """put -> get is a happens-before edge: producer/consumer is clean."""
    eng = Engine()
    key = ("region", 0, 4)
    q = Queue(eng, name="work")

    def producer():
        yield eng.timeout(1.0)
        _touch(key, write=True)
        q.put("item")

    def consumer():
        item = yield q.get()
        assert item == "item"
        _touch(key, write=True)

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(producer())
        eng.process(consumer())
        eng.run()
    assert checker.report() == []


def test_mutex_orders_accesses():
    eng = Engine()
    key = ("region", 0, 4)
    mutex = Mutex(eng, name="m")

    def writer(delay):
        yield eng.timeout(delay)
        yield mutex.acquire()
        _touch(key, write=True)
        mutex.release()

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(writer(1.0))
        eng.process(writer(2.0))
        eng.run()
    assert checker.report() == []


def test_reads_do_not_race_with_reads():
    eng = Engine()
    key = ("region", 0, 4)

    def reader(delay):
        yield eng.timeout(delay)
        _touch(key, write=False)

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(reader(1.0))
        eng.process(reader(2.0))
        eng.run()
    assert checker.report() == []


# ---------------------------------------------------------------------------
# runtime checker: RT2xx leaks
# ---------------------------------------------------------------------------

def test_rt201_leaked_reservation():
    from repro.hdf5.async_vol import StagingBuffer

    eng = Engine()
    buf = StagingBuffer(eng, capacity=1024.0, name="stage")

    def leaky():
        res = yield from buf.reserve(128.0)
        assert res.state == "held"
        # ... and never releases it.

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(leaky())
        eng.run()
        assert [f.rule_id for f in checker.findings] == ["RT201"]


def test_reservation_released_is_clean():
    from repro.hdf5.async_vol import StagingBuffer

    eng = Engine()
    buf = StagingBuffer(eng, capacity=1024.0, name="stage")

    def tidy():
        res = yield from buf.reserve(128.0)
        yield eng.timeout(1.0)
        res.release()

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(tidy())
        eng.run()
    assert checker.report() == []


def test_rt202_undrained_eventset():
    from repro.hdf5.eventset import EventSet

    eng = Engine()
    checker = RuntimeChecker()
    with checker.installed():
        # repro-check: disable=RC401 (deliberate leak: RT202 fixture)
        es = EventSet(eng, name="es0")
        es.add(eng.event(name="op"))  # never triggered, never waited
        eng.run()
    assert [f.rule_id for f in checker.report()] == ["RT202"]


def test_rt203_swallowed_failure():
    eng = Engine()
    checker = RuntimeChecker()
    with checker.installed():
        ev = eng.event(name="doomed")
        ev.fail(ValueError("boom"))
        eng.run()
    findings = checker.report()
    assert [f.rule_id for f in findings] == ["RT203"]
    assert "doomed" in findings[0].format()


def test_rt203_not_raised_when_failure_is_awaited():
    eng = Engine()

    def waiter(ev):
        try:
            yield ev
        except ValueError:
            pass

    def failer(ev):
        yield eng.timeout(1.0)
        ev.fail(ValueError("boom"))

    checker = RuntimeChecker()
    with checker.installed():
        # Failure arrives while a waiter is already registered.
        ev = eng.event(name="doomed")
        eng.process(waiter(ev))
        eng.process(failer(ev))
        eng.run()
        # Failure arrives first; the waiter observes it on wakeup.
        ev2 = eng.event(name="late-fail")
        eng.process(waiter(ev2))
        ev2.fail(ValueError("boom"))
        eng.run()
    assert checker.report() == []


def test_rt204_parked_process():
    eng = Engine()

    def stuck():
        yield eng.event(name="never")

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(stuck())
        eng.run()
    findings = checker.report()
    assert [f.rule_id for f in findings] == ["RT204"]
    assert "never" in findings[0].format()


def test_assert_clean_raises_with_report():
    eng = Engine()

    def stuck():
        yield eng.event(name="never")

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(stuck())
        eng.run()
    with pytest.raises(AssertionError, match="RT204"):
        checker.assert_clean()


def test_drain_flush_isolates_sequential_runs():
    """Accesses from separate engine drains never race with each other."""
    eng = Engine()
    key = ("region", 0, 4)

    def writer(delay):
        yield eng.timeout(delay)
        _touch(key, write=True)

    checker = RuntimeChecker()
    with checker.installed():
        eng.process(writer(1.0))
        eng.run()
        eng.process(writer(1.0))
        eng.run()
    assert checker.drains == 2
    assert checker.report() == []


# ---------------------------------------------------------------------------
# runtime checker: the observational guarantee, end to end
# ---------------------------------------------------------------------------

def test_checker_is_observational_on_async_pipeline():
    """The ``check --runtime smoke`` gate: an instrumented async VPIC run
    emits a byte-identical trace and reports nothing."""
    from repro.cli import _runtime_smoke_text

    baseline = _runtime_smoke_text()
    checker = RuntimeChecker()
    with checker.installed():
        checked = _runtime_smoke_text()
    assert checked == baseline
    assert checker.report() == []
    assert checker.drains > 0


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

def test_cli_check_exits_nonzero_on_bad_file(tmp_path):
    from repro.cli import main

    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt0 = time.time()\n", encoding="utf-8")
    assert main(["check", "--cache-dir", str(tmp_path / "cache"),
                 str(bad)]) == 1


def test_cli_check_exits_zero_on_clean_file(tmp_path, capsys):
    from repro.cli import main

    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert main(["check", "--cache-dir", str(tmp_path / "cache"),
                 str(good)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_check_missing_path_is_a_one_line_error(tmp_path):
    from repro.cli import main

    missing = tmp_path / "nonexistent_dir"
    for flags in ([], ["--flow"], ["--inter"], ["--concurrency"],
                  ["--stats"]):
        with pytest.raises(SystemExit) as exc:
            main(["check", *flags, "--cache-dir", str(tmp_path / "cache"),
                  str(missing)])
        assert exc.value.code == \
            f"repro check: not a python file or directory: {missing}"


def test_simulator_imports_no_analyzer():
    # ``repro.check`` re-exports the analyzer lazily: the simulator
    # reaches it only for the hooks, and must not load the rules.
    code = ("import sys, repro.sim.network; print(sorted(m for m in "
            "sys.modules if m.startswith('repro.check')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(REPO_ROOT / "src")}).stdout
    assert out.strip() == "['repro.check', 'repro.check.hooks']"


def test_cli_list_rules(capsys):
    from repro.cli import main

    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out
