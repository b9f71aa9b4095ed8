"""``repro.check`` — machine-checked repo invariants.

Two halves (see ``docs/architecture.md``, "Static analysis & runtime
checking"):

- :mod:`repro.check.lint` — an AST-based static analyzer enforcing the
  determinism and error-discipline invariants the byte-identical figure
  gates rest on (no wall-clock or unseeded entropy in sim paths, typed
  errors, no bare excepts, no float ``==`` on simulated time, ...).
  Every rule carries an ID and a fix hint; suppressions require a
  written justification.
- :mod:`repro.check.runtime` — an opt-in runtime checker for the
  simulator: a vector-clock happens-before detector for unsynchronized
  shared-state access across simulated processes, plus a resource-leak
  auditor (unreleased ``Reservation``s, un-drained ``EventSet``s,
  un-awaited failed ``SimEvent``s, processes parked forever).

Both are wired into the ``repro check`` CLI subcommand and the CI
``static-analysis`` job.

Import discipline: this package is imported by the hot simulator
modules (through :mod:`repro.check.hooks`), so its eager imports are
stdlib-only.  Every name below — the analyzer's and
:class:`RuntimeChecker`, which imports the engine — is re-exported
lazily.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CheckResult",
    "ConcEffects",
    "ConcIndex",
    "Finding",
    "InterContext",
    "RULES",
    "RuntimeChecker",
    "RuntimeFinding",
    "all_rules",
    "build_conc_index",
    "check_paths",
    "findings_to_json",
    "findings_to_sarif",
    "lint_source",
    "render_findings",
    "suppression_stats",
]

#: Lazily-imported names -> their defining submodule (PEP 562).  Eagerly
#: importing :mod:`repro.check.runtime` here would close an import cycle
#: through :mod:`repro.sim.engine`; the analyzer (the lint front end,
#: every rule module, the driver and the summary machinery) is what the
#: simulator modules importing :mod:`repro.check.hooks` never need.
_LAZY = {
    "Finding": "lint",
    "findings_to_json": "lint",
    "findings_to_sarif": "lint",
    "lint_source": "lint",
    "render_findings": "lint",
    "suppression_stats": "lint",
    "RULES": "rules",
    "all_rules": "rules",
    "RuntimeChecker": "runtime",
    "RuntimeFinding": "runtime",
    "CheckResult": "driver",
    "check_paths": "driver",
    "InterContext": "summaries",
    "ConcEffects": "concurrency",
    "ConcIndex": "concurrency",
    "build_conc_index": "concurrency",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f"repro.check.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
