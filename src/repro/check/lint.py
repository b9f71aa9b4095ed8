"""AST-based static analyzer enforcing the repo's invariants.

Every finding carries a stable rule ID, the offending location and a
fix hint.  Violations can be suppressed — with a written justification
— by a comment on the offending line or on a comment-only line
directly above it::

    t0 = time.time()  # repro-check: disable=RC101 (host-side harness timing)

A suppression without a justification does not suppress anything and
is itself reported (RC001); an unknown rule ID in a suppression is
reported too (RC002), so stale directives cannot rot silently.  A valid
directive whose rule *ran* but produced nothing on the covered lines is
orphaned and reported as RC003 — suppressions must die with the finding
they silenced.  Rules whose tier did not run (flow rules without
``--flow``, inter rules without ``--inter``, conc rules without
``--concurrency``) are not audited, since "no finding" proves nothing
there.

Every tier lints through :func:`repro.check.driver.check_paths`, which
hands :func:`lint_source` one per-run context.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib
import re
import tokenize
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Dict, Iterable, List, Sequence, Set,
                    Tuple, Union)

from repro.check.nodetable import NodeTable
from repro.check.rules import RULES, LintContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.summaries import InterContext

__all__ = ["Finding", "findings_to_json", "findings_to_sarif",
           "lint_source", "read_source", "render_findings",
           "suppression_stats", "syntax_error_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str
    #: Stable identity for baselines: sha256 of rule + path + the
    #: stripped source line + an occurrence counter — line-number-free,
    #: so unrelated edits above do not re-key it.
    fingerprint: str = ""

    def format(self) -> str:
        """``path:line:col: RCxyz message (hint: ...)``."""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
                f"{self.message} (hint: {self.hint})")


def _with_fingerprints(findings: List[Finding],
                       lines: Sequence[str]) -> List[Finding]:
    """Stamp stable fingerprints onto one file's (sorted) findings."""
    counts: Dict[Tuple[str, str], int] = {}
    out: List[Finding] = []
    for f in findings:
        context = (lines[f.line - 1].strip()
                   if 0 < f.line <= len(lines) else "")
        occurrence = counts.get((f.rule_id, context), 0)
        counts[(f.rule_id, context)] = occurrence + 1
        blob = "\x1f".join((f.rule_id, f.path, context, str(occurrence)))
        out.append(replace(f, fingerprint=hashlib.sha256(
            blob.encode("utf-8")).hexdigest()[:20]))
    return out


_SUPPRESS_RE = re.compile(
    r"#\s*repro-check:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:\((.*)\))?\s*$"
)

_META_HINTS = {
    "RC000": "fix the syntax error; unparseable files cannot be checked",
    "RC001": "add a justification: "
             "# repro-check: disable=RCxyz (why this is safe here)",
    "RC002": "use a registered rule ID (see 'repro check --list-rules')",
    "RC003": "the suppressed rule no longer fires here; delete the "
             "stale directive",
}


@dataclass(frozen=True)
class _Directive:
    """One parsed ``repro-check: disable=`` comment."""

    line: int
    col: int
    rule_ids: tuple[str, ...]
    reason: str

    @property
    def valid(self) -> bool:
        return bool(self.reason.strip())


def _string_spans(nodes: Iterable[ast.AST]
                  ) -> List[Tuple[int, int, int, int]]:
    """(start line, start col, end line, end col) of every *multi-line*
    string constant among ``nodes`` (a whole tree's) — directive-looking
    text inside one is data, not a directive.  Single-line strings
    cannot match ``_SUPPRESS_RE`` (the closing quote breaks its
    end-of-line anchor), so they are skipped.
    """
    spans: List[Tuple[int, int, int, int]] = []
    for node in nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end_line = node.end_lineno or node.lineno
            if end_line > node.lineno:
                spans.append((node.lineno, node.col_offset, end_line,
                              node.end_col_offset or 0))
    return spans


def _in_string(spans: List[Tuple[int, int, int, int]], line: int,
               col: int) -> bool:
    for start_line, start_col, end_line, end_col in spans:
        if start_line < line < end_line:
            return True
        if line == start_line and line < end_line and col > start_col:
            return True
        if start_line < line and line == end_line and col < end_col:
            return True
    return False


def _parse_directives(path: str, lines: Sequence[str],
                      nodes: Iterable[ast.AST]
                      ) -> tuple[list[_Directive], list[Finding]]:
    """Extract suppression directives and the meta-findings they earn;
    ``nodes`` are the parsed file's (none when it did not parse)."""
    directives: list[_Directive] = []
    meta: list[Finding] = []
    spans = _string_spans(nodes)
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        if _in_string(spans, lineno, match.start()):
            continue
        rule_ids = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        directive = _Directive(
            line=lineno, col=match.start(), rule_ids=rule_ids,
            reason=match.group(2) or "",
        )
        directives.append(directive)
        if not directive.valid:
            meta.append(Finding(
                path, lineno, directive.col, "RC001",
                "suppression without a justification (it suppresses "
                "nothing)", _META_HINTS["RC001"],
            ))
        for rule_id in rule_ids:
            if rule_id not in RULES:
                meta.append(Finding(
                    path, lineno, directive.col, "RC002",
                    f"suppression names unknown rule {rule_id!r}",
                    _META_HINTS["RC002"],
                ))
    return directives, meta


def _covers(directive: _Directive, lines: Sequence[str],
            line: int) -> bool:
    """Whether ``directive`` covers findings on ``line`` — same line,
    or a comment-only line directly above it."""
    if directive.line == line:
        return True
    if directive.line == line - 1:
        above = lines[directive.line - 1].strip()
        if above.startswith("#"):
            return True
    return False


def _suppressed_at(directives: list[_Directive], lines: Sequence[str],
                   rule_id: str, line: int) -> bool:
    """Whether a *valid* directive covers ``rule_id`` on ``line``."""
    return any(
        directive.valid and rule_id in directive.rule_ids
        and _covers(directive, lines, line)
        for directive in directives
    )


def _orphaned_suppressions(path: str, directives: list[_Directive],
                           lines: Sequence[str],
                           raw: List[Tuple[str, int]],
                           executed: Set[str]) -> list[Finding]:
    """RC003 for every valid directive whose rule ran but hit nothing."""
    out: list[Finding] = []
    for directive in directives:
        if not directive.valid:
            continue
        for rule_id in directive.rule_ids:
            if rule_id not in RULES or rule_id not in executed:
                continue
            hit = any(raw_rule == rule_id and _covers(directive, lines,
                                                      raw_line)
                      for raw_rule, raw_line in raw)
            if not hit:
                out.append(Finding(
                    path, directive.line, directive.col, "RC003",
                    f"orphaned suppression: {rule_id} no longer fires "
                    f"on the covered line", _META_HINTS["RC003"],
                ))
    return out


def syntax_error_findings(path: str, err: SyntaxError,
                          lines: Sequence[str] = ()) -> List[Finding]:
    """The RC000 finding of a file Python cannot compile (or decode)."""
    return _with_fingerprints([Finding(
        path, err.lineno or 1, (err.offset or 1) - 1, "RC000",
        f"syntax error: {err.msg}", _META_HINTS["RC000"],
    )], lines)


def lint_source(source: str, path: str, ctx: "InterContext",
                flow: bool = False, inter: bool = False,
                concurrency: bool = False) -> list[Finding]:
    """Lint one file of the run ``ctx``; ``path`` drives rule scoping.

    The rules walk the context's own tree for ``path`` (``source`` must
    be the text it was parsed from) and share its resolver and CFGs; a
    file the context could not parse is reported as RC000.  The flags
    pick the tiers: the flat rules always run, ``flow`` adds the
    flow-sensitive tier (RC4xx typestate, RC5xx units), ``inter`` the
    interprocedural rules (RC405/RC110/RC111; the context carries the
    summaries they and the sharpened flow rules consult) and
    ``concurrency`` the conc tier (RC6xx; the context carries the
    assembled :class:`~repro.check.concurrency.ConcIndex`).
    """
    path = pathlib.PurePath(path).as_posix()
    lines = source.splitlines()
    if path not in ctx.tables:
        try:
            ast.parse(source, filename=path)
        except SyntaxError as err:
            return syntax_error_findings(path, err, lines)
        raise ValueError(f"{path} parses but is not in the run's context")
    lint_ctx = LintContext(path=path, inter=ctx.own_view(path))
    tiers = {"flat": True, "flow": flow, "inter": inter,
             "conc": concurrency}
    directives, findings = _parse_directives(path, lines, lint_ctx.nodes)
    raw: List[Tuple[str, int]] = []
    executed: Set[str] = set()
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        if not tiers[rule.tier] or not rule.applies(lint_ctx):
            continue
        executed.add(rule.id)
        for line, col, message in rule.check(lint_ctx):
            raw.append((rule.id, line))
            if _suppressed_at(directives, lines, rule.id, line):
                continue
            findings.append(Finding(path, line, col, rule.id, message,
                                    rule.hint))
    findings.extend(
        _orphaned_suppressions(path, directives, lines, raw, executed))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return _with_fingerprints(findings, lines)


def _iter_python_files(paths: Iterable[Union[str, pathlib.Path]]
                       ) -> dict[str, pathlib.Path]:
    """Every ``*.py`` file under ``paths`` (files or directories), keyed
    by its posix path: in argument order, each once even when named
    twice."""
    files: dict[str, pathlib.Path] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.py"))
        elif path.suffix == ".py" and path.is_file():
            found = [path]
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
        for file_path in found:
            files.setdefault(pathlib.PurePath(str(file_path)).as_posix(),
                             file_path)
    return files


def read_source(file_path: pathlib.Path) -> str:
    """The file's text as Python decodes a module (BOM or PEP 263
    coding cookie, else UTF-8; universal newlines).  A file Python
    cannot decode raises the ``SyntaxError`` Python raises for it."""
    try:
        with tokenize.open(file_path) as fh:
            return fh.read()
    except (SyntaxError, UnicodeDecodeError) as err:
        # Compiling the bytes raises Python's own error, naming the line.
        ast.parse(file_path.read_bytes())
        raise SyntaxError(str(err)) from err


def suppression_stats(paths: Iterable[Union[str, pathlib.Path]]
                      ) -> dict:
    """Every suppression directive under ``paths`` (``--stats``)."""
    entries: list[dict] = []
    for posix, file_path in _iter_python_files(paths).items():
        try:
            text = read_source(file_path)
        except SyntaxError:
            continue  # undecodable: no directive in it can be read
        lines = text.splitlines()
        try:
            nodes: Iterable[ast.AST] = NodeTable(
                ast.parse(text, filename=posix)).nodes
        except SyntaxError:
            nodes = ()
        directives, _ = _parse_directives(posix, lines, nodes)
        for directive in directives:
            entries.append({
                "path": posix,
                "line": directive.line,
                "rules": list(directive.rule_ids),
                "reason": directive.reason.strip(),
                "valid": directive.valid,
            })
    return {"count": len(entries), "suppressions": entries}


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Machine-readable findings: a stable JSON document for CI."""
    return json.dumps({
        "tool": "repro check",
        "count": len(findings),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule_id": f.rule_id,
                "message": f.message,
                "hint": f.hint,
                "fingerprint": f.fingerprint,
            }
            for f in findings
        ],
    }, indent=2, sort_keys=False)


def findings_to_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 document (GitHub code-scanning annotations).

    Rule metadata comes from the registry; the meta rules (RC000-RC002)
    are included so suppression-hygiene findings annotate too.
    """
    rule_ids = sorted(set(RULES) | set(_META_HINTS))
    rules = []
    for rule_id in rule_ids:
        rule = RULES.get(rule_id)
        if rule is not None:
            description = rule.title
            help_text = rule.hint
        else:
            description = "repro check meta finding"
            help_text = _META_HINTS[rule_id]
        rules.append({
            "id": rule_id,
            "shortDescription": {"text": description},
            "help": {"text": help_text},
        })
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = [
        {
            "ruleId": f.rule_id,
            "ruleIndex": index[f.rule_id],
            "level": "error",
            "message": {"text": f"{f.message} (hint: {f.hint})"},
            "partialFingerprints": {"reproCheck/v1": f.fingerprint},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": f.line,
                        "startColumn": f.col + 1,
                    },
                },
            }],
        }
        for f in findings
    ]
    return json.dumps({
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-check",
                    "informationUri": "https://example.invalid/repro",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }, indent=2)


def render_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a tally."""
    if not findings:
        return "repro check: no findings"
    out = [f.format() for f in findings]
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    tally = ", ".join(f"{rule_id} x{count}"
                      for rule_id, count in sorted(by_rule.items()))
    out.append(f"repro check: {len(findings)} finding"
               f"{'s' if len(findings) != 1 else ''} ({tally})")
    return "\n".join(out)
