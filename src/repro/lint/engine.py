"""The papi-lint engine: parse, analyze, suppress, sort.

One entry point per input kind:

- :func:`lint_source` / :func:`lint_file` lint a Python instrumentation
  script: the lifecycle analysis (:mod:`repro.lint.flow`, one typestate
  fixpoint per scope) runs first, then the AST checker
  (:mod:`repro.lint.apilint`, with its embedded feasibility and
  preset-table hooks) reads run state from its facts;
- the feasibility and preset-table analyzers are also usable directly
  via :mod:`repro.lint.feasibility` and :mod:`repro.lint.presetlint`
  for the ``check-events`` / ``check-presets`` CLI verbs.

The lifecycle analysis reports each hazard once: as a PL0xx
*must*-finding when it holds on every path (kept in every mode), or as
a PL3xx/PL4xx *may*-finding otherwise (kept only with ``flow=True``).
Any finding is reported at most once per ``(rule, file, line, col)``.

A file that does not parse (or decode) yields exactly one PL900
diagnostic rather than raising -- linters report, they do not crash.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.lint.apilint import ApiLinter
from repro.lint.diagnostics import (
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
    sort_diagnostics,
)
from repro.lint.flow import lint_flow
from repro.lint.rules import is_path_dependent


def dedupe_diagnostics(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """At most one finding per (rule, file, line, col), first one wins."""
    seen: Set[Tuple[str, str, int, int]] = set()
    kept: List[Diagnostic] = []
    for diag in diagnostics:
        key = (diag.code, diag.path, diag.line, diag.col)
        if key in seen:
            continue
        seen.add(key)
        kept.append(diag)
    return kept


def lint_source(
    source: str,
    path: str = "<string>",
    default_platform: Optional[str] = None,
    flow: bool = False,
) -> List[Diagnostic]:
    """Lint Python *source*; returns sorted, suppression-filtered findings.

    *default_platform* supplies a platform for feasibility checks when
    the script itself does not pin one statically (the CLI's
    ``--platform`` flag).  *flow* also keeps the lifecycle analysis's
    path-dependent PL3xx/PL4xx findings.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            "PL900", path, exc.lineno or 0, (exc.offset or 1) - 1,
            f"cannot parse: {exc.msg}",
        )]
    lifecycle = lint_flow(tree, path)
    linter = ApiLinter(
        path, default_platform=default_platform,
        run_state=lifecycle.run_state,
    )
    diagnostics = linter.lint(tree) + [
        d for d in lifecycle.diagnostics
        if flow or not is_path_dependent(d.code)
    ]
    if not diagnostics:
        return diagnostics
    diagnostics = apply_suppressions(
        dedupe_diagnostics(diagnostics), parse_suppressions(source)
    )
    return sort_diagnostics(diagnostics)


def lint_file(
    path: str,
    default_platform: Optional[str] = None,
    flow: bool = False,
) -> List[Diagnostic]:
    """Lint one file on disk (unreadable files become PL900)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return [Diagnostic(
            "PL900", path, 0, 0, f"cannot read file: {exc.strerror}",
        )]
    except UnicodeDecodeError as exc:
        return [Diagnostic(
            "PL900", path, 0, 0, f"cannot decode file as UTF-8: {exc.reason}",
        )]
    return lint_source(
        source, path, default_platform=default_platform, flow=flow
    )
