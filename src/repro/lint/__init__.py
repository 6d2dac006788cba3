"""papi-lint: static analysis for PAPI counter programs.

Five analyzers behind one diagnostic engine (see DESIGN.md):

- **lifecycle** (:mod:`repro.lint.flow` over :mod:`repro.lint.cfg` /
  :mod:`repro.lint.dataflow` / :mod:`repro.lint.typestate` /
  :mod:`repro.lint.summaries`): the one analysis of EventSet, HighLevel,
  thread and counter-bind lifecycles -- a CFG-based, path-sensitive,
  interprocedural typestate fixpoint.  A misuse on every path is a
  PL0xx *must*-finding; one on some paths only is a PL3xx/PL4xx
  *may*-finding, reported with ``--flow``;
- **API misuse** (:mod:`repro.lint.apilint`, the remaining PL0xx
  rules): an AST walk over event names, components, multiplexing and
  overflow configuration, interface mixing and swallowed errors;
- **static feasibility** (:mod:`repro.lint.feasibility`, PL1xx):
  decides counter allocability without executing, reusing the runtime
  allocator's bipartite matching over the platform tables;
- **preset-table validation** (:mod:`repro.lint.presetlint`, PL2xx):
  dangling natives, malformed mappings, FMA normalization, semantic
  drift versus the catalogue's reference vectors;
- **static counter oracle** (:mod:`repro.lint.staticoracle`): affine
  bounds on every architecturally-determined signal of a machine
  program, derived without executing it, bracketing the exact oracle.

CLI: ``python -m repro.tools.cli lint | check-events | check-presets``
or simply ``python -m repro.lint <files>``.
"""

from repro.lint.diagnostics import (
    JSON_SCHEMA,
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
    render_json,
    render_text,
    sort_diagnostics,
    worst_severity,
)
from repro.lint.engine import (
    dedupe_diagnostics,
    lint_file,
    lint_source,
)
from repro.lint.feasibility import (
    EventResolution,
    FeasibilityReport,
    check_events,
    portability_matrix,
    resolve_event,
)
from repro.lint.presetlint import (
    lint_mapping,
    lint_platform_table,
    lint_preset_tables,
)
from repro.lint.rules import RULES, Rule, Severity, rule
from repro.lint.sarif import render_sarif, to_sarif
from repro.lint.staticoracle import (
    AffineReport,
    Interval,
    SignalBounds,
    StaticOracleError,
    TraceCertificate,
    static_signal_bounds,
    trace_certificates,
    verify_block_affine,
)

__all__ = [
    "AffineReport",
    "Diagnostic",
    "EventResolution",
    "FeasibilityReport",
    "Interval",
    "JSON_SCHEMA",
    "RULES",
    "Rule",
    "Severity",
    "SignalBounds",
    "StaticOracleError",
    "TraceCertificate",
    "apply_suppressions",
    "check_events",
    "dedupe_diagnostics",
    "lint_file",
    "lint_mapping",
    "lint_platform_table",
    "lint_preset_tables",
    "lint_source",
    "parse_suppressions",
    "portability_matrix",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_event",
    "rule",
    "sort_diagnostics",
    "static_signal_bounds",
    "to_sarif",
    "trace_certificates",
    "verify_block_affine",
    "worst_severity",
]
