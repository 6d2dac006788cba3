"""Driver for papi-lint's lifecycle analysis (PL0xx must-, PL3xx/PL4xx
may-findings).

Per scope (the module body and every function body, nested included):

1. build the CFG (:mod:`repro.lint.cfg`);
2. run the typestate analysis to fixpoint (:mod:`repro.lint.dataflow` /
   :mod:`repro.lint.typestate`) with interprocedural summaries
   (:mod:`repro.lint.summaries`) for module-level helpers;
3. replay every node's transfer against its final IN fact with a
   diagnostic sink attached (the run-control and thread rules fire
   inside transfers, each as a must- or a may-finding);
4. inspect the scope's exit facts for lifecycle leaks: a set running on
   every path to normal exit (PL008), a set still running at normal
   exit on an exception-tainted path (PL303), and a set still running
   after an exception-path ``finally`` ran (PL304).

The fixpoint's IN facts are kept per statement (:class:`FlowReport`) so
the AST pass reads run state at a call site from them instead of
tracking a second running bit.

Plus one syntactic rule, PL305: a loop whose ``except`` catches only
*fatal* PAPI error classes (from :mod:`repro.core.errors`) and whose
handler neither re-raises, breaks, returns nor adapts the request is a
blind retry of a request that can never succeed -- the recovery ladder
(:mod:`repro.core.resilience`) exists precisely so scripts do not do
this by hand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.errors import FATAL_ERROR_NAMES
from repro.lint.cfg import build_cfg, handler_names
from repro.lint.dataflow import solve
from repro.lint.diagnostics import Diagnostic
from repro.lint.summaries import collect_functions, compute_summaries
from repro.lint.typestate import (
    ALL_STATES,
    RUNNING,
    FlowFact,
    TypestateAnalysis,
    is_eventset,
    is_local,
    join_facts,
)

@dataclass
class FlowReport:
    """One module's lifecycle findings plus its per-statement facts.

    Findings are not deduplicated here: a ``finally`` body analyzed
    once per exit kind may report the same one twice, and the engine
    keeps one per ``(rule, file, line, col)``.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: id(statement) -> fixpoint IN fact (joined over the statement's
    #: CFG copies; unreachable statements have none)
    facts: Dict[int, FlowFact] = field(default_factory=dict)

    def run_state(self, stmt: ast.AST) -> FrozenSet[str]:
        """Objects that may be running when *stmt* starts executing."""
        fact = self.facts.get(id(stmt))
        if fact is None:
            return frozenset()
        return frozenset(oid for oid, obj in fact.objs if obj.may_run)


def lint_flow(tree: ast.Module, path: str) -> FlowReport:
    """Run the lifecycle analysis over one parsed module."""
    scopes: List[Tuple[Sequence[ast.stmt], List[str]]] = [(tree.body, [])]
    called: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.body, [a.arg for a in node.args.args]))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    # a summary is only ever looked up at a call by bare name
    summaries = compute_summaries({
        name: fn for name, fn in collect_functions(tree).items()
        if name in called
    })

    report = FlowReport()
    for body, params in scopes:
        _analyze_scope(body, params, summaries, path, report)
    _check_recovery_ladder(tree, path, report.diagnostics)
    return report


# ---------------------------------------------------------------------------
# one scope
# ---------------------------------------------------------------------------


def _analyze_scope(
    body: Sequence[ast.stmt],
    params: List[str],
    summaries,
    path: str,
    report: FlowReport,
) -> None:
    cfg = build_cfg(body)
    analysis = TypestateAnalysis(summaries, params)
    try:
        ins, outs = solve(cfg, analysis)
    except RuntimeError:  # pragma: no cover - non-convergence safety valve
        return

    def sink(rule, line, col, objid, method, message, hint):
        report.diagnostics.append(
            Diagnostic(rule, path, line, col, message, hint=hint)
        )

    # replay transfers against the fixpoint IN facts to collect reports
    analysis.sink = sink
    facts = report.facts
    for node in cfg.stmt_nodes():
        fact = ins[node.id]
        analysis.transfer(node, fact)
        if node.kind == "stmt" and not fact.is_bottom:
            key = id(node.stmt)
            facts[key] = join_facts(facts[key], fact) if key in facts \
                else fact
    analysis.sink = None

    _leak_checks(cfg, ins, outs, path, report.diagnostics)


def _leak_checks(
    cfg, ins: Dict[int, FlowFact], outs: Dict[int, FlowFact], path: str,
    found: List[Diagnostic],
) -> None:
    """PL008 / PL303 (running at scope exit) and PL304 (finally misses
    stop)."""

    def leak_candidates(fact: FlowFact):
        for oid, obj in fact.objs:
            if (is_eventset(oid) and obj.started_lines
                    and obj.state_names != ALL_STATES):
                yield oid, obj

    leaked: Set[str] = set()
    for oid, obj in leak_candidates(ins[cfg.exit]):
        if is_local(oid) and obj.live_names == {RUNNING}:
            leaked.add(oid)
            noun = "high-level counters are" if oid.startswith("hl@") \
                else "EventSet is"
            found.append(Diagnostic(
                "PL008", path, max(obj.started_lines), 0,
                f"{noun} started here but never stopped in this scope",
                hint="stop() releases the hardware counters",
            ))
        elif any(s == RUNNING and via for s, via, _failed in obj.states):
            found.append(Diagnostic(
                "PL303", path, min(obj.started_lines), 0,
                "EventSet started here may still be running when "
                "the scope exits: an exception handler on the way "
                "swallows the error and never stops the set",
                hint="stop() in the handler or in a finally; counters "
                     "stay acquired until stop()",
            ))

    for src, _kind in cfg.preds()[cfg.raise_exit]:
        if cfg.nodes[src].kind != "finally_exc":
            continue
        for oid, obj in leak_candidates(outs[src]):
            if oid not in leaked and RUNNING in obj.state_names:
                found.append(Diagnostic(
                    "PL304", path, min(obj.started_lines), 0,
                    "an exception escaping the enclosing try leaves "
                    "the EventSet started here running; the finally "
                    "block does not stop it",
                    hint="add stop() (guarded by is_running) to the "
                         "finally block",
                ))


# ---------------------------------------------------------------------------
# PL305: blind retry of fatal error classes
# ---------------------------------------------------------------------------


def _handler_is_blind(handler: ast.ExceptHandler) -> bool:
    """No re-raise/break/return and no call: nothing can change the
    outcome of the retried request."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Break, ast.Return,
                                 ast.Call)):
                return False
    return True


def _check_recovery_ladder(
    tree: ast.Module, path: str, found: List[Diagnostic]
) -> None:
    # one pass over the tree, remembering whether a loop encloses us
    stack: List[Tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_loop = stack.pop()
        inner = in_loop or isinstance(node, (ast.While, ast.For))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
        if not (in_loop and isinstance(node, ast.Try)):
            continue
        for handler in node.handlers:
            names = handler_names(handler)
            if not names or not names <= FATAL_ERROR_NAMES:
                continue
            if not _handler_is_blind(handler):
                continue
            caught = "/".join(sorted(names))
            found.append(Diagnostic(
                "PL305", path, handler.lineno, handler.col_offset,
                f"loop retries after catching {caught}, a fatal "
                f"PAPI error class that cannot clear on its own",
                hint="fatal errors need the request changed (or "
                     "surfaced); only transient errors "
                     "(SystemError_, CountersLostError) belong in "
                     "a retry loop -- see repro.core.resilience",
            ))
