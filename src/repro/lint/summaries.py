"""Interprocedural function summaries for the flow-sensitive linter.

Instrumentation scripts routinely wrap counter control in helpers::

    def start_counters(es):
        es.start()

    def report(es):
        print(es.read())
        es.stop()

An intraprocedural analysis sees nothing wrong with either the helpers
(the parameter's state is unknown) or the call sites (the calls are
opaque).  This module closes the gap with per-function **summaries**:
for every module-level function and every parameter, the typestate
analysis is re-run three times with the parameter seeded to each
concrete lifecycle state, recording

- which misuse rules fire for that entry state, and
- the set of lifecycle states the parameter can be in on exit.

The caller-side transfer (:mod:`repro.lint.typestate`) then plays a
call as a table lookup: violations become diagnostics at the call site
when at least one of the argument's possible states triggers them, and
the argument's state set is rewritten through the exit-state map.
Functions whose summary cannot be computed (recursion, too many
parameters) degrade soundly: calls to them havoc the argument's state
to fully-unknown, which silences downstream reports instead of
inventing them.

A second, standalone run per function records the lifecycle states of
any locally created EventSet the function returns, so factory helpers
(``def make(): es = papi.create_eventset(); ... ; return es``) hand the
caller a tracked object instead of an untyped value.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import solve
from repro.lint.typestate import (
    ALL_STATES,
    FunctionSummary,
    ParamEffect,
    TypestateAnalysis,
    eval_expr_values,
    param_id,
)

#: summaries are skipped above this arity (3 analysis runs per param)
MAX_SUMMARY_PARAMS = 6


def collect_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Module-level plain functions, by name (latest definition wins)."""
    out: Dict[str, ast.FunctionDef] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            out[stmt.name] = stmt
    return out


def _called_names(fn: ast.FunctionDef) -> Set[str]:
    """Names of module-level functions *fn* may call (by bare name)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


def _topo_order(
    functions: Dict[str, ast.FunctionDef]
) -> Tuple[List[str], Set[str]]:
    """Callee-first ordering; members of call cycles are flagged.

    A function on a cycle gets no summary (calls to it havoc the
    arguments), which is the sound fallback for recursion.
    """
    callees = {
        name: _called_names(fn) & set(functions)
        for name, fn in functions.items()
    }
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = in progress, 2 = done
    cyclic: Set[str] = set()

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            cyclic.add(name)
            return
        state[name] = 1
        for callee in sorted(callees[name]):
            visit(callee)
        state[name] = 2
        order.append(name)

    for name in sorted(functions):
        visit(name)
    return order, cyclic


def _param_names(fn: ast.FunctionDef) -> List[str]:
    return [a.arg for a in fn.args.args]


def _returns_states(
    fn: ast.FunctionDef,
    cfg,
    summaries: Dict[str, FunctionSummary],
    params: List[str],
) -> Optional[FrozenSet[str]]:
    """Lifecycle states of a locally created EventSet *fn* returns."""
    analysis = TypestateAnalysis(summaries, params)
    ins, _outs = solve(cfg, analysis)
    states: Set[str] = set()
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        vals, objs = eval_expr_values(analysis, ins[node.id], stmt.value)
        for val in vals:
            if val.startswith(("es@", "ret@")) and val in objs:
                states |= objs[val].state_names
    return frozenset(states) if states else None


def _param_effect(
    fn: ast.FunctionDef,
    cfg,
    summaries: Dict[str, FunctionSummary],
    params: List[str],
    index: int,
    entry_state: str,
) -> ParamEffect:
    """Run the analysis with one parameter seeded to *entry_state*."""
    oid = param_id(index)
    analysis = TypestateAnalysis(
        summaries, params, seed_param=(index, entry_state)
    )
    ins, _outs = solve(cfg, analysis)

    violations: List[Tuple[str, str]] = []

    def sink(rule, line, col, objid, method, message, hint):
        if objid == oid and (rule, method) not in violations:
            violations.append((rule, method))

    analysis.sink = sink
    for node in cfg.stmt_nodes():
        analysis.transfer(node, ins[node.id])
    analysis.sink = None

    exit_fact = ins[cfg.exit].objs_dict().get(oid)
    if exit_fact is not None and exit_fact.states:
        exit_states = exit_fact.state_names
    else:
        # no normal exit keeps the object for this entry state (the
        # function raises or loops on it): the caller's continuation
        # never sees it, so there is nothing to propagate.
        exit_states = frozenset()
    return ParamEffect(
        exit_states=exit_states, violations=tuple(violations)
    )


def compute_summaries(
    functions: Dict[str, ast.FunctionDef]
) -> Dict[str, FunctionSummary]:
    """Summaries for every summarizable module-level function."""
    order, cyclic = _topo_order(functions)
    summaries: Dict[str, FunctionSummary] = {}
    for name in order:
        if name in cyclic:
            continue
        fn = functions[name]
        params = _param_names(fn)
        if len(params) > MAX_SUMMARY_PARAMS:
            continue
        try:
            cfg = build_cfg(fn.body)
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        summary = FunctionSummary(name=name, params=params)
        summary.returns_states = _returns_states(
            fn, cfg, summaries, params
        )
        interesting = False
        for i in range(len(params)):
            effects = {
                state: _param_effect(fn, cfg, summaries, params, i, state)
                for state in sorted(ALL_STATES)
            }
            # only keep effects that actually constrain the caller:
            # identity transfers with no violations are noise.
            if any(
                e.violations or e.exit_states != frozenset({s})
                for s, e in effects.items()
            ):
                summary.effects[i] = effects
                interesting = True
        if interesting or summary.returns_states is not None:
            summaries[name] = summary
    return summaries
