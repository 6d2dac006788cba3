"""Typestate lattice and transfer functions: papi-lint's lifecycle analysis.

This module is the only place papi-lint tracks run state: EventSet and
HighLevel lifecycles, thread attachment and OS-level counter binds.
The abstract domain tracks, per control-flow point:

- an **environment** mapping variable names to sets of abstract values
  (EventSet/HighLevel/Thread creation sites, PMU references);
- per abstract object a :class:`ObjFact`: the set of *possible*
  lifecycle states -- each element tagged with whether it was reached
  through an exception edge and whether an earlier operation on the
  object already failed on that path -- plus thread-attachment,
  ``bind_cpu`` and OS-level counter-binding facts.

Everything is a finite powerset, joins are elementwise unions (except
``must_bound``, which is an intersection), and all transfers are
elementwise filter/map -- so the worklist solver terminates and the
analysis is monotone by construction.

Rule logic lives here too: after the fixpoint, a report pass re-runs
every node's transfer against its final IN fact with a diagnostic sink
attached.  Every lifecycle check sorts its finding by one rule:

- the violation holds on **every** path and the object comes from a
  creation site in this scope (``create_eventset()``, ``HighLevel()``,
  ``spawn()``): a *must*-finding, reported with its PL0xx code (PL001,
  PL002, PL005, PL007, PL014, PL015, PL016, and PL008 at scope exit);
- otherwise -- some paths only, a function parameter, or a set handed
  back by a helper's summary: a *may*-finding, reported with its
  PL3xx/PL4xx code, which the engine keeps only under ``--flow``.

A must-finding does not narrow the object's state ("the operation
succeeded, so the set was running"): the failing path is kept, tagged
as failed, so a repeat of the same misuse further down is reported
again, one finding per offending call.  Objects whose state is
completely unknown (function parameters before any observed operation,
sets handed to an unknown callee) are never reported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import Node
from repro.lint.dataflow import Analysis
from repro.lint.rules import RULES

# -- lifecycle states ---------------------------------------------------

CREATED = "created"
RUNNING = "running"
STOPPED = "stopped"

ALL_STATES = frozenset({CREATED, RUNNING, STOPPED})

#: (state, via_exception, failed) triples for a fully unknown object.
UNKNOWN_ELEMENTS = frozenset((s, False, False) for s in ALL_STATES)

#: EventSet methods that require the set to be running.
REQUIRES_RUNNING = frozenset({"read", "stop", "reset", "accum"})

#: EventSet methods that require the set NOT to be running.  ``bind_cpu``
#: is here too (the runtime raises IsRunningError for it) but has no
#: PL0xx code, so it is reported as PL302 on every path.
REQUIRES_STOPPED = frozenset({
    "start", "add_event", "add_events", "add_named", "remove_event",
    "cleanup", "set_multiplex", "set_domain", "attach", "detach",
    "overflow", "bind_cpu",
})

#: must-finding code per method; the may-code is PL301 for
#: REQUIRES_RUNNING methods and PL302 for REQUIRES_STOPPED ones.
MUST_RULES: Dict[str, str] = {
    **{m: "PL001" for m in REQUIRES_RUNNING},
    "start": "PL002",
    "overflow": "PL005",
    **{m: "PL007" for m in ("add_event", "add_events", "add_named",
                            "remove_event", "cleanup", "set_multiplex",
                            "set_domain")},
    "attach": "PL014",
    "detach": "PL014",
}

#: HighLevel methods, by the EventSet method whose lifecycle they share.
HIGHLEVEL_METHODS = {
    "start_counters": "start",
    "read_counters": "read",
    "accum_counters": "accum",
    "stop_counters": "stop",
}

#: OS-level virtualized-counter operations requiring a prior bind.
OS_COUNTER_OPS = frozenset({
    "counter_start", "counter_stop", "counter_value", "unbind_counter",
})


# -- abstract values ----------------------------------------------------

PMU_VALUE = "pmu"

#: ``attached`` element for "not attached to any thread on this path".
UNATTACHED = ""


def eventset_id(line: int, col: int) -> str:
    return f"es@{line}:{col}"


def highlevel_id(line: int, col: int) -> str:
    return f"hl@{line}:{col}"


def returned_id(line: int, col: int) -> str:
    """A set handed back by a summarized helper called at (line, col)."""
    return f"ret@{line}:{col}"


def thread_id(line: int, col: int) -> str:
    return f"thread@{line}:{col}"


def param_id(index: int) -> str:
    return f"param:{index}"


def is_eventset(val: str) -> bool:
    """Any object with a lifecycle: local, returned or parameter."""
    return val.startswith(("es@", "hl@", "ret@", "param:"))


def is_local(val: str) -> bool:
    """Created in this scope: its must-findings get PL0xx codes."""
    return val.startswith(("es@", "hl@"))


def is_thread(val: str) -> bool:
    """A spawn site (``thread@``) or an untracked thread expression."""
    return val.startswith(("thread@", "thread:"))


# -- facts --------------------------------------------------------------


@dataclass(frozen=True)
class ObjFact:
    """May-facts about one abstract object (creation site or parameter)."""

    #: lifecycle: (state, reached_via_exception_edge, failed) triples;
    #: ``failed`` marks a path on which an operation on this local
    #: object already violated its precondition (the runtime would
    #: have raised there).
    states: FrozenSet[Tuple[str, bool, bool]] = frozenset()
    #: thread identities this EventSet may currently be attached to
    #: (:data:`UNATTACHED` for paths where it is attached to none)
    attached: FrozenSet[str] = frozenset()
    #: bind_cpu() was called on some path (suppresses sharing hazards)
    bound_cpu: bool = False
    #: source lines where start() was observed (for report anchoring)
    started_lines: FrozenSet[int] = frozenset()
    #: counter indices that MAY be os.bind_counter-bound to this thread
    may_bound: FrozenSet[int] = frozenset()
    #: counter indices bound on EVERY path reaching this point
    must_bound: FrozenSet[int] = frozenset()

    def join(self, other: "ObjFact") -> "ObjFact":
        return ObjFact(
            states=self.states | other.states,
            attached=self.attached | other.attached,
            bound_cpu=self.bound_cpu or other.bound_cpu,
            started_lines=self.started_lines | other.started_lines,
            may_bound=self.may_bound | other.may_bound,
            must_bound=self.must_bound & other.must_bound,
        )

    def mark_exceptional(self) -> "ObjFact":
        return replace(self, states=frozenset(
            (s, True, failed) for s, _via, failed in self.states
        ))

    @property
    def state_names(self) -> FrozenSet[str]:
        return frozenset(s for s, _via, _failed in self.states)

    @property
    def live_names(self) -> FrozenSet[str]:
        """States on the paths where no operation has failed yet, or
        every state once all paths have failed."""
        live = frozenset(s for s, _via, failed in self.states if not failed)
        return live or self.state_names

    @property
    def may_run(self) -> bool:
        """Running on some path, and not merely fully unknown."""
        names = self.state_names
        return RUNNING in names and names != ALL_STATES


#: an object absent on one side of a join: no state, nothing bound
_ABSENT = ObjFact()


@dataclass(frozen=True)
class FlowFact:
    """One program point's abstract state (immutable; value-compared)."""

    env: Tuple[Tuple[str, FrozenSet[str]], ...] = ()
    objs: Tuple[Tuple[str, ObjFact], ...] = ()
    #: the join identity ("this point not reached yet") -- distinct
    #: from an empty-but-reachable fact, which tracks nothing yet but
    #: must still flow through transfers.
    is_bottom: bool = False

    @staticmethod
    def make(
        env: Dict[str, FrozenSet[str]], objs: Dict[str, ObjFact]
    ) -> "FlowFact":
        return FlowFact(
            env=tuple(sorted(env.items())),
            objs=tuple(sorted(objs.items())),
        )

    def env_dict(self) -> Dict[str, FrozenSet[str]]:
        return dict(self.env)

    def objs_dict(self) -> Dict[str, ObjFact]:
        return dict(self.objs)


BOTTOM = FlowFact(is_bottom=True)


def join_facts(a: FlowFact, b: FlowFact) -> FlowFact:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    env_a, env_b = a.env_dict(), b.env_dict()
    env = {
        name: env_a.get(name, frozenset()) | env_b.get(name, frozenset())
        for name in set(env_a) | set(env_b)
    }
    objs_a, objs_b = a.objs_dict(), b.objs_dict()
    objs = {
        oid: objs_a.get(oid, _ABSENT).join(objs_b.get(oid, _ABSENT))
        for oid in set(objs_a) | set(objs_b)
    }
    return FlowFact.make(env, objs)


# -- interprocedural summaries -----------------------------------------


@dataclass(frozen=True)
class ParamEffect:
    """Effect of calling a function on one parameter, per entry state."""

    exit_states: FrozenSet[str]
    #: (rule code, method name) misuses triggered for this entry state
    violations: Tuple[Tuple[str, str], ...] = ()


@dataclass
class FunctionSummary:
    """Net typestate effect of one module-level function."""

    name: str
    params: List[str]
    #: param index -> entry state -> effect
    effects: Dict[int, Dict[str, ParamEffect]] = field(default_factory=dict)
    #: lifecycle states of a locally created EventSet this fn returns
    returns_states: Optional[FrozenSet[str]] = None


# -- the analysis -------------------------------------------------------

#: a sink receives (rule, line, col, objid, method, message, hint)
Sink = Callable[[str, int, int, str, str, str, str], None]


class TypestateAnalysis(Analysis[FlowFact]):
    """Forward may-analysis of PAPI object lifecycles over one scope."""

    def __init__(
        self,
        summaries: Optional[Dict[str, FunctionSummary]] = None,
        param_names: Optional[List[str]] = None,
        seed_param: Optional[Tuple[int, str]] = None,
    ) -> None:
        self.summaries = summaries or {}
        self.param_names = param_names or []
        self.seed_param = seed_param
        #: summary-computation mode: the caller decides may-vs-must, so
        #: record violations even when every path is bad.
        self.must_mode = seed_param is not None
        self.sink: Optional[Sink] = None
        self._node: Optional[Node] = None

    # -- lattice hooks -------------------------------------------------

    def initial(self) -> FlowFact:
        env: Dict[str, FrozenSet[str]] = {}
        objs: Dict[str, ObjFact] = {}
        for i, name in enumerate(self.param_names):
            oid = param_id(i)
            env[name] = frozenset({oid})
            elements = UNKNOWN_ELEMENTS
            if self.seed_param is not None and self.seed_param[0] == i:
                elements = frozenset({(self.seed_param[1], False, False)})
            objs[oid] = ObjFact(states=elements)
        return FlowFact.make(env, objs)

    def bottom(self) -> FlowFact:
        return BOTTOM

    def join(self, a: FlowFact, b: FlowFact) -> FlowFact:
        return join_facts(a, b)

    def exc_adapt(self, fact: FlowFact) -> FlowFact:
        """Facts crossing an exception edge get their via-exc bit set."""
        if fact.is_bottom:
            return fact
        objs = {
            oid: f.mark_exceptional() for oid, f in fact.objs_dict().items()
        }
        return FlowFact.make(fact.env_dict(), objs)

    # -- transfer ------------------------------------------------------

    def transfer(self, node: Node, fact: FlowFact) -> FlowFact:
        if node.stmt is None or fact.is_bottom:
            return fact
        self._node = node
        if node.kind in ("assume_true", "assume_false"):
            return self._refine(node, fact)
        interp = _StmtInterpreter(self, fact)
        interp.run(node.stmt)
        return interp.result()

    def _refine(self, node: Node, fact: FlowFact) -> FlowFact:
        """Path-sensitive narrowing from ``if es.running:`` style tests.

        Only the ``<expr>.running`` idiom (optionally negated) refines;
        any other condition leaves the fact unchanged.  A refinement
        that empties an object's state set proves the branch infeasible
        and returns bottom, so the join ignores it.
        """
        test = node.stmt.test  # type: ignore[union-attr]
        truth = node.kind == "assume_true"
        while isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            test, truth = test.operand, not truth
        if not (isinstance(test, ast.Attribute) and test.attr == "running"):
            return fact
        interp = _StmtInterpreter(self, fact)
        receivers = [
            v for v in interp.eval(test.value)
            if is_eventset(v) and v in interp.objs
        ]
        if len(receivers) != 1:
            return fact  # aliased or untracked: refinement unsound
        oid = receivers[0]
        old = interp.objs[oid]
        kept = frozenset(e for e in old.states if (e[0] == RUNNING) == truth)
        if not kept:
            return BOTTOM  # contradiction: this branch cannot be taken
        interp.objs[oid] = replace(old, states=kept)
        return interp.result()

    # -- reporting -----------------------------------------------------

    def report(
        self,
        rule: str,
        objid: str,
        call: ast.AST,
        message: str,
        hint: str = "",
        method: str = "",
    ) -> None:
        """Report *rule* at *call*, unless an enclosing handler guards it."""
        if self.sink is None or self._node is None:
            return
        if RULES[rule].guarded_by(self._node.guards):
            return  # the script statically expects this failure
        self.sink(rule, call.lineno, call.col_offset, objid, method,
                  message, hint)


class _StmtInterpreter:
    """Interprets one statement's expressions over a working copy."""

    def __init__(self, analysis: TypestateAnalysis, fact: FlowFact) -> None:
        self.analysis = analysis
        self.env = fact.env_dict()
        self.objs = fact.objs_dict()

    def result(self) -> FlowFact:
        return FlowFact.make(self.env, self.objs)

    # -- statement dispatch --------------------------------------------

    def run(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            vals = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, vals)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            vals = self.eval(stmt.value)
            self._assign_target(stmt.target, vals)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = frozenset()
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                vals = self.eval(item.context_expr)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    self.env[item.optional_vars.id] = vals
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.eval(target)
        # Try nodes appear as handler-entry markers only; FunctionDef /
        # ClassDef bodies are separate scopes.  An assert has no effect:
        # ``python -O`` strips it, so ``assert es.stop() == [...]`` does
        # not reliably stop anything.

    def _assign_target(self, target: ast.expr, vals: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = vals  # strong, path-local update
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, frozenset())
        # attribute/subscript targets: no tracking

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.expr) -> FrozenSet[str]:
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            if node.attr == "pmu":
                return frozenset({PMU_VALUE})
            return frozenset()
        if isinstance(node, ast.Constant):
            return frozenset()
        out: FrozenSet[str] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_vals = self.eval(child)
                if isinstance(node, (ast.IfExp,)):
                    out |= child_vals
        return out

    def _eval_call(self, node: ast.Call) -> FrozenSet[str]:
        argvals = [
            self.eval(a.value if isinstance(a, ast.Starred) else a)
            for a in node.args
        ]
        for kw in node.keywords:
            self.eval(kw.value)

        func = node.func
        if isinstance(func, ast.Attribute):
            return self._method_call(func, node)
        if isinstance(func, ast.Name):
            return self._function_call(func.id, node, argvals)
        self.eval(func)
        return frozenset()

    # -- helper lookups -------------------------------------------------

    def _literal_int(self, node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        return None

    def _thread_identities(self, node: ast.expr) -> FrozenSet[str]:
        """Resolve a thread-valued argument to stable identities: its
        spawn sites, else the argument's source text."""
        vals = frozenset(v for v in self.eval(node) if is_thread(v))
        if vals:
            return vals
        try:
            return frozenset({"thread:" + ast.unparse(node)})
        except Exception:  # pragma: no cover - malformed expression
            return frozenset()

    # -- method dispatch ------------------------------------------------

    def _method_call(
        self, func: ast.Attribute, node: ast.Call
    ) -> FrozenSet[str]:
        basevals = self.eval(func.value)
        method = func.attr

        if method == "create_eventset":
            oid = eventset_id(node.lineno, node.col_offset)
            self.objs[oid] = _created()
            return frozenset({oid})
        if method == "spawn":
            tid = thread_id(node.lineno, node.col_offset)
            self.objs.setdefault(tid, ObjFact())
            return frozenset({tid})

        if method == "bind_counter":
            self._os_bind_counter(node)
            return frozenset()
        if method in OS_COUNTER_OPS:
            self._os_counter_op(method, node)
            return frozenset()

        es_ids = [v for v in basevals if is_eventset(v) and v in self.objs]
        if es_ids:
            self._eventset_method(es_ids, method, node)
        elif PMU_VALUE in basevals and method in ("read", "stop"):
            self._pmu_direct_access(method, node)
        return frozenset()

    # -- EventSet / HighLevel lifecycle ---------------------------------

    def _eventset_method(
        self, es_ids: List[str], method: str, node: ast.Call
    ) -> None:
        strong = len(es_ids) == 1
        for oid in es_ids:
            op = method
            if oid.startswith("hl@"):
                op = HIGHLEVEL_METHODS.get(method, "")
            old = self.objs[oid]
            new = self._apply_eventset_method(oid, old, op, node)
            self.objs[oid] = new if strong else old.join(new)

    def _apply_eventset_method(
        self, oid: str, fact: ObjFact, method: str, node: ast.Call
    ) -> ObjFact:
        needs_running = method in REQUIRES_RUNNING
        if not needs_running and method not in REQUIRES_STOPPED:
            return fact
        local = is_local(oid)
        names = fact.live_names
        bad = frozenset(s for s in names if (s == RUNNING) != needs_running)
        # once every path has failed, only a repeat on all of them counts
        all_failed = all(failed for _s, _via, failed in fact.states)
        if bad and names != ALL_STATES and (bad == names or not all_failed):
            self._lifecycle_violation(
                oid, method, needs_running, bad, bad == names, node
            )

        # the operation succeeded on the paths whose precondition held;
        # on the others it raised: dropped, or kept as failed for a
        # local object so its repeat must-findings still fire.
        if needs_running:
            post = STOPPED if method == "stop" else RUNNING
        else:
            post = RUNNING if method == "start" else None
        states = set()
        for s, via, failed in fact.states:
            if (s == RUNNING) == needs_running:
                states.add((post or s, via, failed))
            elif local:
                states.add((s, via, True))
        fact = replace(fact, states=frozenset(states))

        if method == "start":
            return replace(
                fact, started_lines=fact.started_lines | {node.lineno}
            )
        if method == "attach":
            return self._attach(oid, fact, node)
        if method == "detach":
            return replace(fact, attached=frozenset({UNATTACHED}))
        if method == "bind_cpu":
            return replace(fact, bound_cpu=True)
        return fact

    def _lifecycle_violation(
        self,
        oid: str,
        method: str,
        needs_running: bool,
        bad: FrozenSet[str],
        every_path: bool,
        node: ast.Call,
    ) -> None:
        if needs_running:
            rule, state = "PL301", "/".join(sorted(bad))
            hint = ("every path reaching this call must have start()ed "
                    "the set (PAPI_ENOTRUN otherwise)")
        else:
            rule, state = "PL302", "still running"
            hint = "stop() the set on every path first (PAPI_EISRUN otherwise)"
        if every_path and is_local(oid) and method in MUST_RULES:
            rule = MUST_RULES[method]
        noun = (
            "high-level counters" if oid.startswith("hl@") else "an EventSet"
        )
        where = "on every path" if every_path else "along some path"
        self.analysis.report(
            rule, oid, node, f"{method}() executes on {noun} that is "
            f"{state} {where}", hint=hint, method=method,
        )

    def _attach(self, oid: str, fact: ObjFact, node: ast.Call) -> ObjFact:
        identities = (
            self._thread_identities(node.args[0]) if node.args
            else frozenset()
        )
        foreign = fact.attached - identities - {UNATTACHED}
        if foreign and identities:
            if is_local(oid) and fact.attached == foreign:
                self.analysis.report(
                    "PL015", oid, node,
                    "EventSet is re-attached to a different thread "
                    "without detach",
                    hint="detach() first; re-attaching discards the "
                         "first thread's virtual counts",
                )
            elif not fact.bound_cpu:
                self.analysis.report(
                    "PL401", oid, node,
                    "this EventSet may still be owned by a different "
                    "spawned thread here (attached on another path "
                    "without an intervening detach)",
                    hint="detach() on every path first, or bind_cpu() "
                         "to pin the counters to one CPU",
                )
        return replace(fact, attached=identities)

    # -- OS-level counter virtualization ---------------------------------

    def _os_bind_counter(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        threads = self._thread_identities(node.args[0])
        index = self._literal_int(node.args[1])
        if index is None:
            return
        others = [
            fact for tid, fact in self.objs.items()
            if is_thread(tid) and tid not in threads
        ]
        if any(index in fact.must_bound for fact in others):
            self.analysis.report(
                "PL016", "", node,
                f"counter {index} is bound here but is already bound to "
                f"another thread",
                hint="unbind_counter() first, or use a different index "
                     "(a counter register is exclusive machine-wide)",
            )
        elif any(index in fact.may_bound for fact in others):
            self.analysis.report(
                "PL401", "", node,
                f"counter {index} may still be bound to another "
                f"thread on some path reaching this bind_counter",
                hint="unbind_counter() on every path first (a "
                     "counter register is exclusive machine-wide)",
            )
        for tid in threads:
            fact = self.objs.get(tid, _ABSENT)
            self.objs[tid] = replace(
                fact,
                may_bound=fact.may_bound | {index},
                must_bound=fact.must_bound | {index},
            )

    def _os_counter_op(self, method: str, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        index = self._literal_int(node.args[1])
        if index is None:
            return
        threads = self._thread_identities(node.args[0])
        if method == "unbind_counter":
            for tid in threads:
                fact = self.objs.get(tid, _ABSENT)
                self.objs[tid] = replace(
                    fact,
                    may_bound=fact.may_bound - {index},
                    must_bound=fact.must_bound - {index},
                )
            return
        # only spawn sites are known threads; an untracked expression
        # may well be bound somewhere this scope cannot see
        for tid in threads & set(self.objs):
            fact = self.objs[tid]
            if tid.startswith("thread@") and index not in fact.must_bound:
                qualifier = (
                    "on some path" if index in fact.may_bound
                    else "on any path"
                )
                self.analysis.report(
                    "PL403", tid, node,
                    f"{method}(thread, {index}): counter {index} is not "
                    f"bound to this thread {qualifier} reaching this call",
                    hint="os.bind_counter(thread, index) must dominate "
                         "every virtualized counter operation",
                )

    def _pmu_direct_access(self, method: str, node: ast.Call) -> None:
        index = self._literal_int(node.args[0]) if node.args else None
        if index is None:
            return
        owners = [
            tid for tid, fact in self.objs.items()
            if tid.startswith("thread@") and index in fact.may_bound
        ]
        if owners:
            self.analysis.report(
                "PL402", owners[0], node,
                f"direct PMU {method}({index}) of a counter that is "
                f"bound to a thread; migration may have re-homed it to "
                f"another CPU's PMU",
                hint="route through os.counter_value(thread, index) "
                     "(or counter_stop), which follows counter_home",
            )

    # -- calls to module-level functions ---------------------------------

    def _function_call(
        self, name: str, node: ast.Call, argvals
    ) -> FrozenSet[str]:
        if name == "HighLevel" and node.args:
            oid = highlevel_id(node.lineno, node.col_offset)
            self.objs[oid] = _created()
            return frozenset({oid})
        summary = self.analysis.summaries.get(name)
        if summary is None:
            # unknown callee: anything it got may end up in any state
            for vals in argvals:
                for oid in vals:
                    if is_eventset(oid) and oid in self.objs:
                        self.objs[oid] = replace(
                            self.objs[oid], states=UNKNOWN_ELEMENTS
                        )
            return frozenset()

        for pos, vals in enumerate(argvals):
            effects = summary.effects.get(pos)
            if effects is None:
                continue
            for oid in vals:
                if not (is_eventset(oid) and oid in self.objs):
                    continue
                self._apply_summary_effect(name, oid, effects, node)

        if summary.returns_states is not None:
            oid = returned_id(node.lineno, node.col_offset)
            self.objs[oid] = ObjFact(states=frozenset(
                (s, False, False) for s in summary.returns_states
            ))
            return frozenset({oid})
        return frozenset()

    def _apply_summary_effect(
        self,
        fname: str,
        oid: str,
        effects: Dict[str, ParamEffect],
        node: ast.Call,
    ) -> None:
        fact = self.objs[oid]
        names = fact.state_names
        if names == ALL_STATES:
            # completely unknown: havoc through the call, stay silent
            self.objs[oid] = replace(fact, states=UNKNOWN_ELEMENTS)
            return
        new_states: Set[Tuple[str, bool, bool]] = set()
        reported: Set[Tuple[str, str]] = set()
        clean_states = frozenset(
            s for s in names if not effects[s].violations
        )
        for s, via, failed in fact.states:
            effect = effects[s]
            for rule, method in effect.violations:
                if (rule, method) in reported:
                    continue
                reported.add((rule, method))
                if clean_states or self.analysis.must_mode:
                    self.analysis.report(
                        rule, oid, node,
                        f"call to {fname}() performs {method}() on an "
                        f"EventSet that may be {s} here",
                        hint=f"{fname}() requires a different lifecycle "
                             f"state; normalize the set's state on "
                             f"every path before the call",
                        method=method,
                    )
            for exit_state in effect.exit_states:
                new_states.add((exit_state, via, failed))
        self.objs[oid] = replace(fact, states=frozenset(new_states))


def _created() -> ObjFact:
    return ObjFact(
        states=frozenset({(CREATED, False, False)}),
        attached=frozenset({UNATTACHED}),
    )


def eval_expr_values(
    analysis: TypestateAnalysis, fact: FlowFact, expr: ast.expr
) -> Tuple[FrozenSet[str], Dict[str, ObjFact]]:
    """Evaluate *expr* against *fact* without committing side effects.

    Used by the summary computation to resolve what a ``return``
    statement hands back to the caller.
    """
    interp = _StmtInterpreter(analysis, fact)
    vals = interp.eval(expr)
    return vals, interp.objs
