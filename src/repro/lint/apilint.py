"""AST-based API-misuse linting for PAPI instrumentation scripts.

The checker walks a script's AST and tracks, per scope, the
configuration of every ``Papi`` / ``EventSet`` / ``HighLevel`` object
it can identify statically: which platform it is bound to (from a
``create("simX86")`` literal), which events were added (from string
literals, ``event_name_to_code`` calls, or module-level constant
lists), and whether it is multiplexed or has overflow registered.
Event-name, configuration and interface-mixing hazards become PL0xx
diagnostics (PL003, PL004, PL006, PL009-PL013, PL017-PL019); when the
platform and event names are all statically known, the set is
additionally handed to the static feasibility checker
(:mod:`repro.lint.feasibility`) for PL1xx diagnostics, and assignments
into ``PLATFORM_PRESET_TABLES`` are validated by the preset lint
(PL2xx).

Design points:

- **No lifecycle tracking.**  Run state (started, stopped, thread
  attachment, counter binds) belongs to the typestate analysis
  (:mod:`repro.lint.typestate`); the two rules that need it here --
  PL004 and PL013 -- read which sets may be running at their call site
  from that analysis's fixpoint facts.  Statements are otherwise
  interpreted in source order: both branches of an ``if`` are walked
  and loop bodies are walked once, which is right for the
  configuration facts tracked here.
- **Guard awareness.**  A call inside ``try: ... except ConflictError``
  demonstrates intent (the script *expects* the failure -- e.g. the
  multiplexing example that shows the ECNFLCT path), so rules whose
  failure the handler catches are suppressed there.  ``except
  Exception`` guards every guardable rule.
- **No execution.**  Only substrate/preset tables are consulted; the
  linted script is never imported or run.
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.core.presets import PRESET_BY_SYMBOL
from repro.lint.cfg import handler_names
from repro.lint.diagnostics import Diagnostic
from repro.lint.feasibility import _substrate, check_events, portability_matrix
from repro.lint.rules import RULES
from repro.lint.typestate import eventset_id
from repro.platforms import PLATFORM_NAMES

#: below this many instructions, a multiplexed run has too few timer
#: rotations for the time-slice extrapolation to converge (the E3
#: regime where estimates are badly wrong).  Default quantum is 5000
#: cycles; tens of rotations are needed to average over phases.
MIN_MPX_RUN_INSTRUCTIONS = 50_000


class _PapiState:
    """Abstract state of one Papi library instance."""

    def __init__(self, platform: Optional[str]) -> None:
        self.platform = platform
        self.hl_line: Optional[int] = None     # first high-level use
        self.ll_line: Optional[int] = None     # first low-level start
        self.mixing_reported = False
        #: component names whose registration the script has checked
        #: (papi.component("x"), or query_named of a ::: name)
        self.components_checked: Set[str] = set()
        #: True once the script enumerated the registry as a whole
        #: (num_components() / components)
        self.all_components_checked = False


class _EventSetState:
    """Abstract state of one EventSet variable."""

    def __init__(self, papi: Optional[_PapiState], node: ast.Call) -> None:
        self.papi = papi
        #: the typestate analysis's id for the same creation site
        self.flow_id = eventset_id(node.lineno, node.col_offset)
        self.events: List[Tuple[Optional[str], int]] = []  # (name, line)
        self.multiplexed = False
        self.overflow = False
        self.conflict_reported = False

    @property
    def platform(self) -> Optional[str]:
        return self.papi.platform if self.papi else None

    @property
    def names(self) -> List[str]:
        return [n for n, _line in self.events if n is not None]

    @property
    def fully_resolved(self) -> bool:
        return bool(self.events) and all(
            n is not None for n, _line in self.events
        )


class _HighLevelState:
    """Abstract state of one HighLevel interface instance."""

    def __init__(self, papi: Optional[_PapiState]) -> None:
        self.papi = papi


class ApiLinter:
    """Lints one module's AST; collect results from :attr:`diagnostics`."""

    def __init__(
        self,
        path: str,
        default_platform: Optional[str] = None,
        run_state: Optional[Callable[[ast.AST], FrozenSet[str]]] = None,
    ) -> None:
        self.path = path
        self.default_platform = default_platform
        #: statement -> typestate ids of the sets that may be running
        #: when it starts (:meth:`repro.lint.flow.FlowReport.run_state`)
        self.run_state = run_state or (lambda stmt: frozenset())
        self.diagnostics: List[Diagnostic] = []
        #: module-level literal constants (lists of event names etc.)
        self.module_env: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def lint(self, tree: ast.Module) -> List[Diagnostic]:
        self._collect_module_constants(tree)
        # module top level is one scope; every function body another.
        _ScopeInterpreter(self).run(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _ScopeInterpreter(self).run(node.body)
        return self.diagnostics

    def _collect_module_constants(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = self._literal(stmt.value)
            if value is not None:
                self.module_env[target.id] = value

    @staticmethod
    def _literal(node: ast.AST) -> Optional[object]:
        """Evaluate a literal expression (str/int/list/tuple) or None."""
        try:
            return ast.literal_eval(node)
        except (ValueError, SyntaxError):
            return None

    def report(
        self,
        code: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        guards: Optional[Set[str]] = None,
    ) -> None:
        if guards and RULES[code].guarded_by(guards):
            return  # statically guarded: the script expects this
        self.diagnostics.append(Diagnostic(
            code, self.path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            message, hint,
        ))


class _ScopeInterpreter:
    """Interprets one scope's statements over abstract PAPI objects."""

    def __init__(self, linter: ApiLinter) -> None:
        self.linter = linter
        self.env: Dict[str, object] = dict(linter.module_env)
        self.vars: Dict[str, object] = {}     # name -> abstract object
        self.eventsets: List[_EventSetState] = []
        self.clients: List["_ClientState"] = []
        self.guard_stack: List[Set[str]] = []
        #: the statement being interpreted (run-state queries key on it)
        self.stmt: Optional[ast.stmt] = None
        #: running count of method calls on tracked PAPI objects; a
        #: try-body that raises it contains counter calls (PL017).
        self.papi_calls = 0

    # -- plumbing ------------------------------------------------------

    @property
    def guards(self) -> Set[str]:
        out: Set[str] = set()
        for g in self.guard_stack:
            out |= g
        return out

    def report(
        self, code: str, node: ast.AST, message: str, hint: str = ""
    ) -> None:
        self.linter.report(code, node, message, hint, guards=self.guards)

    # -- statement dispatch --------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        self.visit_block(body)
        self._end_of_scope()

    def visit_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        self.stmt = stmt
        if isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            self._handle_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval_expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id, stmt.value, value)
        elif isinstance(stmt, ast.AugAssign):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            value = self.eval_expr(stmt.value)
            if isinstance(value, _ClientState):
                # the client outlives this scope; closing is the
                # caller's job (PL018 suppression)
                value.escaped = True
        elif isinstance(stmt, ast.If):
            self.eval_expr(stmt.test)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval_expr(stmt.iter)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval_expr(stmt.test)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval_expr(item.context_expr)
                if isinstance(value, _ClientState):
                    # __exit__ calls close(): the with-statement is the
                    # blessed idiom PL018 asks for
                    value.closed = True
                    if isinstance(item.optional_vars, ast.Name):
                        self.vars[item.optional_vars.id] = value
            self.visit_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            calls_before = self.papi_calls
            self.guard_stack.append(
                {n for h in stmt.handlers for n in handler_names(h)}
            )
            try:
                self.visit_block(stmt.body)
            finally:
                self.guard_stack.pop()
            if self.papi_calls > calls_before:
                self._check_swallowed_errors(stmt)
            for handler in stmt.handlers:
                self.visit_block(handler.body)
            self.visit_block(stmt.orelse)
            self.visit_block(stmt.finalbody)
        # FunctionDef/ClassDef bodies are linted as separate scopes.

    #: handler types broad enough to hide *which* PAPI error occurred.
    #: Catching a specific subclass (ConflictError, NoSuchEventError...)
    #: names the expected failure and is the guard idiom the other rules
    #: honour; catching the base class or wider hides the error code.
    _BROAD_CATCHES = frozenset({"PapiError", "Exception", "BaseException"})

    def _check_swallowed_errors(self, stmt: ast.Try) -> None:
        """PL017: a broad handler with a pass-only body around PAPI calls.

        ``except PapiError: pass`` (or a bare ``except``) around counter
        calls discards the error code, and with it the difference
        between "event unavailable here" and "your counts are wrong"
        (PAPI_ECLOST).  A handler that does *anything* with the
        exception -- logs it, inspects ``exc.code``, re-raises -- shows
        intent and is left alone.
        """
        for handler in stmt.handlers:
            names = handler_names(handler)
            if not names & self._BROAD_CATCHES:
                continue
            if not all(
                isinstance(s, ast.Pass)
                or (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant))
                for s in handler.body
            ):
                continue
            caught = (
                "bare except" if handler.type is None
                else "except " + ", ".join(sorted(names))
            )
            self.report(
                "PL017", handler,
                f"{caught}: pass swallows PAPI errors from the calls "
                f"above without inspecting the error code",
                hint="catch the specific PapiError subclass you expect, "
                     "or check exc.code -- PAPI_ECLOST here means the "
                     "counts are silently wrong",
            )

    # -- assignment ----------------------------------------------------

    def _handle_assign(self, stmt: ast.Assign) -> None:
        if self._maybe_preset_table_assign(stmt):
            return
        value = self.eval_expr(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, stmt.value, value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # tuple unpacking of stop() results etc.: nothing tracked
                pass
            elif isinstance(target, ast.Attribute):
                if isinstance(value, _ClientState):
                    # stored on an object (self.client = ...): lifetime
                    # is managed elsewhere, so PL018 stays quiet
                    value.escaped = True

    def _bind(
        self, name: str, rhs: ast.expr, value: Optional[object]
    ) -> None:
        if isinstance(value, (_PapiState, _EventSetState, _HighLevelState,
                              _SubstrateRef, _ClientState, str)):
            self.vars[name] = value
            return
        if isinstance(rhs, ast.Name) and rhs.id in self.vars:
            self.vars[name] = self.vars[rhs.id]  # aliasing
            return
        literal = self.linter._literal(rhs)
        if literal is not None:
            self.env[name] = literal
        else:
            # rebinding kills any stale tracking for this name
            self.vars.pop(name, None)

    # -- preset table edits --------------------------------------------

    def _maybe_preset_table_assign(self, stmt: ast.Assign) -> bool:
        """``PLATFORM_PRESET_TABLES["plat"]["SYM"] = [...]`` in a script."""
        if len(stmt.targets) != 1:
            return False
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Subscript)
        ):
            return False
        base = target.value.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute)
            else None
        )
        if base_name != "PLATFORM_PRESET_TABLES":
            return False
        platform = self.linter._literal(target.value.slice)
        symbol = self.linter._literal(target.slice)
        terms = self.linter._literal(stmt.value)
        if not (
            isinstance(platform, str)
            and platform in PLATFORM_NAMES
            and isinstance(symbol, str)
            and isinstance(terms, (list, tuple))
        ):
            return False
        from repro.lint.presetlint import lint_mapping

        term_lines: Dict[int, int] = {}
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for i, elt in enumerate(stmt.value.elts):
                term_lines[i] = elt.lineno
        try:
            normalized = tuple((str(n), int(c)) for n, c in terms)
        except (TypeError, ValueError):
            self.report(
                "PL202", stmt,
                f"{platform}: {symbol} terms are not (name, coeff) pairs",
            )
            return True
        for diag in lint_mapping(
            platform, symbol, normalized,
            path=self.linter.path, line=stmt.lineno, term_lines=term_lines,
        ):
            self.linter.diagnostics.append(diag)
        return True

    # -- expression evaluation -----------------------------------------

    def eval_expr(self, node: ast.expr) -> Optional[object]:
        """Evaluate an expression; returns an abstract object or None.

        Recurses so that nested calls (``dict(zip(a, es.stop()))``) are
        still interpreted in evaluation order.
        """
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.vars.get(node.id)
        if isinstance(node, ast.Attribute):
            self.eval_expr(node.value)
            return None
        if isinstance(node, ast.Constant):
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return None

    def _eval_call(self, node: ast.Call) -> Optional[object]:
        for arg in node.args:
            value = self.eval_expr(
                arg.value if isinstance(arg, ast.Starred) else arg
            )
            if isinstance(value, _ClientState):
                # handed to another callable (a thread target, a helper
                # that closes it): assume the callee owns it (PL018)
                value.escaped = True
        for kw in node.keywords:
            value = self.eval_expr(kw.value)
            if isinstance(value, _ClientState):
                value.escaped = True

        func = node.func
        if isinstance(func, ast.Name):
            return self._call_by_name(func.id, node)
        if isinstance(func, ast.Attribute):
            return self._call_method(func, node)
        self.eval_expr(func)
        return None

    def _call_by_name(self, name: str, node: ast.Call) -> Optional[object]:
        if name == "create" and node.args:
            platform = self.linter._literal(node.args[0])
            if not isinstance(platform, str):
                platform = None
            return _SubstrateRef(platform)
        if name == "Papi":
            platform = self._platform_of_arg(node)
            return _PapiState(platform)
        if name == "HighLevel" and node.args:
            papi = self.eval_expr(node.args[0])
            return _HighLevelState(
                papi if isinstance(papi, _PapiState) else None
            )
        if name == "PapidClient":
            return self._new_client(node)
        return None

    def _new_client(self, node: ast.Call) -> "_ClientState":
        client = _ClientState(node.lineno)
        self.clients.append(client)
        return client

    def _platform_of_arg(self, node: ast.Call) -> Optional[str]:
        if not node.args:
            return None
        arg = self.eval_expr(node.args[0])
        if isinstance(arg, _SubstrateRef):
            return arg.platform
        return None

    # -- method dispatch -----------------------------------------------

    def _call_method(
        self, func: ast.Attribute, node: ast.Call
    ) -> Optional[object]:
        base = self.eval_expr(func.value)
        method = func.attr

        if isinstance(
            base, (_PapiState, _EventSetState, _HighLevelState,
                   _ClientState)
        ):
            self.papi_calls += 1
        if isinstance(base, _ClientState):
            if method in ("close", "__exit__"):
                base.closed = True
            return None
        if isinstance(base, _PapiState):
            if method == "create_eventset":
                es = _EventSetState(base, node)
                self.eventsets.append(es)
                return es
            if method in ("num_components", "component_names"):
                base.all_components_checked = True
            elif method in ("component", "component_by_id"):
                from repro.components import STANDARD_COMPONENTS

                comp_name = (
                    self.linter._literal(node.args[0])
                    if node.args else None
                )
                if isinstance(comp_name, str):
                    base.components_checked.add(comp_name)
                elif (isinstance(comp_name, int)
                        and 0 <= comp_name < len(STANDARD_COMPONENTS)):
                    base.components_checked.add(
                        STANDARD_COMPONENTS[comp_name]
                    )
                else:
                    # unresolvable argument: assume the script checked
                    base.all_components_checked = True
            elif method == "query_named" and node.args:
                name = self.linter._literal(node.args[0])
                if isinstance(name, str) and ":::" in name:
                    base.components_checked.add(name.split(":::", 1)[0])
            return None
        if isinstance(base, _EventSetState):
            return self._eventset_method(base, method, node)
        if isinstance(base, _HighLevelState):
            return self._highlevel_method(base, method, node)
        if method == "create_eventset":
            # the receiver is untracked (e.g. a function parameter),
            # but the method name is unambiguous: still track the set
            # so feasibility checks work under --platform.
            es = _EventSetState(None, node)
            self.eventsets.append(es)
            return es
        if method == "PapidClient":
            # attribute-form constructor (daemon.PapidClient(...)): the
            # receiver is a module, the class name is unambiguous
            return self._new_client(node)
        if method == "run":
            self._check_short_mpx_run(node)
        return None

    # -- EventSet configuration ----------------------------------------

    def _eventset_method(
        self, es: _EventSetState, method: str, node: ast.Call
    ) -> Optional[object]:
        if method in ("add_event", "add_events", "add_named"):
            for name in self._event_names_of_call(method, node):
                self._es_add_one(es, name, node)
        elif method == "cleanup":
            es.events.clear()
        elif method == "remove_event":
            self._es_remove(es, node)
        elif method == "set_multiplex":
            self._es_set_multiplex(es, node)
        elif method == "overflow":
            self._es_overflow(es, node)
        elif method == "start":
            self._es_start(es, node)
        return None

    def _event_names_of_call(
        self, method: str, node: ast.Call
    ) -> List[Optional[str]]:
        """Event names added by one add_* call (None = unresolvable)."""
        if method == "add_event":
            return [self._event_name(a) for a in node.args[:1]]
        if method == "add_named":
            names: List[Optional[str]] = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    seq = self._name_sequence(arg.value)
                    names.extend(seq if seq is not None else [None])
                else:
                    names.append(self._event_name(arg))
            return names
        # add_events([codes...])
        if node.args:
            arg = node.args[0]
            if isinstance(arg, (ast.List, ast.Tuple)):
                return [self._event_name(e) for e in arg.elts]
        return [None]

    def _name_sequence(self, node: ast.expr) -> Optional[List[str]]:
        value: object = None
        if isinstance(node, ast.Name):
            value = self.env.get(node.id)
        else:
            value = self.linter._literal(node)
        if isinstance(value, (list, tuple)) and all(
            isinstance(v, str) for v in value
        ):
            return list(value)
        return None

    def _event_name(self, node: ast.expr) -> Optional[str]:
        """Statically resolve one event-spec expression to a name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            value = self.env.get(node.id)
            return value if isinstance(value, str) else None
        if isinstance(node, ast.Call):
            func = node.func
            fname = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if fname == "event_name_to_code" and node.args:
                return self._event_name(node.args[0])
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "code"
            and isinstance(node.value, ast.Call)
        ):
            func = node.value.func
            fname = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if fname in ("preset_from_symbol", "preset_from_code") and \
                    node.value.args:
                return self._event_name(node.value.args[0])
        return None

    def _es_add_one(
        self, es: _EventSetState, name: Optional[str], node: ast.Call
    ) -> None:
        if name is not None:
            self._check_event_known(name, es.platform, node, papi=es.papi)
            if name in es.names:
                self.report(
                    "PL012", node,
                    f"event {name} is already in this EventSet",
                )
        es.events.append((name, node.lineno))
        self._check_feasibility_incremental(es, node)

    def _es_remove(self, es: _EventSetState, node: ast.Call) -> None:
        if not node.args:
            return
        name = self._event_name(node.args[0])
        if name is None:
            # unknown removal: previous membership is no longer reliable
            es.events.append((None, node.lineno))
            return
        for i, (n, _line) in enumerate(es.events):
            if n == name:
                del es.events[i]
                return

    def _check_event_known(
        self, name: str, platform: Optional[str], node: ast.Call,
        papi: Optional[_PapiState] = None,
    ) -> None:
        platform = platform or self.linter.default_platform
        if ":::" in name:
            self._check_component_event(name, node, papi)
            return
        if name.startswith("PAPI_"):
            if name not in PRESET_BY_SYMBOL:
                self.report(
                    "PL010", node,
                    f"{name} is not a preset in the catalogue",
                    hint="see `papi-lint` docs or papi_avail for symbols",
                )
            elif platform is not None:
                from repro.core.presets import PLATFORM_PRESET_TABLES

                if name not in PLATFORM_PRESET_TABLES.get(platform, {}):
                    self.report(
                        "PL011", node,
                        f"{name} is not available on {platform}",
                        hint=f"check `cli avail {platform}`; guard with "
                             f"query_event() for portable code",
                    )
        elif platform is not None:
            if name not in _substrate(platform).native_events:
                self.report(
                    "PL010", node,
                    f"{name!r} is neither a preset symbol nor a native "
                    f"event of {platform}",
                )

    def _check_component_event(
        self, name: str, node: ast.Call, papi: Optional[_PapiState]
    ) -> None:
        """A ``comp:::EVENT`` name: namespace validity, then PL019."""
        comp_name, short = name.split(":::", 1)
        if comp_name == "cpu":
            # aliases the native table; defer to the per-platform check
            platform = self.linter.default_platform
            if (platform is not None
                    and short not in _substrate(platform).native_events):
                self.report(
                    "PL010", node,
                    f"{short!r} is not a native event of {platform} "
                    f"(the cpu::: namespace aliases the native table)",
                )
            return
        from repro.components import COMPONENT_EVENT_SHORTS

        shorts = COMPONENT_EVENT_SHORTS.get(comp_name)
        if shorts is None:
            self.report(
                "PL010", node,
                f"{comp_name!r} is not a registered component "
                f"(PAPI_ENOCMP at runtime)",
                hint="see `cli component-avail <platform>` for the "
                     "component registry",
            )
            return
        if short not in shorts:
            self.report(
                "PL010", node,
                f"{short!r} is not an event of component {comp_name!r} "
                f"(have {', '.join(shorts)})",
            )
            return
        if papi is not None and not (
            papi.all_components_checked
            or comp_name in papi.components_checked
        ):
            self.report(
                "PL019", node,
                f"component event {name} used without checking the "
                f"{comp_name!r} component is registered",
                hint=f"call papi.component({comp_name!r}) or "
                     f"num_components() first; component sets differ "
                     f"across substrates (PAPI_ENOCMP)",
            )

    # -- feasibility hooks ---------------------------------------------

    def _check_feasibility_incremental(
        self, es: _EventSetState, node: ast.Call
    ) -> None:
        """Mirror add_event: the add that overflows the counters errs."""
        platform = es.platform or self.linter.default_platform
        if (
            platform is None
            or es.conflict_reported
            or not es.fully_resolved
        ):
            return
        report = check_events(tuple(es.names), platform)
        if report.unknown or report.unavailable or report.sampling:
            return
        if es.multiplexed:
            # every event only needs to be placeable alone
            if not report.feasible_multiplexed:
                es.conflict_reported = True
                self.report(
                    "PL101", node,
                    f"{report.conflict_witness or es.names} cannot be "
                    f"counted on {platform} even with multiplexing",
                )
            return
        if not report.feasible_direct:
            es.conflict_reported = True
            witness = ", ".join(report.conflict_witness)
            hint = "enable set_multiplex() before adding, or split " \
                   "the measurement into multiple runs"
            if report.hall_witness is not None:
                natives, counters = report.hall_witness
                hint += (
                    f"; Hall violation: natives {list(natives)} share "
                    f"only counters {list(counters)}"
                )
            self.report(
                "PL101", node,
                f"adding this event makes the set unallocatable on "
                f"{platform}: minimal conflicting subset {{{witness}}}",
                hint=hint,
            )

    def _es_set_multiplex(
        self, es: _EventSetState, node: ast.Call
    ) -> None:
        if es.overflow:
            self.report(
                "PL009", node,
                "set_multiplex on an EventSet with overflow registered",
                hint="overflow interrupts and time-slicing are exclusive",
            )
        if es.events:
            self.report(
                "PL003", node,
                f"set_multiplex after {len(es.events)} event(s) were "
                f"already added",
                hint="enable multiplexing first so conflicts surface as "
                     "capacity, not ECNFLCT",
            )
        es.multiplexed = True

    def _es_overflow(self, es: _EventSetState, node: ast.Call) -> None:
        if node.args:
            name = self._event_name(node.args[0])
            if name is not None and ":::" in name and \
                    not name.startswith("cpu:::"):
                self.report(
                    "PL019", node,
                    f"overflow registered on component event {name}",
                    hint="component counters are free-running snapshots; "
                         "PAPI_overflow needs a programmed PMU counter "
                         "(the runtime raises PAPI_EINVAL)",
                )
        if es.multiplexed:
            self.report(
                "PL009", node,
                "overflow on a multiplexed EventSet",
                hint="overflow interrupts and time-slicing are exclusive",
            )
        es.overflow = True

    def _es_start(self, es: _EventSetState, node: ast.Call) -> None:
        papi = es.papi
        if papi is not None:
            running = self.linter.run_state(self.stmt)
            if any(
                other.flow_id in running
                for other in self.eventsets
                if other.papi is papi and other.flow_id != es.flow_id
            ):
                self.report(
                    "PL013", node,
                    "start() while another EventSet of the same library "
                    "may still be running",
                    hint="stop the other set first (one running EventSet "
                         "per library)",
                )
            papi.ll_line = papi.ll_line or node.lineno
            self._check_mixing(papi, node)
        self._check_feasibility_at_start(es, node)

    def _check_feasibility_at_start(
        self, es: _EventSetState, node: ast.Call
    ) -> None:
        platform = es.platform or self.linter.default_platform
        if platform is None or not es.fully_resolved:
            return
        report = check_events(tuple(es.names), platform)
        if report.unknown or report.unavailable:
            return
        if (
            es.multiplexed
            and not report.sampling
            and report.feasible_direct
        ):
            natives: Set[str] = set()
            for res in report.resolutions:
                natives.update(res.natives)
            self.report(
                "PL102", node,
                f"multiplexing is enabled but {len(natives)} native "
                f"event(s) fit {platform}'s counters directly",
                hint="drop set_multiplex() to count exactly instead of "
                     "estimating",
            )
        if report.status in ("ok", "mpx", "sampling"):
            # a script that already multiplexes is fine on platforms
            # where the set *needs* multiplexing.
            acceptable = ("ok", "sampling") + (
                ("mpx",) if es.multiplexed else ()
            )
            matrix = portability_matrix(tuple(es.names))
            broken = {
                name: rep.status
                for name, rep in matrix.items()
                if name != platform and rep.status not in acceptable
            }
            if broken:
                detail = ", ".join(
                    f"{name} ({status})"
                    for name, status in sorted(broken.items())
                )
                self.report(
                    "PL103", node,
                    f"this EventSet is not portable as-is: {detail}",
                    hint="see `cli check-events ... --matrix` for the "
                         "full portability matrix (E8)",
                )

    # -- HighLevel ------------------------------------------------------

    def _highlevel_method(
        self, hl: _HighLevelState, method: str, node: ast.Call
    ) -> Optional[object]:
        papi = hl.papi
        if method == "start_counters":
            self._hl_mark_use(papi, node)
            self._hl_check_events(hl, node)
        elif method in ("flops", "flips", "ipc"):
            self._hl_mark_use(papi, node)
        return None

    def _hl_mark_use(
        self, papi: Optional[_PapiState], node: ast.Call
    ) -> None:
        if papi is None:
            return
        papi.hl_line = papi.hl_line or node.lineno
        self._check_mixing(papi, node)

    def _check_mixing(self, papi: _PapiState, node: ast.Call) -> None:
        if (
            papi.hl_line is not None
            and papi.ll_line is not None
            and not papi.mixing_reported
        ):
            papi.mixing_reported = True
            self.report(
                "PL006", node,
                f"high-level (line {papi.hl_line}) and low-level "
                f"(line {papi.ll_line}) counting mixed on one library",
                hint="use one interface per measurement region",
            )

    def _hl_check_events(
        self, hl: _HighLevelState, node: ast.Call
    ) -> None:
        if not node.args:
            return
        arg = node.args[0]
        names: Optional[List[Optional[str]]] = None
        if isinstance(arg, (ast.List, ast.Tuple)):
            names = [self._event_name(e) for e in arg.elts]
        else:
            seq = self._name_sequence(arg)
            if seq is not None:
                names = list(seq)
        if names is None:
            return
        platform = (
            hl.papi.platform if hl.papi else None
        ) or self.linter.default_platform
        for name in names:
            if name is not None:
                self._check_event_known(name, platform, node,
                                        papi=hl.papi)
        if platform is None or any(n is None for n in names):
            return
        report = check_events(tuple(n for n in names if n), platform)
        if (
            not report.unknown
            and not report.unavailable
            and not report.sampling
            and not report.feasible_direct
        ):
            witness = ", ".join(report.conflict_witness)
            self.report(
                "PL101", node,
                f"start_counters set is unallocatable on {platform}: "
                f"minimal conflicting subset {{{witness}}}",
                hint="the high-level interface never multiplexes "
                     "(Section 2); use fewer events or the low-level "
                     "API with set_multiplex",
            )

    # -- short multiplexed runs ----------------------------------------

    def _check_short_mpx_run(self, node: ast.Call) -> None:
        """``machine.run(max_instructions=N)`` under a multiplexed set."""
        bound: Optional[int] = None
        for kw in node.keywords:
            if kw.arg == "max_instructions":
                value = self.linter._literal(kw.value)
                if isinstance(value, int):
                    bound = value
        if bound is None or bound >= MIN_MPX_RUN_INSTRUCTIONS:
            return
        running = self.linter.run_state(self.stmt)
        for es in self.eventsets:
            if es.multiplexed and es.flow_id in running:
                self.report(
                    "PL004", node,
                    f"a multiplexed EventSet may be running over a run "
                    f"bounded to {bound} instructions; time-slice "
                    f"estimates will not converge",
                    hint=f"run at least ~{MIN_MPX_RUN_INSTRUCTIONS} "
                         f"instructions or count directly (E3)",
                )

    # -- scope exit -----------------------------------------------------

    def _end_of_scope(self) -> None:
        for client in self.clients:
            if not client.closed and not client.escaped:
                self.linter.diagnostics.append(Diagnostic(
                    "PL018", self.linter.path, client.created_line, 0,
                    "PapidClient is constructed here but neither used "
                    "as a context manager nor close()d in this scope",
                    hint="a departing client must close() so its owned "
                         "daemon sessions are stopped and destroyed",
                ))


class _SubstrateRef:
    """Marker for a ``create("...")`` result bound to a variable."""

    def __init__(self, platform: Optional[str]) -> None:
        self.platform = platform


class _ClientState:
    """Abstract state of one ``PapidClient`` (PL018).

    ``closed`` is set by an explicit ``close()`` / ``__exit__`` call or
    by entering the client as a context manager; ``escaped`` suppresses
    the rule when the client demonstrably outlives the scope (returned,
    stored on an attribute, or passed to another callable).
    """

    def __init__(self, line: int) -> None:
        self.created_line = line
        self.closed = False
        self.escaped = False
