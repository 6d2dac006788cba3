"""Control-flow graphs over Python AST for the flow-sensitive linter.

A source-order walk is right for straight-line instrumentation code
and blind to everything the paper's hardest lessons are about: error
paths.  This module builds a real CFG for one *scope* (a module body or
one function body) so the lifecycle analysis (:mod:`repro.lint.dataflow`
/ :mod:`repro.lint.typestate`) can reason about branches, loops,
``try``/``except``/``finally``, ``with``, ``break``/``continue`` and
early ``return``.

Shape of the graph:

- one node per simple statement (scripts are small; basic blocks would
  buy nothing but bookkeeping);
- three synthetic nodes: ``entry``, ``exit`` (normal scope completion
  *and* returns) and ``raise_exit`` (an exception escaping the scope);
- edges are labelled ``normal`` or ``exc``.

Exception modelling is deliberately selective.  A statement gets ``exc``
edges only when the program *acknowledges* that exceptions can happen
there: it is lexically inside a ``try`` that has handlers or a
``finally``, or it is an explicit ``raise``.  An uncaught exception in
plain straight-line code kills the process -- and the counters with it
-- so modelling it would flag every script that calls anything between
``start()`` and ``stop()``.  The paper's leak hazard is the *surviving*
error path: a handler that swallows the exception and carries on, or a
``finally`` that cleans up everything except the counters.

``finally`` bodies are instantiated once per distinct exit kind (normal
completion, exception escape, ``break``/``continue``/``return``
unwinding) as separate node chains over the same AST statements, so the
dataflow facts for "the finally ran after an exception" never merge
with "the finally ran after normal completion".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

NORMAL = "normal"
EXC = "exc"


@dataclass
class Node:
    """One CFG node: a statement occurrence (or a synthetic marker).

    The same AST statement can back several nodes (``finally`` bodies
    are duplicated per exit kind), so node identity is the integer id,
    never the AST object.
    """

    id: int
    stmt: Optional[ast.stmt]
    #: "entry", "exit", "raise", "stmt", "finally" (a finally copy on a
    #: normal/return/break exit) or "finally_exc" (exception unwinding)
    kind: str
    #: exception names catchable by enclosing handlers *in this scope*
    #: (the guard-awareness set, same semantics as the AST pass)
    guards: frozenset = frozenset()


@dataclass
class CFG:
    """A per-scope control-flow graph."""

    nodes: List[Node] = field(default_factory=list)
    #: node id -> [(successor id, edge kind)]
    succs: Dict[int, List[Tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2

    def add_node(
        self,
        stmt: Optional[ast.stmt],
        kind: str = "stmt",
        guards: frozenset = frozenset(),
    ) -> int:
        node = Node(len(self.nodes), stmt, kind, guards)
        self.nodes.append(node)
        self.succs[node.id] = []
        return node.id

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        if (dst, kind) not in self.succs[src]:
            self.succs[src].append((dst, kind))

    def preds(self) -> Dict[int, List[Tuple[int, str]]]:
        out: Dict[int, List[Tuple[int, str]]] = {n.id: [] for n in self.nodes}
        for src, edges in self.succs.items():
            for dst, kind in edges:
                out[dst].append((src, kind))
        return out

    def stmt_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.stmt is not None]


class _TryContext:
    """One enclosing ``try`` while building: handlers + finally body."""

    def __init__(
        self,
        handler_entries: List[int],
        finalbody: Sequence[ast.stmt],
    ) -> None:
        self.handler_entries = handler_entries
        self.finalbody = finalbody


class _LoopContext:
    def __init__(self, header: int, try_depth: int) -> None:
        self.header = header
        self.try_depth = try_depth
        self.break_sources: List[int] = []


def handler_names(handler: ast.excepthandler) -> Set[str]:
    """Exception type names one handler catches (bare = BaseException)."""
    names: Set[str] = set()

    def add(node: Optional[ast.expr]) -> None:
        if node is None:
            names.add("BaseException")
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                add(elt)

    add(handler.type)
    return names


def _contains_call(stmt: ast.stmt) -> bool:
    """Can executing *stmt* raise?  Approximated as "contains a Call"."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Raise)):
            return True
    return False


class _Builder:
    """Builds the CFG for one scope with a recursive frontier scheme.

    ``_visit_block`` threads a *frontier* -- the set of node ids whose
    normal-flow successor is not yet known -- through the statement
    list; control statements split and rejoin it.
    """

    def __init__(self) -> None:
        self.cfg = CFG()
        self.cfg.add_node(None, kind="entry")
        self.cfg.add_node(None, kind="exit")
        self.cfg.add_node(None, kind="raise")
        self.try_stack: List[_TryContext] = []
        self.loop_stack: List[_LoopContext] = []
        self.guard_stack: List[frozenset] = []

    # -- plumbing ------------------------------------------------------

    @property
    def guards(self) -> frozenset:
        out: Set[str] = set()
        for g in self.guard_stack:
            out |= g
        return frozenset(out)

    def _new(self, stmt: ast.stmt, kind: str = "stmt") -> int:
        return self.cfg.add_node(stmt, kind=kind, guards=self.guards)

    def _connect(self, frontier: Sequence[int], dst: int) -> None:
        for src in frontier:
            self.cfg.add_edge(src, dst, NORMAL)

    # -- exception plumbing --------------------------------------------

    def _add_exc_edges(self, node_id: int) -> None:
        """Wire *node_id*'s exception edges per the selective model."""
        if not self.try_stack:
            return
        # every enclosing level's handlers can observe the exception
        # (we cannot know statically which handler type matches).
        for ctx in self.try_stack:
            for h in ctx.handler_entries:
                self.cfg.add_edge(node_id, h, EXC)
        # the escape path: unwind the finally chain of every enclosing
        # try (innermost first), then leave the scope exceptionally.
        self._connect_escape(node_id)

    def _connect_escape(self, node_id: int) -> None:
        """node --exc--> finally copies (innermost out) --> raise_exit."""
        target = self._escape_chain(len(self.try_stack))
        self.cfg.add_edge(node_id, target, EXC)

    def _escape_chain(self, depth: int) -> int:
        """Entry node of the exception-unwind chain for *depth* levels.

        Builds the chain of ``finally`` copies run when an exception
        escapes from inside *depth* enclosing tries (innermost finally
        first, then outward, ending at ``raise_exit``).  With no finally
        bodies anywhere the chain is just ``raise_exit``.
        """
        chains: List[Tuple[int, List[int]]] = [
            self._materialize_finally(ctx, kind="finally_exc")
            for ctx in reversed(self.try_stack[:depth])
            if ctx.finalbody
        ]
        target = self.cfg.raise_exit
        for head, tails in reversed(chains):
            self._connect(tails, target)
            target = head
        return target

    def _materialize_finally(
        self, ctx: _TryContext, kind: str = "finally"
    ) -> Tuple[int, List[int]]:
        """Fresh node copy of one finally body; returns (head, [tail]).

        The body is built with the full statement visitor (so control
        flow *inside* the finally -- the ``if es.running: es.stop()``
        cleanup idiom -- is modelled properly), bracketed by synthetic
        head/tail marker nodes carrying *kind*.  ``finally_exc`` marks
        the exception-unwind instantiation: the leak rule PL304 inspects
        the facts at its tail marker.

        While visiting, the try stack is truncated below *ctx*: an
        exception inside a finally propagates outward, never to its own
        try's handlers.  Loop contexts are hidden for the same reason.
        """
        head = self.cfg.add_node(None, kind=kind)
        tail = self.cfg.add_node(None, kind=kind)
        saved_tries, saved_loops = self.try_stack, self.loop_stack
        if ctx in saved_tries:
            self.try_stack = saved_tries[:saved_tries.index(ctx)]
        self.loop_stack = []
        try:
            out = self._visit_block(ctx.finalbody, [head])
        finally:
            self.try_stack, self.loop_stack = saved_tries, saved_loops
        self._connect(out, tail)
        return head, [tail]

    # -- statements ----------------------------------------------------

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        frontier = self._visit_block(body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit)
        return self.cfg

    def _visit_block(
        self, body: Sequence[ast.stmt], frontier: List[int]
    ) -> List[int]:
        for stmt in body:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._visit_stmt(stmt, frontier)
        return frontier

    def _visit_stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._visit_loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, frontier)
        if isinstance(stmt, ast.Return):
            node = self._new(stmt)
            self._connect(frontier, node)
            self._maybe_exc(node, stmt)
            self._unwind_to(node, 0, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._new(stmt)
            self._connect(frontier, node)
            if self.try_stack:
                self._add_exc_edges(node)
            else:
                self.cfg.add_edge(node, self.cfg.raise_exit, EXC)
            return []
        if isinstance(stmt, ast.Break):
            node = self._new(stmt)
            self._connect(frontier, node)
            if self.loop_stack:
                loop = self.loop_stack[-1]
                loop.break_sources.extend(
                    self._unwind_tails(node, loop.try_depth)
                )
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new(stmt)
            self._connect(frontier, node)
            if self.loop_stack:
                loop = self.loop_stack[-1]
                tails = self._unwind_tails(node, loop.try_depth)
                self._connect(tails, loop.header)
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # nested definitions are separate scopes; the def itself is
            # a no-raise binding statement.
            node = self._new(stmt)
            self._connect(frontier, node)
            return [node]
        # simple statement
        node = self._new(stmt)
        self._connect(frontier, node)
        self._maybe_exc(node, stmt)
        return [node]

    def _maybe_exc(self, node_id: int, stmt: ast.stmt) -> None:
        if self.try_stack and _contains_call(stmt):
            self._add_exc_edges(node_id)

    def _unwind_tails(self, src: int, stop_depth: int) -> List[int]:
        """Run finallys innermost-down-to *stop_depth*; return the tails."""
        tails = [src]
        for ctx in reversed(self.try_stack[stop_depth:]):
            if not ctx.finalbody:
                continue
            head, new_tails = self._materialize_finally(ctx)
            self._connect(tails, head)
            tails = new_tails
        return tails

    def _unwind_to(self, src: int, stop_depth: int, target: int) -> None:
        self._connect(self._unwind_tails(src, stop_depth), target)

    # -- compound statements -------------------------------------------

    def _visit_if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        cond = self._new(stmt)
        self._connect(frontier, cond)
        self._maybe_exc(cond, stmt)
        # assume nodes carry the branch outcome so the typestate
        # transfer can refine facts from tests like ``if es.running:``
        # (path-sensitivity for the cleanup idiom).
        on_true = self.cfg.add_node(stmt, kind="assume_true",
                                    guards=self.guards)
        on_false = self.cfg.add_node(stmt, kind="assume_false",
                                     guards=self.guards)
        self.cfg.add_edge(cond, on_true, NORMAL)
        self.cfg.add_edge(cond, on_false, NORMAL)
        then_out = self._visit_block(stmt.body, [on_true])
        else_out = self._visit_block(stmt.orelse, [on_false])
        return then_out + (else_out if stmt.orelse else [on_false])

    def _visit_loop(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        header = self._new(stmt)
        self._connect(frontier, header)
        self._maybe_exc(header, stmt)
        body_entry: List[int] = [header]
        exit_entry: List[int] = [header]
        if isinstance(stmt, ast.While):
            # While conditions get assume nodes like If branches do
            # (``while es.running:`` drains a running set, and the exit
            # edge proves it is stopped).
            on_true = self.cfg.add_node(stmt, kind="assume_true",
                                        guards=self.guards)
            on_false = self.cfg.add_node(stmt, kind="assume_false",
                                         guards=self.guards)
            self.cfg.add_edge(header, on_true, NORMAL)
            self.cfg.add_edge(header, on_false, NORMAL)
            body_entry, exit_entry = [on_true], [on_false]
        loop = _LoopContext(header, len(self.try_stack))
        self.loop_stack.append(loop)
        try:
            body_out = self._visit_block(stmt.body, body_entry)
        finally:
            self.loop_stack.pop()
        self._connect(body_out, header)  # back edge
        # loop exit: the header's "condition false / iterator exhausted"
        # edge feeds the else block (if any), then falls through.
        orelse_out = self._visit_block(stmt.orelse, exit_entry)
        exits = orelse_out if stmt.orelse else exit_entry
        out = list(exits)
        for tail in loop.break_sources:
            out.append(tail)
        return out

    def _visit_with(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        node = self._new(stmt)
        self._connect(frontier, node)
        self._maybe_exc(node, stmt)
        return self._visit_block(stmt.body, [node])

    def _visit_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        # handler entry markers are created first so body statements can
        # target them; each handler's body is visited under its guard.
        handler_entries: List[int] = []
        for handler in stmt.handlers:
            handler_entries.append(
                self.cfg.add_node(handler, kind="stmt", guards=self.guards)
            )
        ctx = _TryContext(handler_entries, stmt.finalbody)
        guard = frozenset(
            n for h in stmt.handlers for n in handler_names(h)
        )

        self.try_stack.append(ctx)
        self.guard_stack.append(guard)
        try:
            body_out = self._visit_block(stmt.body, frontier)
            else_out = self._visit_block(stmt.orelse, body_out)
        finally:
            self.guard_stack.pop()
            self.try_stack.pop()

        # handler bodies run outside the try's own guard but still see
        # any *outer* guards; their statements can themselves raise into
        # outer handlers.
        handler_outs: List[int] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            h_out = self._visit_block(handler.body, [entry])
            handler_outs.extend(h_out)

        # normal completion and handler completion both run the finally.
        joined = else_out + handler_outs
        if stmt.finalbody:
            head, tails = self._materialize_finally(ctx)
            self._connect(joined, head)
            return tails
        return joined


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build the control-flow graph for one scope's statement list."""
    return _Builder().build(body)


def reachable(cfg: CFG) -> Set[int]:
    """Node ids reachable from the entry (debug/test helper)."""
    seen: Set[int] = set()
    stack = [cfg.entry]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for dst, _kind in cfg.succs.get(node, ()):
            stack.append(dst)
    return seen
