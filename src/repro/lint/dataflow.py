"""A generic forward worklist dataflow solver over :mod:`repro.lint.cfg`.

The framework is deliberately tiny: a client supplies three callables
(initial fact, join, transfer) and gets back the fixed-point IN fact of
every node.  The typestate analysis, the interprocedural summary
computation and the SMP/thread rules are all instances of this solver
with different fact types; the solver itself knows nothing about PAPI.

Facts must be *value-comparable* (``==``) and the transfer/join pair
must be monotone over a finite lattice, or the worklist will not
terminate.  The typestate domain satisfies this by construction: facts
are finite sets over a finite universe of (object, state) pairs and all
transfers are elementwise filter/map.

Exception edges carry ``join(IN, OUT)`` of their source rather than just
OUT: an exception can surface before or after the source statement's
effect took place (``es.start()`` can raise before the set is running,
``work(); es.stop()`` can raise after it already was), and joining both
sides is sound for either ordering without modelling sub-statement
program points.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generic, Tuple, TypeVar

from repro.lint.cfg import CFG, EXC

Fact = TypeVar("Fact")


class Analysis(Generic[Fact]):
    """Client hooks for one forward dataflow problem."""

    def initial(self) -> Fact:
        """Fact at the scope entry."""
        raise NotImplementedError

    def bottom(self) -> Fact:
        """Fact for not-yet-reached nodes (identity of join)."""
        raise NotImplementedError

    def join(self, a: Fact, b: Fact) -> Fact:
        raise NotImplementedError

    def transfer(self, node, fact: Fact) -> Fact:
        """OUT fact of *node* given its IN fact.  Must not mutate."""
        raise NotImplementedError

    def exc_adapt(self, fact: Fact) -> Fact:
        """Transform a fact flowing along an exception edge.

        The typestate client overrides this to tag every lifecycle
        element as exception-reached, which is what the leak rules
        (PL303/PL304) key on.  Default: identity.
        """
        return fact


def solve(
    cfg: CFG, analysis: Analysis[Fact], max_iterations: int = 100_000
) -> Tuple[Dict[int, Fact], Dict[int, Fact]]:
    """Run *analysis* to fixpoint; returns (IN, OUT) facts per node id.

    ``max_iterations`` is a safety valve against a non-monotone client:
    hitting it raises rather than spinning, because a linter that hangs
    is worse than one that crashes.
    """
    preds = cfg.preds()
    ins: Dict[int, Fact] = {n.id: analysis.bottom() for n in cfg.nodes}
    outs: Dict[int, Fact] = {n.id: analysis.bottom() for n in cfg.nodes}
    ins[cfg.entry] = analysis.initial()

    work = deque(n.id for n in cfg.nodes)
    queued = set(work)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                "dataflow did not converge (non-monotone transfer?)"
            )
        node_id = work.popleft()
        queued.discard(node_id)
        node = cfg.nodes[node_id]

        if node_id != cfg.entry:
            fact = analysis.bottom()
            for src, kind in preds[node_id]:
                contrib = outs[src]
                if kind == EXC:
                    contrib = analysis.exc_adapt(
                        analysis.join(ins[src], outs[src])
                    )
                fact = analysis.join(fact, contrib)
            ins[node_id] = fact

        new_out = analysis.transfer(node, ins[node_id])
        if new_out != outs[node_id]:
            outs[node_id] = new_out
            for dst, _kind in cfg.succs[node_id]:
                if dst not in queued:
                    work.append(dst)
                    queued.add(dst)
    return ins, outs
