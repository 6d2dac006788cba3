"""Layer hooks for papibench: work counters and the traced run.

Everything here patches the program's public entry points from the
outside and restores them afterwards; no file under ``src/`` knows it is
being measured.  Two hook sets exist:

- :class:`WorkCounts` wraps only constructors (``Machine.__init__``), so
  it costs one extra call per simulated machine.  After a pass it sums
  the deterministic work every machine did: retired instructions and the
  block engine's compile counts.  Both the untraced and the traced pass
  of a ``--trace 1`` run install it, and the two results must be equal,
  because tracing must not change simulated work.
- :class:`Tracer` wraps every layer in :data:`SPAN_LAYERS` with a span
  (name, start, end, parent) and every per-access method in
  :data:`HOT_LAYERS` with count/total/child-time accumulators, which are
  far cheaper than spans at millions of calls per pass.  A layer's self
  time is its spans' thread CPU time minus that of the spans and
  accumulated calls nested inside them.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: span layers: metric name -> (module, attribute path) of each callable
#: timed under that name.  A module-level function is rebound in every
#: ``repro`` and bench module that imported it by name.
SPAN_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "platforms.create": (("repro.platforms", "create"),),
    "hw.isa.build": (("repro.hw.isa", "Assembler.build"),),
    "hw.machine.load": (("repro.hw.machine", "Machine.load"),),
    "hw.blockcache.compile": (
        ("repro.hw.blockcache", "BlockCompiler.compile_block"),
        ("repro.hw.blockcache", "BlockCompiler.compile_trace"),
        ("repro.hw.blockcache", "BlockCompiler.compile_region"),
    ),
    # CPU.run is the one entry into execution: Machine.run,
    # run_to_completion and the SMP scheduler all call it.
    "hw.machine.run": (("repro.hw.cpu", "CPU.run"),),
    "core.eventset.start": (("repro.core.eventset", "EventSet.start"),),
    "core.eventset.read": (("repro.core.eventset", "EventSet.read"),),
    "core.eventset.stop": (("repro.core.eventset", "EventSet.stop"),),
    "daemon.client.read_many": (
        ("repro.daemon.client", "PapidClient.read_many"),
    ),
    "daemon.server.submit": (("repro.daemon.server", "PapidServer.submit"),),
    "daemon.worker.handle": (("repro.daemon.worker", "WorkerState.handle"),),
    "daemon.journal.append": (("repro.daemon.journal", "Journal.append"),),
    "validate.plane.oracle": (
        ("repro.validate.conformance", "run_oracle_plane"),
    ),
    "validate.plane.virtual": (
        ("repro.validate.conformance", "run_virtualization_plane"),
    ),
    "validate.plane.components": (
        ("repro.validate.components", "run_components_plane"),
    ),
    "validate.plane.cost": (("repro.validate.cost", "run_cost_plane"),),
    "validate.plane.convergence": (
        ("repro.validate.convergence", "run_convergence_plane"),
    ),
    "validate.plane.skid": (("repro.validate.skid", "run_skid_plane"),),
    "validate.plane.refute": (("repro.refute.engine", "run_refute_plane"),),
    "validate.oracle": (("repro.validate.oracle", "expected_signal_counts"),),
    "refute.plane": (("repro.refute.engine", "RefutationEngine.run"),),
    "lint.ast": (("repro.lint.apilint", "ApiLinter.lint"),),
    "lint.flow": (("repro.lint.flow", "lint_flow"),),
}

#: per-access layers (millions of calls per ``tables`` pass).
HOT_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "hw.cache.data_access": (("repro.hw.cache", "MemoryHierarchy.data_access"),),
    "hw.cache.inst_fetch": (("repro.hw.cache", "MemoryHierarchy.inst_fetch"),),
    # every predictor class's own predict/update (filled in at install).
    "hw.branch": (),
}

ENGINE_COUNTS = ("blocks_compiled", "regions_compiled", "traces_compiled")


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``Class.attr`` or ``function`` in *module*."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Replace callables and put every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
            bindings = [(owner, name)]
        else:
            original = getattr(owner, name)
            # `from module import fn [as alias]` copies the binding into
            # the importer: rebind every copy.
            bindings = [
                (mod, attr)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (
                    mod_name == "repro" or mod_name.startswith("repro.")
                    or mod_name.startswith("bench_")
                )
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        wrapped = make(original)
        for target, attr in bindings:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


class WorkCounts:
    """Deterministic work of every machine built while installed."""

    def __init__(self) -> None:
        self._cpus: List[Tuple[list, object]] = []
        self._patches = Patches()

    def install(self) -> None:
        from repro.hw.machine import Machine

        cpus = self._cpus

        def make(init):
            def __init__(machine, *args, **kwargs):
                init(machine, *args, **kwargs)
                for cpu in machine.cpus:
                    stats = cpu.engine.stats if cpu.engine is not None else None
                    cpus.append((cpu.counts, stats))
            return __init__

        self._patches.replace(Machine, "__init__", make)

    def restore(self) -> None:
        self._patches.restore()

    def totals(self) -> Dict[str, int]:
        from repro.hw.events import Signal

        out = {"sim.instructions": 0, "sim.fast_instructions": 0}
        out.update({f"hw.engine.{k}": 0 for k in ENGINE_COUNTS})
        for counts, stats in self._cpus:
            out["sim.instructions"] += counts[Signal.TOT_INS]
            if stats is not None:
                out["sim.fast_instructions"] += stats.fast_instructions
                for key in ENGINE_COUNTS:
                    out[f"hw.engine.{key}"] += getattr(stats, key)
        return out


class _ThreadState:
    """One thread's spans, open-span stack and hot accumulators."""

    def __init__(self) -> None:
        #: spans as [name, start_ns, end_ns, parent index or -1, child_ns].
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: hot layer name -> [calls, total ns]
        self.hot: Dict[str, List[int]] = {name: [0, 0] for name in HOT_LAYERS}
        self.rotations = 0


class Tracer:
    """Spans at coarse layer boundaries, accumulators for hot methods.

    Times are the calling thread's CPU time, and every thread keeps its
    own spans: papid dispatches each shard's batch on its own thread, and
    wall-clock spans of threads taking turns on the interpreter lock
    would each include the others' work.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches = Patches()

    def _new_state(self) -> _ThreadState:
        state = _ThreadState()
        with self._lock:
            self._threads.append(state)
        self._local.state = state
        return state

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str):
        local, new_state = self._local, self._new_state
        clock = time.thread_time_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                spans, stack = state.spans, state.stack
                span = [name, 0, 0, stack[-1] if stack else -1, 0]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = end = clock()
                    stack.pop()
                    if span[3] >= 0:
                        spans[span[3]][4] += end - span[1]
            return wrapper
        return make

    def _hot(self, name: str):
        local, new_state = self._local, self._new_state
        clock = time.thread_time_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                acc = state.hot[name]
                acc[0] += 1
                acc[1] += elapsed
                if state.stack:
                    state.spans[state.stack[-1]][4] += elapsed
                return result
            return wrapper
        return make

    def _count_rotations(self, tick):
        # MultiplexController keeps a running ``rotations`` tally but no
        # public hook, so count the increments each timer tick makes.
        local, new_state = self._local, self._new_state

        def wrapper(controller, *args, **kwargs):
            before = controller.rotations
            try:
                return tick(controller, *args, **kwargs)
            finally:
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                state.rotations += controller.rotations - before
        return wrapper

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        from repro.core.multiplex import MultiplexController
        from repro.hw.branch import BranchPredictor

        for name, targets in SPAN_LAYERS.items():
            for module, path in targets:
                self._patches.replace(*_resolve(module, path), self._span(name))
        for name, targets in HOT_LAYERS.items():
            for module, path in targets:
                self._patches.replace(*_resolve(module, path), self._hot(name))
        pending = [BranchPredictor]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in ("predict", "update"):
                if method in cls.__dict__:
                    self._patches.replace(cls, method, self._hot("hw.branch"))
        self._patches.replace(
            MultiplexController, "_on_tick", self._count_rotations
        )

    def restore(self) -> None:
        self._patches.restore()

    # -- report -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, float]:
        """``<layer>`` call counts and ``<layer>.s`` self CPU times (seconds)."""
        out: Dict[str, float] = {}
        for name in list(SPAN_LAYERS) + list(HOT_LAYERS):
            out[name] = 0
            out[f"{name}.s"] = 0.0
        out["core.multiplex.rotations"] = 0
        for state in self._threads:
            for name, start, end, _parent, child_ns in state.spans:
                out[name] += 1
                out[f"{name}.s"] += (end - start - child_ns) * 1e-9
            for name, (calls, total_ns) in state.hot.items():
                out[name] += calls
                out[f"{name}.s"] += total_ns * 1e-9
            out["core.multiplex.rotations"] += state.rotations
        return out
