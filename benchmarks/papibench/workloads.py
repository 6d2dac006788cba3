"""The three papibench workloads.

Each workload offers the same four operations to ``run.py``:

- ``setup_time()`` -- one timed set-up, as a user pays it;
- ``prepare()`` -- untimed in-process preparation (imports, inputs);
- ``timed(seconds)`` -- the end-to-end measured phase;
- ``fixed_pass()`` -- a fixed amount of work for the traced run, so the
  untraced and traced passes do identical, comparable work.

Each returns or fills an :class:`Outcome`.  Checks that would add work
to a traced pass (the papid replay) go in ``Outcome.deferred`` and run
after the layer hooks are removed.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PYTHONPATH = [ROOT / "src", ROOT / "benchmarks", ROOT / "tests" / "differential"]


@dataclass
class Outcome:
    """What one measured phase or pass produced."""

    #: seconds per repetition of the workload's unit of work.
    wall_s: List[float] = field(default_factory=list)
    #: seconds per blocking call into the system under test.
    calls_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: deterministic work counts read from the outputs.
    counts: Dict[str, int] = field(default_factory=dict)
    #: workload-specific readouts for the report (seconds, rates).
    readouts: Dict[str, float] = field(default_factory=dict)
    #: checks to run once hooks are removed; each returns failures.
    deferred: List[Callable[[], List[str]]] = field(default_factory=list)


def _child_setup_time(code: str) -> float:
    """Seconds a fresh interpreter takes to run *code* (imports, inputs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in PYTHONPATH] + [env.get("PYTHONPATH", "")]
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# tables: the 14 paper/ablation tables against the differential goldens
# ---------------------------------------------------------------------------

class Tables:
    """E1-E10 and A1-A4, bit-exact with ``goldens_seed.json``.

    The tables are fixed experiments, so the seed does not change them:
    their goldens pin every input.
    """

    name = "tables"
    SETUP = (
        "import json, tables\n"
        "for key in tables.EXPERIMENTS:\n"
        "    tables._load_bench(key)\n"
        "json.loads(tables.GOLDENS_PATH.read_text())\n"
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup_time(self) -> float:
        return _child_setup_time(self.SETUP)

    def prepare(self) -> None:
        import tables
        from repro.hw.machine import MachineConfig

        self.tables = tables
        self.goldens = json.loads(tables.GOLDENS_PATH.read_text())
        # the engine tier the tables run at is the machine's default.
        self.tier = MachineConfig().engine_tier
        for key in tables.EXPERIMENTS:
            tables._load_bench(key)
        # Mark the moment each table creates a simulated platform, so a
        # pass splits into its ~240 sessions (one platform set up, run
        # and read) instead of 14 tables of 0.02 s to 8 s each.
        self.marks: List[float] = []
        tables._forced_create = _marking(tables._forced_create, self.marks)

    def run_pass(self, out: Outcome) -> None:
        elapsed = 0.0
        for key in self.tables.EXPERIMENTS:
            # each table starts from a collected heap, so its memory peak
            # does not depend on when the collector last ran.
            gc.collect()
            self.marks[:] = [time.perf_counter()]
            table = self.tables.build_table(key, self.tier)
            self.marks.append(time.perf_counter())
            out.calls_s += [b - a for a, b in zip(self.marks, self.marks[1:])]
            elapsed += self.marks[-1] - self.marks[0]
            out.attempted += 1
            if json.loads(json.dumps(table)) != self.goldens[key]["engine_on"]:
                out.failures.append(f"table {key} differs from its golden")
        out.wall_s.append(elapsed)
        out.counts["tables.count"] = out.counts.get("tables.count", 0) + len(
            self.tables.EXPERIMENTS
        )

    def timed(self, seconds: float) -> Outcome:
        return _repeat(self.run_pass, seconds)

    def fixed_pass(self) -> Outcome:
        out = Outcome()
        self.run_pass(out)
        return out


def _marking(factory: Callable, marks: List[float]) -> Callable:
    """Wrap the tables' ``create`` factory to record when each creation starts."""

    def marked_factory(engine):
        create = factory(engine)

        def marked_create(*args, **kwargs):
            marks.append(time.perf_counter())
            return create(*args, **kwargs)

        return marked_create

    return marked_factory


def _repeat(run_pass: Callable[[Outcome], None], seconds: float) -> Outcome:
    """Whole passes while the next one is expected to end in *seconds*."""
    out = Outcome()
    start = time.perf_counter()
    while True:
        gc.collect()
        run_pass(out)
        elapsed = time.perf_counter() - start
        if elapsed + out.wall_s[-1] > seconds:
            return out


# ---------------------------------------------------------------------------
# papid-reads: closed-loop batched reads against a two-shard daemon
# ---------------------------------------------------------------------------

class PapidReads:
    """One client thread sweeping ``read_many`` batches over a fleet.

    Each shard hosts every (platform, calibration kernel) pair the same
    number of times, so the work per shard and per sweep is the same at
    every seed.  The seed shuffles which session gets which pair, draws
    each machine's seed and picks the replayed sessions.
    """

    name = "papid-reads"
    PER_PAIR = 4            # per shard: 6 platforms x 5 kernels x 4 = 120
    BATCH = 10
    SHARDS = 2
    REPLAYED = 6
    TRACE_SWEEPS = 2

    def __init__(self, seed: int) -> None:
        from repro.daemon import SessionSpec, shard_of
        from repro.platforms import PLATFORM_NAMES
        from repro.workloads import CALIBRATION_KERNELS

        rng = random.Random(seed)
        pairs = [
            (platform, kernel)
            for platform in PLATFORM_NAMES
            for kernel in sorted(CALIBRATION_KERNELS)
        ] * self.PER_PAIR
        per_shard: List[List[str]] = [[] for _ in range(self.SHARDS)]
        candidate = 0
        while any(len(sids) < len(pairs) for sids in per_shard):
            sid = f"pb-{candidate:04d}"
            sids = per_shard[shard_of(sid, self.SHARDS)]
            if len(sids) < len(pairs):
                sids.append(sid)
            candidate += 1
        self.specs = []
        for sids in per_shard:
            rng.shuffle(pairs)
            self.specs += [
                SessionSpec(sid=sid, platform=platform, workload=kernel,
                            seed=rng.randrange(1, 1 << 30))
                for sid, (platform, kernel) in zip(sids, pairs)
            ]
        # Each batch reads sessions of one shard, and batches alternate
        # between the shards, so one worker computes at a time.  Batches
        # that kept both workers busy were up to 1.7x slower while other
        # tenants loaded the two-CPU host, which made runs incomparable.
        self.sids = []
        for lo in range(0, len(pairs), self.BATCH):
            for sids in per_shard:
                self.sids += sids[lo:lo + self.BATCH]
        self.replayed = set(rng.sample(self.sids, self.REPLAYED))
        self.seed = seed

    def prepare(self) -> None:
        pass

    # -- fleet lifecycle ---------------------------------------------------

    def _open(self, transport: str):
        from repro.daemon import DaemonConfig, PapidClient, PapidServer

        server = PapidServer(DaemonConfig(nshards=self.SHARDS,
                                          transport=transport))
        client = PapidClient(server, seed=self.seed)
        try:
            created = client.create_fleet(self.specs)
            started = client.start_many(self.sids)
        except BaseException:
            self._close(server, client)
            raise
        return server, client, started + created

    @staticmethod
    def _close(server, client) -> None:
        try:
            client.close()
        finally:
            server.drain()

    def setup_time(self) -> float:
        start = time.perf_counter()
        server, client, _ = self._open("process")
        elapsed = time.perf_counter() - start
        self._close(server, client)
        return elapsed

    # -- the read loop -------------------------------------------------------

    def _sweep_reads(self, server, client, out: Outcome, deadline=None,
                     sweeps=None) -> Dict[str, list]:
        """Closed-loop sweeps; returns each replayed session's read history."""
        history: Dict[str, list] = {sid: [] for sid in self.replayed}
        last: Dict[str, Dict[str, int]] = {}
        done = reads = 0
        loop_start = time.perf_counter()
        while True:
            sweep_start = time.perf_counter()
            for lo in range(0, len(self.sids), self.BATCH):
                chunk = self.sids[lo:lo + self.BATCH]
                t0 = time.perf_counter()
                results = client.read_many(chunk)
                out.calls_s.append(time.perf_counter() - t0)
                for res in results:
                    out.attempted += 1
                    reads += 1
                    problem = _read_problem(res, last.get(res.sid))
                    if problem:
                        out.failures.append(problem)
                    last[res.sid] = res.values
                    if res.sid in history:
                        history[res.sid].append(dict(res.values))
            out.wall_s.append(time.perf_counter() - sweep_start)
            done += 1
            if sweeps is not None and done >= sweeps:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        out.readouts["reads_per_s"] = reads / (time.perf_counter() - loop_start)
        out.counts["daemon.reads"] = reads
        problems = server.check_consistency()
        out.failures.extend(f"consistency: {p}" for p in problems)
        out.counts["daemon.journal.records"] = server.journal.n_records
        return history

    def _fleet_phase(self, transport: str, out: Outcome, **loop) -> None:
        server, client, opened = self._open(transport)
        try:
            out.attempted += len(opened)
            out.failures.extend(
                f"{res.kind} {res.sid}: {res.err}" for res in opened if not res.ok
            )
            starts = {res.sid: dict(res.values) for res in opened
                      if res.kind == "start" and res.sid in self.replayed}
            gc.collect()
            history = self._sweep_reads(server, client, out, **loop)
        finally:
            self._close(server, client)
        out.deferred.append(lambda: self._replay(starts, history))

    def timed(self, seconds: float) -> Outcome:
        out = Outcome()
        self._fleet_phase("process", out,
                          deadline=time.perf_counter() + seconds)
        return out

    def fixed_pass(self) -> Outcome:
        # inline transport: the worker layers run in this process, where
        # the tracer can see them.
        out = Outcome()
        start = time.perf_counter()
        self._fleet_phase("inline", out, sweeps=self.TRACE_SWEEPS)
        out.wall_s = [time.perf_counter() - start]
        return out

    # -- the independent replay ------------------------------------------

    def _replay(self, starts: Dict[str, dict], history: Dict[str, list]):
        """Re-run sampled sessions without the daemon, on the interpreter."""
        from repro.core.library import Papi
        from repro.platforms import create
        from repro.workloads import CALIBRATION_KERNELS

        failures = []
        for spec in self.specs:
            if spec.sid not in self.replayed:
                continue
            sub = create(spec.platform, seed=spec.seed, inject=spec.inject,
                         engine="off")
            papi = Papi(sub)
            program = CALIBRATION_KERNELS[spec.workload](
                spec.n, use_fma=sub.HAS_FMA
            ).program
            machine = sub.machine
            machine.load(program)
            es = papi.create_eventset()
            es.add_named(*spec.events)
            es.start()
            expected = [starts.get(spec.sid)] + history[spec.sid]
            for step, want in enumerate(expected):
                if step:
                    budget = spec.step_instructions
                    while budget > 0:
                        result = machine.run(max_instructions=budget)
                        budget -= result.instructions
                        if result.reason == "halt":
                            machine.load(program)
                            if result.instructions == 0:
                                break
                got = dict(zip(spec.events, es.read()))
                if got != want:
                    failures.append(
                        f"replay {spec.sid} read {step}: daemon {want} "
                        f"!= interpreter {got}"
                    )
                    break
            es.stop()
            papi.shutdown()
        return failures


def _read_problem(res, previous) -> str:
    if not res.ok:
        return f"read {res.sid}: status {res.status} {res.err}"
    if previous is not None and any(
        res.values[k] < previous.get(k, 0) for k in res.values
    ):
        return f"read {res.sid}: counts went backwards"
    return ""


# ---------------------------------------------------------------------------
# checkers: the validate matrix and papi-lint --flow on a frozen corpus
# ---------------------------------------------------------------------------

class Checkers:
    """``validate`` (all planes) then ``papi-lint --flow`` over the corpus.

    The validate matrix runs at its default seed 12345: at other seeds
    its oracle plane fails sample-derived simALPHA cells (a defect in the
    plane's tolerance, not in this benchmark), so the seed does not reach
    it.  The lint corpus is frozen (see ``freeze_corpus.py``).
    """

    name = "checkers"
    VALIDATE_SEED = 12345
    VALIDATE_CELLS = 292
    SETUP = (
        "import hashlib, io, json, tarfile\n"
        "import repro.validate.matrix, repro.refute.engine, repro.lint\n"
        f"blob = open({str(HERE / 'corpus.tar.gz')!r}, 'rb').read()\n"
        "hashlib.sha256(blob).hexdigest()\n"
        "with tarfile.open(fileobj=io.BytesIO(blob)) as tar:\n"
        "    [tar.extractfile(m).read() for m in tar.getmembers()]\n"
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup_time(self) -> float:
        return _child_setup_time(self.SETUP)

    def prepare(self) -> None:
        import repro.refute.engine  # noqa: F401  (imported lazily by run_all)
        from repro.lint import lint_source
        from repro.validate.matrix import run_all

        self.run_all, self.lint_source = run_all, lint_source
        self.corpus, self.expected = load_corpus()

    def run_pass(self, out: Outcome) -> None:
        start = time.perf_counter()
        matrix = self.run_all(seed=self.VALIDATE_SEED)
        validate_s = time.perf_counter() - start
        out.calls_s.append(validate_s)
        out.attempted += len(matrix.cells)
        out.failures.extend(
            f"validate {c.plane}/{c.platform}/{c.name}: {c.detail}"
            for c in matrix.failures()
        )
        if len(matrix.cells) != self.VALIDATE_CELLS:
            out.failures.append(
                f"validate produced {len(matrix.cells)} cells, "
                f"expected {self.VALIDATE_CELLS}"
            )
        lint_start = time.perf_counter()
        found = set()
        for path, source in self.corpus:
            t0 = time.perf_counter()
            diags = self.lint_source(source, path, flow=True)
            out.calls_s.append(time.perf_counter() - t0)
            out.attempted += 1
            got = {(d.code, d.path, d.line, d.col) for d in diags}
            if got != {f for f in self.expected if f[1] == path}:
                out.failures.append(f"lint {path}: findings differ from record")
            found |= got
        end = time.perf_counter()
        out.wall_s.append(end - start)
        _add(out.readouts, "validate_s", validate_s)
        _add(out.readouts, "lint_s", end - lint_start)
        _add(out.counts, "validate.cells", len(matrix.cells))
        _add(out.counts, "lint.files", len(self.corpus))
        _add(out.counts, "lint.diagnostics", len(found))

    def timed(self, seconds: float) -> Outcome:
        out = _repeat(self.run_pass, seconds)
        for key in ("validate_s", "lint_s"):
            out.readouts[key] /= len(out.wall_s)
        return out

    def fixed_pass(self) -> Outcome:
        out = Outcome()
        self.run_pass(out)
        return out


def _add(totals: Dict, key: str, value) -> None:
    totals[key] = totals.get(key, 0) + value


def load_corpus() -> Tuple[List[Tuple[str, str]], set]:
    """The frozen lint corpus and its recorded finding set, hash-checked."""
    meta = json.loads((HERE / "corpus.json").read_text())
    blob = (HERE / "corpus.tar.gz").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != meta["sha256"]:
        raise RuntimeError(
            f"corpus.tar.gz sha256 {digest} != recorded {meta['sha256']}"
        )
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        corpus = [
            (m.name, tar.extractfile(m).read().decode("utf-8"))
            for m in tar.getmembers()
        ]
    if len(corpus) != meta["files"]:
        raise RuntimeError(f"corpus holds {len(corpus)} files, not {meta['files']}")
    return corpus, {tuple(f) for f in meta["findings"]}


WORKLOADS = {w.name: w for w in (Tables, PapidReads, Checkers)}
