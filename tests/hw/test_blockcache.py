"""Block execution engine: partitioning, bit-exactness, replay, deadlines.

Every test here checks the engine against the same ground truth: the
pure interpreter (``engine="off"``).  The contract under test is
*bit-exactness* -- not "close", identical.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.hw import Assembler, Machine, MachineConfig, Signal
from repro.hw.blockcache import (
    MAX_BLOCK_LEN,
    _compute_leaders,
    _count_consecutive_takens,
)
from repro.hw.branch import GsharePredictor, StaticTakenPredictor, TwoBitPredictor
from repro.hw.cpu import MachineFault
from repro.hw.isa import Op


def machine_pair(**cfg):
    """A (engine-off, engine-on) machine pair with identical configs."""
    base = MachineConfig(**cfg)
    off = Machine(dataclasses.replace(base, engine="off"))
    on = Machine(dataclasses.replace(base, engine="trace"))
    return off, on


def full_state(m: Machine):
    """Everything observable that must match between the two paths."""
    return {
        "counts": list(m.counts),
        "real_cycles": m.real_cycles,
        "iregs": list(m.cpu.iregs),
        "fregs": list(m.cpu.fregs),
        "memory": list(m.cpu.memory),
        "pc": m.cpu.pc,
        "halted": m.cpu.halted,
        "call_stack": list(m.cpu.call_stack),
        "touched_pages": set(m.cpu.touched_pages),
        "cache_stats": m.hierarchy.stats_snapshot(),
    }


def assert_equivalent(prog, run, **cfg):
    """Run *prog* via *run(machine)* on both paths; states must match."""
    off, on = machine_pair(**cfg)
    off.load(prog)
    on.load(prog)
    r_off = run(off)
    r_on = run(on)
    s_off, s_on = full_state(off), full_state(on)
    for key in s_off:
        assert s_off[key] == s_on[key], key
    assert r_off == r_on
    return off, on


def counting_loop(n=500, stride=1):
    asm = Assembler(name="count")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.addi("r3", "r3", 7)
    asm.addi("r1", "r1", stride)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def test_leaders_cover_entry_targets_and_joins():
    prog = counting_loop()
    code = prog.resolve()
    leaders = _compute_leaders(code)
    # entry pc and the loop head (branch target) are leaders, as is the
    # fall-through successor of the closing branch.
    assert 0 in leaders
    branch_pc = next(pc for pc, ins in enumerate(code) if ins[0] == Op.BLT)
    assert code[branch_pc][3] in leaders
    assert branch_pc + 1 in leaders


def test_probe_pcs_never_compiled():
    asm = Assembler(name="probed")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", 50)
    asm.label("loop")
    asm.probe(3)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    prog = asm.build()

    hits = []
    off, on = machine_pair()
    for m in (off, on):
        m.load(prog)
        m.register_probe(3, lambda pid, cpu: hits.append((pid, cpu.pc)))
        m.run_to_completion()
    assert full_state(off) == full_state(on)
    # 50 firings per machine, identical pcs
    assert len(hits) == 100
    assert hits[:50] == hits[50:]
    # the PROBE pc heads no compiled block
    st = on.engine_stats()
    assert st.blocks_compiled >= 1


# ----------------------------------------------------------------------
# bit-exact equivalence across program shapes
# ----------------------------------------------------------------------


def test_counting_loop_equivalence():
    off, on = assert_equivalent(
        counting_loop(2000), lambda m: m.run_to_completion()
    )
    st = on.engine_stats()
    assert st.fast_instructions > 0
    assert st.replays >= 1
    assert st.replayed_instructions > 0
    assert off.engine_stats() is None


def test_fma_loop_equivalence(fma_loop_program):
    _, on = assert_equivalent(
        fma_loop_program, lambda m: m.run_to_completion()
    )
    # striding store base: compiled path yes, bulk replay no.
    assert on.engine_stats().fast_instructions > 0


def test_call_ret_and_memory_equivalence():
    asm = Assembler(name="callmem")
    base = asm.reserve_data(64)
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", 40)
    asm.li("r5", base)
    asm.label("loop")
    asm.call("work")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    asm.func("work")
    asm.load("r3", "r5", 2)
    asm.add("r4", "r4", "r3")
    asm.store("r4", "r5", 3)
    asm.ret()
    asm.endfunc()
    assert_equivalent(asm.build(), lambda m: m.run_to_completion())


def test_long_straight_line_block_split():
    # straight-line run far beyond MAX_BLOCK_LEN: split blocks must chain.
    asm = Assembler(name="straight")
    asm.label("main")
    for i in range(3 * MAX_BLOCK_LEN):
        asm.addi("r1", "r1", i % 5)
    asm.halt()
    _, on = assert_equivalent(asm.build(), lambda m: m.run_to_completion())
    assert on.engine_stats().blocks_compiled >= 3


def _fault_program(case: str):
    """A short program whose compiled code faults with *case*."""
    asm = Assembler(name=f"fault_{case}")
    asm.label("main")
    asm.li("r1", 3)
    asm.li("r2", 0)
    asm.fli("f1", -2.0)
    asm.fli("f2", 0.0)
    asm.addi("r3", "r1", 4)
    if case == "div":
        asm.div("r3", "r1", "r2")
    elif case == "fdiv":
        asm.fdiv("f3", "f1", "f2")
    elif case == "fsqrt":
        asm.fsqrt("f3", "f1")
    elif case == "load":
        asm.li("r4", 1 << 40)
        asm.load("r5", "r4", 0)
    elif case == "store":
        asm.li("r4", 1 << 40)
        asm.store("r4", "r4", 0)
    else:  # "ret": RET on an empty call stack
        asm.ret()
    asm.halt()
    return asm.build()


_FAULT_TEXT = {
    "div": "integer divide by zero",
    "fdiv": "float divide by zero",
    "fsqrt": "sqrt of negative value",
    "load": "load address",
    "store": "store address",
    "ret": "RET with empty call stack",
}


@pytest.mark.parametrize("case", list(_FAULT_TEXT))
def test_fault_counts_identical(case):
    """A fault leaves the same message, counts, pc and cache state at
    every engine tier, and the compiled tiers really ran the fault."""
    prog = _fault_program(case)
    seen = {}
    for engine in ("off", "block", "trace"):
        m = Machine(MachineConfig(engine=engine))
        m.load(prog)
        with pytest.raises(MachineFault) as err:
            m.run_to_completion()
        seen[engine] = (
            str(err.value), list(m.counts), m.cpu.pc,
            m.hierarchy.stats_snapshot(),
        )
        if engine != "off":
            assert m.engine_stats().blocks_compiled >= 1
    assert seen["off"] == seen["block"] == seen["trace"]
    assert _FAULT_TEXT[case] in seen["off"][0]


# ----------------------------------------------------------------------
# budget deadlines: stop at exactly the same instruction either way
# ----------------------------------------------------------------------


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 151, 1499])
def test_instruction_budget_boundary(budget):
    assert_equivalent(
        counting_loop(300), lambda m: m.run(max_instructions=budget)
    )


@pytest.mark.parametrize("budget", [1, 13, 100, 997, 4001])
def test_cycle_budget_boundary(budget):
    assert_equivalent(
        counting_loop(300), lambda m: m.run(max_cycles=budget)
    )


def test_resume_after_budget_is_equivalent():
    def run(m):
        parts = []
        while not m.cpu.halted:
            parts.append(m.run(max_instructions=37).instructions)
        return parts

    assert_equivalent(counting_loop(400), run)


# ----------------------------------------------------------------------
# PMU deadlines: overflow watches and timers fire identically
# ----------------------------------------------------------------------


def test_overflow_records_identical_mid_loop():
    prog = counting_loop(3000)
    records = {}
    for label, m in zip(("off", "on"), machine_pair()):
        m.load(prog)
        got = []
        m.pmu.program(0, [Signal.TOT_INS])
        m.pmu.set_overflow(0, 700, lambda rec, got=got: got.append(
            (rec.trigger_pc, rec.reported_pc, rec.cycle, rec.overflow_count)
        ))
        m.pmu.start(0)
        m.run_to_completion()
        records[label] = got
    assert records["on"] == records["off"]
    assert len(records["on"]) >= 10


def test_cycle_timer_ticks_identical():
    prog = counting_loop(2000)
    ticks = {}
    for label, m in zip(("off", "on"), machine_pair()):
        m.load(prog)
        got = []
        m.pmu.set_cycle_timer(900, lambda cycle, got=got: got.append(cycle))
        m.run_to_completion()
        ticks[label] = got
    assert ticks["on"] == ticks["off"]
    assert len(ticks["on"]) >= 5


# ----------------------------------------------------------------------
# replay engagement and invalidation
# ----------------------------------------------------------------------


def test_replay_reaches_steady_state_counts():
    n = 100_000
    off, on = assert_equivalent(
        counting_loop(n), lambda m: m.run_to_completion()
    )
    st = on.engine_stats()
    # nearly every loop instruction retires via bulk replay
    assert st.replayed_instructions > 0.9 * 3 * n


def test_charge_barrier_rearms_replay():
    off, on = machine_pair()
    prog = counting_loop(5000)
    on.load(prog)
    on.run(max_instructions=4000)
    flushes0 = on.engine_stats().flushes
    on.charge(100, pollute_lines=32)
    assert on.engine_stats().flushes > flushes0
    on.run_to_completion()

    off.load(prog)
    off.run(max_instructions=4000)
    off.charge(100, pollute_lines=32)
    off.run_to_completion()
    assert full_state(off) == full_state(on)


def test_reload_retires_old_table():
    off, on = machine_pair()
    a = counting_loop(200)
    b = counting_loop(300, stride=2)
    for m in (off, on):
        m.load(a)
        m.run_to_completion()
        m.load(b)
        m.run_to_completion()
    assert full_state(off) == full_state(on)


def test_pmu_read_mid_run_flushes_engine():
    off, on = machine_pair()
    prog = counting_loop(100)
    on.load(prog)
    on.pmu.program(0, [Signal.TOT_INS])
    on.pmu.start(0)
    flushes0 = on.engine_stats().flushes
    on.run_to_completion()
    value = on.pmu.read(0)
    assert on.engine_stats().flushes > flushes0

    off.load(prog)
    off.pmu.program(0, [Signal.TOT_INS])
    off.pmu.start(0)
    off.run_to_completion()
    assert value == off.pmu.read(0)


# ----------------------------------------------------------------------
# scheduler integration: context switches preserve bit-exactness
# ----------------------------------------------------------------------


def test_scheduler_slices_equivalent_and_counted():
    from repro.simos.scheduler import OS

    results = {}
    for label, m in zip(("off", "on"), machine_pair()):
        os_ = OS(m, quantum_cycles=2500)
        os_.spawn(counting_loop(4000))
        os_.spawn(counting_loop(3000, stride=2))
        stats = os_.run()
        results[label] = (
            full_state(m), stats.slices, stats.context_switches,
            [t.user_cycles for t in os_.threads],
        )
        if label == "on":
            assert stats.engine_instructions > 0
        else:
            assert stats.engine_instructions == 0
    assert results["on"] == results["off"]


# ----------------------------------------------------------------------
# predictor steady-state units
# ----------------------------------------------------------------------


def test_two_bit_steady_taken_requires_saturation():
    p = TwoBitPredictor()
    assert not p.steady_taken(5)
    for _ in range(4):
        p.update(5, True)
    assert p.steady_taken(5)
    p.update(5, False)
    assert not p.steady_taken(5)


def test_static_taken_is_always_steady():
    assert StaticTakenPredictor().steady_taken(123)


def test_gshare_steady_needs_saturated_history_and_counter():
    p = GsharePredictor()
    assert not p.steady_taken(5)
    for _ in range(64):
        p.update(5, True)
    assert p.steady_taken(5)


# ----------------------------------------------------------------------
# closed-form taken counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind,c,s,bound", [
    ("lt", 0, 1, 10), ("lt", 3, 2, 100), ("lt", 9, 1, 10),
    ("le", 0, 3, 30), ("ge", 50, -7, 3), ("gt", 50, -1, 0),
    ("ne", 0, 1, 25), ("ne", 0, 3, 10), ("eq", 5, 0, 5),
])
def test_count_consecutive_takens_matches_bruteforce(kind, c, s, bound):
    pred = {
        "lt": lambda v: v < bound, "le": lambda v: v <= bound,
        "gt": lambda v: v > bound, "ge": lambda v: v >= bound,
        "eq": lambda v: v == bound, "ne": lambda v: v != bound,
    }[kind]
    cap = 1000
    brute = 0
    v = c
    while brute < cap:
        v += s
        if not pred(v):
            break
        brute += 1
    assert _count_consecutive_takens(kind, c, s, bound, cap) == brute
