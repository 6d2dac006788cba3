"""Unit tests: the AST API-misuse checker (PL0xx rules)."""

from repro.lint import Severity, lint_file, lint_source

PRELUDE = """\
from repro.core.library import Papi
from repro.platforms import create

substrate = create("{platform}")
papi = Papi(substrate)
es = papi.create_eventset()
"""


def codes(source, platform=None, path="script.py"):
    return [
        d.code for d in lint_source(source, path, default_platform=platform)
    ]


def lint(source, platform=None, path="script.py"):
    return lint_source(source, path, default_platform=platform)


class TestRunControl:
    def test_read_before_start_is_pl001(self):
        src = PRELUDE.format(platform="simT3E") + "es.read()\n"
        assert codes(src) == ["PL001"]

    def test_stop_before_start_is_pl001(self):
        src = PRELUDE.format(platform="simT3E") + "es.stop()\n"
        assert codes(src) == ["PL001"]

    def test_read_after_stop_is_pl001(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.stop()\n"
            "es.read()\n"
        )
        assert codes(src) == ["PL001"]

    def test_double_start_is_pl002(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.start()\n"
            "es.stop()\n"
        )
        assert codes(src) == ["PL002"]

    def test_add_while_running_is_pl007(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            'es.add_named("PAPI_TOT_INS")\n'
            "es.stop()\n"
        )
        assert "PL007" in codes(src)

    def test_started_never_stopped_is_pl008(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
        )
        assert codes(src) == ["PL008"]

    def test_correct_sequence_is_clean(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS")\n'
            "es.start()\n"
            "es.read()\n"
            "counts = es.stop()\n"
        )
        assert codes(src) == []

    def test_diagnostic_carries_position(self):
        src = PRELUDE.format(platform="simT3E") + "es.read()\n"
        (diag,) = lint(src, path="myscript.py")
        assert diag.path == "myscript.py"
        assert diag.line == 7  # the es.read() line
        assert "myscript.py:7:" in diag.render()

    def test_overlapping_eventsets_is_pl013(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es2 = papi.create_eventset()\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            'es2.add_named("PAPI_TOT_INS")\n'
            "es.start()\n"
            "es2.start()\n"
            "es.stop()\n"
            "es2.stop()\n"
        )
        assert "PL013" in codes(src)


class TestMultiplexAndOverflow:
    def test_set_multiplex_after_add_is_pl003(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.set_multiplex()\n"
        )
        assert "PL003" in codes(src)

    def test_set_multiplex_before_add_is_clean(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.set_multiplex()\n"
            'es.add_named("PAPI_TOT_CYC")\n'
        )
        assert "PL003" not in codes(src)

    def test_short_multiplexed_run_is_pl004(self):
        src = PRELUDE.format(platform="simX86") + (
            "es.set_multiplex()\n"
            'es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS")\n'
            "es.start()\n"
            "substrate.machine.run(max_instructions=1000)\n"
            "es.stop()\n"
        )
        result = codes(src)
        assert "PL004" in result

    def test_long_multiplexed_run_is_clean_of_pl004(self):
        src = PRELUDE.format(platform="simX86") + (
            "es.set_multiplex()\n"
            'es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS")\n'
            "es.start()\n"
            "substrate.machine.run(max_instructions=500000)\n"
            "es.stop()\n"
        )
        assert "PL004" not in codes(src)

    def test_overflow_on_running_set_is_pl005(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.overflow(0, 10000, lambda *a: None)\n"
            "es.stop()\n"
        )
        assert "PL005" in codes(src)

    def test_overflow_plus_multiplex_is_pl009(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.set_multiplex()\n"
            "es.overflow(0, 10000, lambda *a: None)\n"
        )
        assert "PL009" in codes(src)


class TestEventNames:
    def test_unknown_preset_is_pl010(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_NO_SUCH")\n'
        )
        assert "PL010" in codes(src)

    def test_unavailable_preset_is_pl011(self):
        # PAPI_BR_MSP exists in the catalogue but has no simT3E mapping.
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_BR_MSP")\n'
        )
        assert "PL011" in codes(src)

    def test_duplicate_add_is_pl012(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            'es.add_named("PAPI_TOT_CYC")\n'
        )
        assert "PL012" in codes(src)

    def test_module_constant_list_is_resolved(self):
        src = (
            'EVENTS = ["PAPI_TOT_CYC", "PAPI_NO_SUCH"]\n'
            + PRELUDE.format(platform="simT3E")
            + "es.add_named(*EVENTS)\n"
        )
        assert "PL010" in codes(src)

    def test_event_name_to_code_call_is_resolved(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_event(papi.event_name_to_code("PAPI_NO_SUCH"))\n'
        )
        assert "PL010" in codes(src)


class TestMixingInterfaces:
    def test_high_and_low_level_on_one_library_is_pl006(self):
        src = (
            "from repro.core.highlevel import HighLevel\n"
            + PRELUDE.format(platform="simPOWER")
            + "hl = HighLevel(papi)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.stop()\n"
            'hl.start_counters(["PAPI_TOT_INS"])\n'
            "hl.stop_counters()\n"
        )
        assert "PL006" in codes(src)

    def test_highlevel_read_before_start_is_pl001(self):
        src = (
            "from repro.core.highlevel import HighLevel\n"
            + PRELUDE.format(platform="simPOWER")
            + "hl = HighLevel(papi)\n"
            "hl.read_counters()\n"
        )
        assert "PL001" in codes(src)

    def test_highlevel_alone_is_clean(self):
        src = (
            "from repro.core.highlevel import HighLevel\n"
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            'papi = Papi(create("simPOWER"))\n'
            "hl = HighLevel(papi)\n"
            'hl.start_counters(["PAPI_TOT_CYC", "PAPI_TOT_INS"])\n'
            "hl.read_counters()\n"
            "hl.stop_counters()\n"
        )
        assert codes(src) == []


class TestGuards:
    def test_try_except_conflict_suppresses_pl101(self):
        src = PRELUDE.format(platform="simX86") + (
            "from repro.core.errors import ConflictError\n"
            "try:\n"
            '    es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
            "except ConflictError:\n"
            "    pass\n"
        )
        assert "PL101" not in codes(src)

    def test_bare_except_suppresses_guardable_rules(self):
        src = PRELUDE.format(platform="simT3E") + (
            "try:\n"
            "    es.read()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert "PL001" not in codes(src)

    def test_unrelated_handler_does_not_suppress(self):
        src = PRELUDE.format(platform="simT3E") + (
            "try:\n"
            "    es.read()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        assert "PL001" in codes(src)


class TestSwallowedErrors:
    def test_papi_error_pass_is_pl017(self):
        src = PRELUDE.format(platform="simT3E") + (
            "from repro.core.errors import PapiError\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "try:\n"
            "    es.start()\n"
            "    es.stop()\n"
            "except PapiError:\n"
            "    pass\n"
        )
        assert "PL017" in codes(src)

    def test_bare_except_pass_is_pl017(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "try:\n"
            "    es.start()\n"
            "    es.stop()\n"
            "except:\n"
            "    pass\n"
        )
        assert "PL017" in codes(src)

    def test_docstring_only_body_still_counts_as_pass(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "try:\n"
            "    es.start()\n"
            "    es.stop()\n"
            "except Exception:\n"
            '    "sometimes flaky"\n'
        )
        assert "PL017" in codes(src)

    def test_specific_subclass_guard_is_sanctioned(self):
        """`except ConflictError: pass` is the documented probe idiom --
        the caller named the exact failure they expect."""
        src = PRELUDE.format(platform="simX86") + (
            "from repro.core.errors import ConflictError\n"
            "try:\n"
            '    es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
            "except ConflictError:\n"
            "    pass\n"
        )
        assert "PL017" not in codes(src)

    def test_handler_that_inspects_the_error_is_clean(self):
        src = PRELUDE.format(platform="simT3E") + (
            "from repro.core.errors import PapiError\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "try:\n"
            "    es.start()\n"
            "    es.stop()\n"
            "except PapiError as exc:\n"
            "    print(exc.code)\n"
        )
        assert "PL017" not in codes(src)

    def test_try_without_papi_calls_is_clean(self):
        src = PRELUDE.format(platform="simT3E") + (
            "try:\n"
            "    x = 1 / 0\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert "PL017" not in codes(src)

    def test_pl017_is_a_warning(self):
        src = PRELUDE.format(platform="simT3E") + (
            'es.add_named("PAPI_TOT_CYC")\n'
            "try:\n"
            "    es.start()\n"
            "    es.stop()\n"
            "except PapiError:\n"
            "    pass\n"
        )
        diags = [d for d in lint(src) if d.code == "PL017"]
        assert diags and all(d.severity is Severity.WARNING for d in diags)


class TestSuppressions:
    def test_disable_comment_suppresses_on_its_line(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.read()  # papi-lint: disable=PL001\n"
        )
        assert codes(src) == []

    def test_disable_all(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.read()  # papi-lint: disable=all\n"
        )
        assert codes(src) == []

    def test_disable_other_code_keeps_finding(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.read()  # papi-lint: disable=PL999\n"
        )
        assert codes(src) == ["PL001"]


class TestFeasibilityIntegration:
    def test_infeasible_add_is_pl101(self):
        # FLOPS and DCU_LINES_IN both pin to counter 0 on simX86.
        src = PRELUDE.format(platform="simX86") + (
            'es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
        )
        result = lint(src)
        assert [d.code for d in result] == ["PL101"]
        assert result[0].severity == Severity.ERROR
        assert "simX86" in result[0].message

    def test_default_platform_flag_enables_feasibility(self):
        src = (
            "from repro.core.library import Papi\n"
            "def run(papi):\n"
            "    es = papi.create_eventset()\n"
            '    es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
        )
        assert codes(src) == []  # platform unknown: nothing to check
        assert "PL101" in codes(src, platform="simX86")

    def test_unnecessary_multiplex_is_pl102(self):
        src = PRELUDE.format(platform="simT3E") + (
            "es.set_multiplex()\n"
            'es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS")\n'
            "es.start()\n"
            "es.stop()\n"
        )
        assert "PL102" in codes(src)

    def test_portability_info_is_pl103(self):
        # feasible on simX86 but needs multiplexing on simSPARC.
        src = PRELUDE.format(platform="simX86") + (
            'es.add_named("PAPI_L1_DCM", "PAPI_L1_ICM")\n'
            "es.start()\n"
            "es.stop()\n"
        )
        result = lint(src)
        by_code = {d.code: d for d in result}
        assert "PL103" in by_code
        assert by_code["PL103"].severity == Severity.INFO

    def test_highlevel_infeasible_set_is_pl101(self):
        src = (
            "from repro.core.highlevel import HighLevel\n"
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            'papi = Papi(create("simX86"))\n'
            "hl = HighLevel(papi)\n"
            'hl.start_counters(["PAPI_FP_OPS", "PAPI_L1_DCM"])\n'
            "hl.stop_counters()\n"
        )
        assert "PL101" in codes(src)


class TestPresetTableEdits:
    def test_dangling_native_in_script_is_pl201(self):
        src = (
            "from repro.core.presets import PLATFORM_PRESET_TABLES\n"
            'PLATFORM_PRESET_TABLES["simX86"]["PAPI_L1_DCM"] = '
            '[("NO_SUCH", 1)]\n'
        )
        result = lint(src)
        assert [d.code for d in result] == ["PL201"]
        assert result[0].line == 2

    def test_zero_coefficient_in_script_is_pl202(self):
        src = (
            'PLATFORM_PRESET_TABLES["simX86"]["PAPI_TOT_CYC"] = '
            '[("CPU_CLK_UNHALTED", 0)]\n'
        )
        assert "PL202" in codes(src)


class TestEngine:
    def test_syntax_error_is_pl900(self):
        result = lint("def broken(:\n")
        assert [d.code for d in result] == ["PL900"]
        assert result[0].line == 1

    def test_undecodable_file_is_pl900(self, tmp_path):
        path = tmp_path / "latin1.py"
        path.write_bytes(b"x = 1  # \xff\n")
        for flow in (False, True):
            result = lint_file(str(path), flow=flow)
            assert [d.code for d in result] == ["PL900"]
            assert "cannot decode" in result[0].message

    def test_functions_are_linted_as_scopes(self):
        src = (
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            "def measure():\n"
            '    papi = Papi(create("simT3E"))\n'
            "    es = papi.create_eventset()\n"
            "    es.read()\n"
        )
        assert codes(src) == ["PL001"]

    def test_aliasing_tracks_the_same_eventset(self):
        src = PRELUDE.format(platform="simT3E") + (
            "alias = es\n"
            'alias.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "alias.start()\n"
            "es.stop()\n"
        )
        assert "PL002" in codes(src)


class TestThreadRules:
    def test_attach_while_running_is_pl014(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t = substrate.os.spawn(prog)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.attach(t)\n"
            "es.stop()\n"
        )
        assert "PL014" in codes(src)
        assert "PL007" not in codes(src)

    def test_detach_while_running_is_pl014(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t = substrate.os.spawn(prog)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.attach(t)\n"
            "es.start()\n"
            "es.detach()\n"
            "es.stop()\n"
        )
        assert "PL014" in codes(src)

    def test_attach_before_start_is_clean(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t = substrate.os.spawn(prog)\n"
            "es.attach(t)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.stop()\n"
            "es.detach()\n"
        )
        assert codes(src) == []

    def test_pl014_suppressed_by_is_running_guard(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "from repro.core.errors import IsRunningError\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "try:\n"
            "    es.attach(t)\n"
            "except IsRunningError:\n"
            "    pass\n"
            "es.stop()\n"
        )
        assert "PL014" not in codes(src)

    def test_reattach_without_detach_is_pl015(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.attach(t1)\n"
            "es.attach(t2)\n"
        )
        assert "PL015" in codes(src)

    def test_reattach_after_detach_is_clean(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.attach(t1)\n"
            "es.detach()\n"
            "es.attach(t2)\n"
        )
        assert "PL015" not in codes(src)

    def test_reattach_same_thread_alias_is_clean(self):
        # aliasing: the identity is the spawned thread, not the name
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "same = t1\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.attach(t1)\n"
            "es.attach(same)\n"
        )
        assert "PL015" not in codes(src)

    def test_double_bind_counter_is_pl016(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            "substrate.os.bind_counter(t1, 0)\n"
            "substrate.os.bind_counter(t2, 0)\n"
        )
        assert "PL016" in codes(src)

    def test_bind_distinct_indices_is_clean(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            "substrate.os.bind_counter(t1, 0)\n"
            "substrate.os.bind_counter(t2, 1)\n"
        )
        assert "PL016" not in codes(src)

    def test_rebind_after_unbind_is_clean(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            "substrate.os.bind_counter(t1, 0)\n"
            "substrate.os.unbind_counter(t1, 0)\n"
            "substrate.os.bind_counter(t2, 0)\n"
        )
        assert "PL016" not in codes(src)

    def test_pl016_suppressed_by_oserror_guard(self):
        src = PRELUDE.format(platform="simPOWER") + (
            "from repro.simos import OSError_\n"
            "t1 = substrate.os.spawn(prog)\n"
            "t2 = substrate.os.spawn(prog)\n"
            "substrate.os.bind_counter(t1, 0)\n"
            "try:\n"
            "    substrate.os.bind_counter(t2, 0)\n"
            "except OSError_:\n"
            "    pass\n"
        )
        assert "PL016" not in codes(src)

    def test_new_rules_have_expected_severities(self):
        from repro.lint.rules import rule

        assert rule("PL014").severity is Severity.ERROR
        assert rule("PL015").severity is Severity.WARNING
        assert rule("PL016").severity is Severity.ERROR


PAPID_PRELUDE = """\
from repro.daemon import PapidClient, PapidServer, DaemonConfig, SessionSpec

server = PapidServer(DaemonConfig(transport="inline"))
"""


class TestPapidClientClose:
    """PL018: a PapidClient must be context-managed or close()d."""

    def test_unclosed_client_is_pl018(self):
        src = PAPID_PRELUDE + (
            "client = PapidClient(server)\n"
            'client.create(SessionSpec(sid="s-0"))\n'
        )
        assert "PL018" in codes(src)

    def test_pl018_reports_construction_line(self):
        src = PAPID_PRELUDE + "client = PapidClient(server)\n"
        diags = [d for d in lint(src) if d.code == "PL018"]
        assert len(diags) == 1
        assert diags[0].line == 4
        assert diags[0].severity is Severity.WARNING

    def test_context_manager_is_clean(self):
        src = PAPID_PRELUDE + (
            "with PapidClient(server) as client:\n"
            '    client.create(SessionSpec(sid="s-0"))\n'
        )
        assert "PL018" not in codes(src)

    def test_explicit_close_is_clean(self):
        src = PAPID_PRELUDE + (
            "client = PapidClient(server)\n"
            'client.create(SessionSpec(sid="s-0"))\n'
            "client.close()\n"
        )
        assert "PL018" not in codes(src)

    def test_close_in_finally_is_clean(self):
        src = PAPID_PRELUDE + (
            "client = PapidClient(server)\n"
            "try:\n"
            '    client.create(SessionSpec(sid="s-0"))\n'
            "finally:\n"
            "    client.close()\n"
        )
        assert "PL018" not in codes(src)

    def test_close_via_alias_is_clean(self):
        src = PAPID_PRELUDE + (
            "client = PapidClient(server)\n"
            "alias = client\n"
            "alias.close()\n"
        )
        assert "PL018" not in codes(src)

    def test_returned_client_escapes(self):
        src = PAPID_PRELUDE + (
            "def make_client():\n"
            "    return PapidClient(server)\n"
        )
        assert "PL018" not in codes(src)

    def test_attribute_stored_client_escapes(self):
        src = PAPID_PRELUDE + (
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.client = PapidClient(server)\n"
        )
        assert "PL018" not in codes(src)

    def test_client_passed_to_callable_escapes(self):
        src = PAPID_PRELUDE + (
            "client = PapidClient(server)\n"
            "hand_off(client)\n"
        )
        assert "PL018" not in codes(src)

    def test_attribute_form_constructor_is_tracked(self):
        src = (
            "import repro.daemon as daemon\n"
            "client = daemon.PapidClient(object())\n"
        )
        assert "PL018" in codes(src)

    def test_one_diagnostic_per_leaked_client(self):
        src = PAPID_PRELUDE + (
            "a = PapidClient(server)\n"
            "b = PapidClient(server)\n"
            "b.close()\n"
        )
        diags = [d for d in lint(src) if d.code == "PL018"]
        assert len(diags) == 1
