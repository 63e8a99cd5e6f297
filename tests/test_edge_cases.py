"""Edge-case and contract tests across modules."""

import pytest

from repro.asm import parse_asm
from repro.asm.parser import parse_instruction_text
from repro.cfg import partition_blocks
from repro.dag.builders import TableForwardBuilder
from repro.dag.builders.base import AliasOracle, BuildStats
from repro.errors import (
    AsmSyntaxError,
    CfgError,
    DagError,
    OperandError,
    ReproError,
    SchedulingError,
    UnknownOpcodeError,
    WorkloadError,
)
from repro.heuristics.passes import backward_pass
from repro.isa.memory import AliasPolicy, MemExpr
from repro.isa.resources import ResourceKind, mem_resource
from repro.machine import generic_risc, sparcstation2_like
from repro.runner.batch import run_batch
from repro.scheduling.list_scheduler import (
    schedule_backward,
    schedule_forward,
)
from repro.scheduling.priority import winnowing
from repro.workloads import scaled_profile
from repro.workloads.profiles import WorkloadProfile


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [AsmSyntaxError, CfgError, DagError,
                                     OperandError, SchedulingError,
                                     UnknownOpcodeError, WorkloadError])
    def test_all_inherit_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_operand_error_is_syntax_error(self):
        assert issubclass(OperandError, AsmSyntaxError)

    def test_line_number_formatting(self):
        err = AsmSyntaxError("bad thing", line_number=7, line_text="x")
        assert "line 7" in str(err)
        assert err.line_number == 7

    def test_no_line_number(self):
        err = AsmSyntaxError("bad thing")
        assert str(err) == "bad thing"


class TestInstructionHelpers:
    def test_with_index_preserves_everything_else(self):
        instr = parse_instruction_text("be,a target")
        moved = instr.with_index(9)
        assert moved.index == 9
        assert moved.annulled
        assert moved.opcode is instr.opcode

    def test_mem_operand_none_for_alu(self):
        assert parse_instruction_text("add %o1, %o2, %o3") \
            .mem_operand() is None

    def test_reg_operands_in_order(self):
        instr = parse_instruction_text("add %o5, %o1, %o0")
        assert [str(r) for r in instr.reg_operands()] \
            == ["%o5", "%o1", "%o0"]

    def test_branch_target_none_for_alu(self):
        assert parse_instruction_text("nop").branch_target() is None

    def test_str_includes_index(self):
        instr = parse_instruction_text("nop", index=4)
        assert str(instr).startswith("4:")


class TestBuildStats:
    def test_merge_sums_everything(self):
        a = BuildStats(comparisons=1, table_probes=2, alias_checks=3,
                       arcs_added=4, arcs_merged=5, arcs_suppressed=6,
                       bitmap_ops=7)
        b = BuildStats(comparisons=10, table_probes=20, alias_checks=30,
                       arcs_added=40, arcs_merged=50, arcs_suppressed=60,
                       bitmap_ops=70)
        a.merge(b)
        assert (a.comparisons, a.table_probes, a.alias_checks,
                a.arcs_added, a.arcs_merged, a.arcs_suppressed,
                a.bitmap_ops) == (11, 22, 33, 44, 55, 66, 77)


class TestAliasOracle:
    def test_memoizes_symmetric_pairs(self):
        stats = BuildStats()
        oracle = AliasOracle(AliasPolicy.BASE_OFFSET, stats)
        r1 = mem_resource(MemExpr(base="%o0", offset=0))
        r2 = mem_resource(MemExpr(base="%o1", offset=0))
        assert oracle.aliases(0, r1, 1, r2)
        assert oracle.aliases(1, r2, 0, r1)
        assert oracle.aliases(0, r1, 1, r2)
        assert stats.alias_checks == 1  # one real oracle call

    def test_same_id_short_circuits(self):
        stats = BuildStats()
        oracle = AliasOracle(AliasPolicy.EXPRESSION, stats)
        r = mem_resource(MemExpr(base="%o0"))
        assert oracle.aliases(3, r, 3, r)
        assert stats.alias_checks == 0


class TestSchedulerEdges:
    def test_units_ignored_when_disabled(self):
        machine = sparcstation2_like()
        blocks = partition_blocks(parse_asm(
            "fdivd %f0, %f2, %f4\nfdivd %f6, %f8, %f10"))
        dag = TableForwardBuilder(machine).build(blocks[0]).dag
        backward_pass(dag)
        with_units = schedule_forward(dag, machine,
                                      winnowing("max_delay_to_leaf"))
        without = schedule_forward(dag, machine,
                                   winnowing("max_delay_to_leaf"),
                                   consider_units=False)
        assert without.timing.issue_times[1] < \
            with_units.timing.issue_times[1] or \
            without.makespan <= with_units.makespan

    def test_backward_without_pinning(self):
        machine = generic_risc()
        blocks = partition_blocks(parse_asm("mov 1, %o0\nba out"))
        dag = TableForwardBuilder(machine).build(blocks[0]).dag
        result = schedule_backward(dag, machine,
                                   winnowing("execution_time"),
                                   pin_terminator=False)
        assert len(result.order) == 2

    def test_single_instruction_block(self):
        machine = generic_risc()
        blocks = partition_blocks(parse_asm("nop"))
        dag = TableForwardBuilder(machine).build(blocks[0]).dag
        result = schedule_forward(dag, machine,
                                  winnowing("execution_time"))
        assert [n.id for n in result.order] == [0]
        assert result.makespan == 1

    def test_all_independent_instructions(self):
        machine = generic_risc()
        source = "\n".join(f"mov {i}, %o{i}" for i in range(6))
        blocks = partition_blocks(parse_asm(source))
        dag = TableForwardBuilder(machine).build(blocks[0]).dag
        assert dag.n_arcs == 0
        result = schedule_forward(dag, machine,
                                  winnowing("execution_time"))
        assert result.makespan == 6  # scalar, one per cycle


class TestPipelineEdges:
    def test_empty_block_list(self):
        machine = generic_risc()
        result = run_batch([], machine, chain_factories=[
            ("table-forward", lambda: TableForwardBuilder(machine))])
        assert result.n_blocks == 0
        assert result.speedup == 1.0

    def test_blocks_with_empty_block_skipped(self):
        from repro.cfg.basic_block import BasicBlock
        machine = generic_risc()
        blocks = partition_blocks(parse_asm("nop")) + [BasicBlock(1, [])]
        result = run_batch(blocks, machine, chain_factories=[
            ("table-forward", lambda: TableForwardBuilder(machine))])
        assert result.n_blocks == 1


class TestWorkloadProfileEdges:
    def test_all_giant_profile(self):
        profile = WorkloadProfile(
            name="giants", n_blocks=2, total_insts=30, max_block=20,
            giant_blocks=(20, 10), typical_cap=20,
            mem_max_per_block=2, mem_avg_per_block=0.5, fp_fraction=0.5)
        from repro.workloads import generate_blocks
        blocks = generate_blocks(profile)
        assert sorted(b.size for b in blocks) == [10, 20]

    def test_scaled_without_giants(self):
        scaled = scaled_profile("tomcatv", 0.5, keep_giants=False)
        assert scaled.max_block < 326

    def test_scale_floor_consistency(self):
        # Extremely small factors still produce a consistent profile.
        scaled = scaled_profile("fpppp", 0.01)
        assert scaled.total_insts >= sum(scaled.giant_blocks)
        assert scaled.n_blocks > len(scaled.giant_blocks)
        from repro.workloads import generate_blocks
        blocks = generate_blocks(scaled)
        assert len(blocks) == scaled.n_blocks


class TestResourceEdges:
    def test_mem_resource_kind_and_payload(self):
        res = mem_resource(MemExpr(symbol="x"))
        assert res.kind is ResourceKind.MEM
        assert res.mem == MemExpr(symbol="x")
        assert res.name == "x"

    def test_memexpr_str(self):
        assert str(MemExpr(base="%o0", offset=4)) == "[%o0+4]"
