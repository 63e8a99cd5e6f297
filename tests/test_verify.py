"""Tests for the independent schedule verifier and fault injection.

The verifier re-derives dependences with the compare-against-all
reference and must (a) pass every honestly produced schedule, (b)
catch every fabricated fault class, (c) flag the Figure 1 transitive-
timing trap, and (d) let the pipeline degrade gracefully when a
builder is broken.
"""

import pytest

from repro.asm import parse_asm
from repro.cfg import partition_blocks
from repro.dag.builders import (
    ALL_BUILDERS,
    CompareAllBuilder,
    LandskovBuilder,
    TableForwardBuilder,
)
from repro.errors import (
    BuilderMismatchError,
    DagError,
    VerificationError,
)
from repro.heuristics.passes import backward_pass
from repro.machine import generic_risc, sparcstation2_like
from repro.pipeline import SECTION6_PRIORITY, schedule_attempt
from repro.runner.batch import run_batch
from repro.scheduling.list_scheduler import schedule_forward
from repro.transform import schedule_program
from repro.verify import (
    FaultKind,
    check_builders_agree,
    inject_all,
    inject_fault,
    neutral_state,
    verify_schedule,
)
from repro.workloads import generate_blocks, kernel_source, scaled_profile


def first_block(source):
    return [b for b in partition_blocks(parse_asm(source)) if b.size][0]


def scheduled(block, machine, builder_cls):
    outcome = builder_cls(machine).build(block)
    backward_pass(outcome.dag, require_est=False)
    return schedule_forward(outcome.dag, machine, SECTION6_PRIORITY)


def run_one(blocks, machine, factory, **kwargs):
    """The section 6 pipeline over ``blocks`` with a single builder."""
    return run_batch(blocks, machine,
                     chain_factories=[(factory().name, factory)], **kwargs)


class BrokenBuilder(TableForwardBuilder):
    """A builder that always fails construction."""

    name = "broken"

    def _construct(self, dag, space, oracle, stats):
        raise DagError("deliberately broken")


class ArclessBuilder(TableForwardBuilder):
    """A builder that silently drops every dependence arc."""

    name = "arcless"

    def _construct(self, dag, space, oracle, stats):
        pass


class TestVerifySchedule:
    @pytest.mark.parametrize("builder_cls", ALL_BUILDERS,
                             ids=lambda c: c.name)
    def test_honest_schedule_passes(self, daxpy_block, machine,
                                    builder_cls):
        result = scheduled(daxpy_block, machine, builder_cls)
        report = verify_schedule(
            daxpy_block, result.order, machine,
            claimed_issue_times=result.timing.issue_times,
            approach=builder_cls.name)
        assert report.passed, report.failures
        assert {c.name for c in report.checks} == {
            "completeness", "dependence-order", "timing", "semantics"}

    def test_original_order_passes(self, mixed_block, machine):
        report = verify_schedule(mixed_block,
                                 list(mixed_block.instructions), machine)
        assert report.passed

    def test_landskov_figure1_trap_flagged(self, figure1_block, machine):
        result = scheduled(figure1_block, machine, LandskovBuilder)
        report = verify_schedule(
            figure1_block, result.order, machine,
            claimed_issue_times=result.timing.issue_times)
        assert not report.passed
        assert [c.name for c in report.failures] == ["timing"]
        with pytest.raises(VerificationError) as info:
            report.raise_if_failed()
        assert info.value.check == "timing"
        assert info.value.block == figure1_block.label \
            or info.value.block == str(figure1_block.index)

    def test_reference_times_derived_when_not_claimed(self, daxpy_block,
                                                      machine):
        # Landskov's *order* is legal; only its claimed times lie.
        result = scheduled(daxpy_block, machine, LandskovBuilder)
        report = verify_schedule(daxpy_block, result.order, machine)
        assert report.passed

    def test_semantics_skips_unsupported(self, machine):
        block = first_block("ba away\nnop\n")
        report = verify_schedule(block, list(block.instructions), machine)
        semantics = [c for c in report.checks if c.name == "semantics"][0]
        assert semantics.passed
        assert semantics.detail.startswith("skipped")


class TestNeutralState:
    def test_deterministic(self, daxpy_block):
        a = neutral_state(daxpy_block)
        b = neutral_state(daxpy_block)
        assert a.snapshot() == b.snapshot()

    def test_address_registers_get_disjoint_regions(self, daxpy_block):
        state = neutral_state(daxpy_block)
        bases = {state.read_int(name)
                 for name in state.int_regs
                 if state.read_int(name) >= 0x1_0000}
        assert len(bases) >= 1  # every base register is distinct
        assert len(bases) == len({b >> 16 for b in bases})


class TestFaultInjection:
    @pytest.mark.parametrize("kind", list(FaultKind),
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("kernel", ["figure1", "daxpy"])
    def test_every_fault_kind_detected(self, kernel, kind, machine):
        block = first_block(kernel_source(kernel))
        fault = inject_fault(block, machine, kind)
        assert fault is not None, f"{kernel} cannot host {kind.value}"
        report = verify_schedule(
            block, fault.order, machine,
            claimed_issue_times=fault.claimed_issue_times)
        assert not report.passed, fault.description
        assert report.failures

    def test_expected_checks_fire(self, machine):
        block = first_block(kernel_source("daxpy"))
        expected = {
            FaultKind.DROP_ARC: "dependence-order",
            FaultKind.SHRINK_DELAY: "timing",
            FaultKind.SWAP_DEPENDENT_PAIR: "dependence-order",
            FaultKind.DUPLICATE_INSTRUCTION: "completeness",
            FaultKind.LOSE_INSTRUCTION: "completeness",
        }
        for fault in inject_all(block, machine):
            report = verify_schedule(
                block, fault.order, machine,
                claimed_issue_times=fault.claimed_issue_times)
            fired = {c.name for c in report.failures}
            assert expected[fault.kind] in fired, fault.description

    def test_inject_all_covers_every_kind(self, machine):
        block = first_block(kernel_source("daxpy"))
        kinds = {f.kind for f in inject_all(block, machine)}
        assert kinds == set(FaultKind)

    def test_descriptions_name_the_damage(self, machine):
        block = first_block(kernel_source("figure1"))
        for fault in inject_all(block, machine):
            assert fault.description


class TestBuildersAgree:
    @pytest.mark.parametrize("kernel", ["figure1", "daxpy",
                                        "superscalar_mix"])
    def test_all_builders_agree_on_kernels(self, kernel, machine):
        check_builders_agree(first_block(kernel_source(kernel)), machine)

    def test_arc_dropping_builder_is_caught(self, daxpy_block, machine):
        with pytest.raises(BuilderMismatchError) as info:
            check_builders_agree(
                daxpy_block, machine,
                builders=[CompareAllBuilder, ArclessBuilder])
        assert info.value.builder == "arcless"
        assert info.value.node is not None


class TestCrossBuilderDifferential:
    """All five builders must schedule to identical verified makespans
    on integer workloads (no long-latency transitive arcs to lose)."""

    @pytest.mark.parametrize("profile_name", ["grep", "regex", "dfa"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_verified_makespans(self, profile_name, seed):
        machine = generic_risc()
        blocks = generate_blocks(scaled_profile(profile_name, 0.06),
                                 seed=seed)
        outcomes = {}
        for cls in ALL_BUILDERS:
            result = run_one(blocks, machine, lambda c=cls: c(machine),
                             verify=True)
            assert not result.failures, \
                (cls.name, result.failures[:1])
            outcomes[cls.name] = result.total_makespan
        assert len(set(outcomes.values())) == 1, outcomes

    def test_fp_workload_exposes_pruning_loss(self):
        # linpack's long FP latencies make some transitive arcs
        # timing-essential: the exact builders still agree, and the
        # verifier flags Landskov's pruned schedules.
        machine = generic_risc()
        blocks = generate_blocks(scaled_profile("linpack", 0.08), seed=3)
        exact = {}
        for cls in (CompareAllBuilder, TableForwardBuilder):
            result = run_one(blocks, machine, lambda c=cls: c(machine),
                             verify=True)
            assert not result.failures
            exact[cls.name] = result.total_makespan
        assert len(set(exact.values())) == 1
        pruned = run_one(blocks, machine,
                         lambda: LandskovBuilder(machine), verify=True)
        assert pruned.failures
        assert all(f.attempts[0].stage == "verify"
                   for f in pruned.failures)
        assert pruned.total_makespan > next(iter(exact.values()))


class TestGracefulDegradation:
    def test_broken_builder_degrades(self, machine):
        blocks = [b for b in partition_blocks(
            parse_asm(kernel_source("daxpy"))) if b.size]
        result = run_one(blocks, machine, lambda: BrokenBuilder(machine))
        assert result.n_blocks == len(blocks)
        assert len(result.failures) == len(blocks)
        assert all(f.attempts[0].stage == "build"
                   for f in result.failures)
        assert all("deliberately broken" in f.attempts[0].error
                   for f in result.failures)
        assert result.speedup == 1.0  # fallback charges original order

    def test_strict_reraises(self, machine):
        # The per-block stage function is the strict path: it raises
        # the builder's own error, tagged with the failing stage.
        block = first_block(kernel_source("daxpy"))
        with pytest.raises(DagError) as info:
            schedule_attempt(block, machine, lambda: BrokenBuilder(machine),
                             "broken")
        assert info.value.stage == "build"

    def test_arcless_builder_caught_by_verification(self, machine):
        blocks = [b for b in partition_blocks(
            parse_asm(kernel_source("daxpy"))) if b.size]
        # With no arcs, a largest-id-first priority reverses the block;
        # only the independent verifier can notice.
        priority = lambda node, state: node.id
        result = run_one(blocks, machine, lambda: ArclessBuilder(machine),
                         priority=priority, verify=True)
        assert result.failures
        assert all(f.attempts[0].stage == "verify"
                   for f in result.failures)

    def test_transform_emits_original_order_on_failure(self, machine):
        program = parse_asm(kernel_source("daxpy"))
        new_program, report = schedule_program(
            program, machine,
            builder_factory=lambda: BrokenBuilder(machine))
        assert report.failures
        assert report.speedup == 1.0
        assert [i.render() for i in new_program.instructions] \
            == [i.render() for i in program.instructions]

    def test_transform_strict_reraises(self, machine):
        program = parse_asm(kernel_source("daxpy"))
        with pytest.raises(DagError):
            schedule_program(program, machine,
                             builder_factory=lambda: BrokenBuilder(
                                 machine), strict=True)

    def test_clean_run_has_no_failures(self, machine):
        blocks = [b for b in partition_blocks(
            parse_asm(kernel_source("daxpy"))) if b.size]
        result = run_one(blocks, machine,
                         lambda: TableForwardBuilder(machine), verify=True)
        assert result.failures == []

    def test_sparc_pipeline_verifies_clean(self):
        machine = sparcstation2_like()
        blocks = [b for b in partition_blocks(
            parse_asm(kernel_source("daxpy"))) if b.size]
        result = run_one(blocks, machine,
                         lambda: TableForwardBuilder(machine), verify=True)
        assert result.failures == []

    @pytest.mark.parametrize("builder_cls", ALL_BUILDERS,
                             ids=lambda c: c.name)
    def test_sparc_double_pair_delays_survive(self, builder_cls):
        # Regression: a double-register pair emits two arcs for the
        # same (parent, child); the bitmap builder must let them merge
        # to the maximum delay instead of suppressing the second as
        # "already reachable".
        machine = sparcstation2_like()
        block = first_block(kernel_source("daxpy"))
        result = scheduled(block, machine, builder_cls)
        report = verify_schedule(
            block, result.order, machine,
            claimed_issue_times=result.timing.issue_times,
            approach=builder_cls.name)
        assert report.passed, report.failures
