"""Edge cases for the report types: empty programs and all-degraded runs.

Every ratio-bearing report (``TransformReport``, ``BatchResult``)
must answer 0.0 degraded fraction on empty input and
exactly 1.0 speedup when nothing was actually scheduled -- no
division-by-zero, no NaN, no charging degraded blocks to one side only.
"""

import pytest

from repro.asm import parse_asm
from repro.cfg import partition_blocks
from repro.errors import ReproError
from repro.machine import generic_risc
from repro.runner import BatchResult, run_batch
from repro.transform import TransformReport, schedule_program
from repro.workloads import kernel_source


class _AlwaysBroken:
    name = "broken"

    def __init__(self, *args, **kwargs):
        pass

    def build(self, block, stats=None):
        raise ReproError("deliberately broken")


class TestTransformReport:
    def test_empty_report_properties(self):
        report = TransformReport()
        assert report.degraded_fraction == 0.0
        assert report.speedup == 1.0

    def test_all_degraded_program_speedup_exactly_one(self):
        program = parse_asm(kernel_source("daxpy"), "daxpy")
        scheduled, report = schedule_program(
            program, generic_risc(), builder_factory=_AlwaysBroken)
        assert report.n_blocks > 0
        assert report.degraded_fraction == 1.0
        assert report.speedup == 1.0
        # Degraded blocks are emitted in their original order.
        assert [i.render() for i in scheduled.instructions] \
            == [i.render() for i in program.instructions]

    def test_empty_program(self):
        scheduled, report = schedule_program(parse_asm(""),
                                             generic_risc())
        assert report.n_blocks == 0
        assert report.degraded_fraction == 0.0
        assert report.speedup == 1.0


class TestBatchResult:
    def test_empty_result_properties(self):
        result = BatchResult(chain=("n2",))
        assert result.degraded_fraction == 0.0
        assert result.speedup == 1.0
        assert result.wasted_work == 0

    def test_empty_blocks_run(self):
        result = run_batch([], generic_risc(),
                           chain_factories=[("broken", _AlwaysBroken)])
        assert result.n_blocks == 0
        assert result.speedup == 1.0

    def test_all_degraded_run(self):
        blocks = partition_blocks(
            parse_asm(kernel_source("daxpy"), "daxpy"))
        result = run_batch(blocks, generic_risc(),
                           chain_factories=[("broken", _AlwaysBroken)])
        assert result.n_blocks > 0
        assert result.degraded_fraction == 1.0
        assert result.speedup == 1.0
