"""Observability must never change results: jobs-N determinism tests.

The contract under test (docs/observability.md): turning on ``--trace``
or ``--metrics`` changes no schedule, journal line, or stdout byte.
That a ``--jobs N`` run produces the same *stable* metrics snapshot and
the same structural span tree as a serial run is asserted by the
equivalence harness (tests/test_equivalence.py).
"""

import json
import subprocess
import sys

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.obs import MetricsRegistry, NULL_TRACER, Tracer
from repro.runner import run_batch
from repro.workloads import KERNELS, kernel_source


@pytest.fixture
def blocks():
    source = "\n".join(kernel_source(k) for k in sorted(KERNELS))
    program = parse_asm(source, name="all-kernels")
    return apply_window(partition_blocks(program), 16)


def traced_run(blocks, machine, jobs):
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_batch(blocks, machine, verify=True, jobs=jobs,
                       tracer=tracer, metrics=metrics)
    return result, tracer, metrics


def records(result):
    return [json.dumps(o.to_record(), sort_keys=True)
            for o in result.outcomes]


class TestJobsDeterminism:
    def test_instrumented_outcomes_match_plain(self, machine, blocks):
        plain = run_batch(blocks, machine, verify=True)
        traced, _, _ = traced_run(blocks, machine, jobs=4)
        assert records(plain) == records(traced)

    def test_wall_seconds_confined_to_volatile(self, machine, blocks):
        _, _, metrics = traced_run(blocks, machine, jobs=1)
        snap = metrics.snapshot()
        assert "repro_block_wall_seconds_total" in snap["volatile"]
        assert not any("wall" in name or "seconds" in name
                       for name in snap["stable"])


class TestNullTracerPath:
    def test_default_run_records_nothing(self, machine, blocks):
        before = len(NULL_TRACER.entries)
        run_batch(blocks[:2], machine, verify=True)
        assert len(NULL_TRACER.entries) == before == 0


class TestCLIByteIdentity:
    def run_cli(self, tmp_path, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "schedule",
             "examples/daxpy.s", "--verify", *extra],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src"}, cwd=".")

    def test_schedule_stdout_byte_identical_with_obs(self, tmp_path):
        plain = self.run_cli(tmp_path)
        traced = self.run_cli(
            tmp_path,
            "--trace", str(tmp_path / "trace.json"),
            "--metrics", str(tmp_path / "metrics.json"))
        assert traced.stdout == plain.stdout
        assert traced.stderr == plain.stderr

        # ...and the side-channel files are real and well-formed.
        chrome = json.loads((tmp_path / "trace.json").read_text())
        assert len(chrome["traceEvents"]) > 0
        snap = json.loads((tmp_path / "metrics.json").read_text())
        assert "repro_blocks_total" in snap["stable"]
