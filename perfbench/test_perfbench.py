"""Tests of the benchmark itself: seeded inputs and the refusal to run
without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402


def test_batch_fingerprint_follows_the_seed():
    for workload in ("fpppp-giant", "int-verify"):
        first = inputs.fingerprint_text(inputs.batch_source(workload, 3))
        again = inputs.fingerprint_text(inputs.batch_source(workload, 3))
        other = inputs.fingerprint_text(inputs.batch_source(workload, 4))
        assert first == again
        assert first != other


def test_serve_fingerprint_follows_the_seed():
    first = inputs.fingerprint_schedule(inputs.serve_schedule(3, 2.0))
    again = inputs.fingerprint_schedule(inputs.serve_schedule(3, 2.0))
    other = inputs.fingerprint_schedule(inputs.serve_schedule(4, 2.0))
    assert first == again
    assert first != other


def test_serve_schedule_is_open_loop_at_the_stated_rate():
    schedule = inputs.serve_schedule(5, 2.0)
    assert len(schedule) == int(inputs.SERVE_RATE * 2.0)
    offsets = [offset for offset, _ in schedule]
    assert offsets == sorted(offsets)
    kinds = ["asm" if "asm" in m else "workload" for _, m in schedule]
    assert kinds.count("asm") == len(schedule) // inputs.SERVE_ASM_EVERY
    assert any("deadline_s" in m for _, m in schedule)


def test_serve_schedule_is_the_loadtest_mix_with_asm_bodies():
    from repro.serve.loadtest import LoadtestConfig, generate_mix

    schedule = inputs.serve_schedule(5, 2.0)
    mix = generate_mix(LoadtestConfig(address="", seed=5,
                                      requests=len(schedule),
                                      machine="sparc"))
    for (_, message), original in zip(schedule, mix):
        if "asm" in message:
            message = {k: v for k, v in message.items() if k != "asm"}
            del original["workload"]
        assert message == original


def test_int_verify_labels_are_unique_across_profiles():
    from repro.asm import parse_asm

    program = parse_asm(inputs.batch_source("int-verify", 1), "int")
    assert len(program.instructions) == 1739 + 2417 + 4760 + 8831
    # one label per generated block: 730 + 873 + 1623 + 3480
    assert len(program.labels) == 6706


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "int-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
