"""The equivalence harness: one corpus through every execution path.

The section 6 attempt runs on several paths -- serial ``run_batch``
with or without the pairwise cache, the supervised pool, a journal
resumed after a crash, and the daemon's engine at ``jobs`` 1 and 2.
They must agree on everything deterministic:

* the block records (``wall_s`` and the trace id stripped from block
  frames);
* the journal lines of a resumed run (``wall_s`` stripped);
* the stable metrics section, which must not depend on the cache, the
  worker count or the loop that ran the block.

The corpus is every kernel windowed at 16 instructions, plus six
copies of the straight-line daxpy body windowed at its length: the
copies are textually identical blocks, so the cached legs replay
recorded builds.
"""

import dataclasses
import json

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.dag.builders import PairwiseCache
from repro.machine import generic_risc
from repro.obs.metrics import MetricsRegistry
from repro.runner import DEFAULT_CHAIN, RunJournal, run_batch, run_fingerprint
from repro.runner.journal import parse_record_line
from repro.serve.engine import run_request
from repro.serve.protocol import ScheduleRequest
from repro.workloads import KERNELS, kernel_source
from repro.workloads.kernels import straightline_body, straightline_source

DAXPY_COPIES = 6


@pytest.fixture(scope="module")
def machine():
    return generic_risc()


@pytest.fixture(scope="module")
def corpus():
    kernels = parse_asm("\n".join(kernel_source(k) for k in sorted(KERNELS)),
                        name="all-kernels")
    daxpy = parse_asm(straightline_source("daxpy", DAXPY_COPIES),
                      name="daxpy-copies")
    blocks = (apply_window(partition_blocks(kernels), 16)
              + apply_window(partition_blocks(daxpy),
                             len(straightline_body("daxpy"))))
    return [dataclasses.replace(block, index=i)
            for i, block in enumerate(blocks)]


def records(outcomes):
    return [json.dumps(o.to_record(), sort_keys=True) for o in outcomes]


def stable(registry):
    return json.dumps(registry.snapshot()["stable"], sort_keys=True,
                      indent=1)


def journal_lines(path):
    """Block records of a journal, with the volatile ``wall_s`` gone."""
    out = []
    for line in path.read_text().splitlines():
        record, damage, _ = parse_record_line(line)
        assert damage is None, damage
        record.pop("wall_s", None)
        out.append(json.dumps(record, sort_keys=True))
    return out


@pytest.fixture(scope="module")
def reference(machine, corpus, tmp_path_factory):
    """Serial ``run_batch`` without a cache, journaled."""
    path = tmp_path_factory.mktemp("equivalence") / "reference.jsonl"
    registry = MetricsRegistry()
    fingerprint = run_fingerprint("corpus", "generic", list(DEFAULT_CHAIN),
                                  verify=True)
    with RunJournal.open_fresh(str(path), fingerprint) as journal:
        result = run_batch(corpus, machine, verify=True, journal=journal,
                           metrics=registry)
    return {"records": records(result.outcomes), "stable": stable(registry),
            "journal": path, "fingerprint": fingerprint}


def test_corpus_repeats_blocks(corpus):
    bodies = [tuple(i.render() for i in b.instructions) for b in corpus]
    assert len(set(bodies[-DAXPY_COPIES:])) == 1
    assert len(corpus) > DAXPY_COPIES


@pytest.mark.parametrize("leg", ["cache", "jobs2-cache"])
def test_batch_legs_match_reference(machine, corpus, reference, leg):
    registry = MetricsRegistry()
    cache = PairwiseCache()
    result = run_batch(corpus, machine, verify=True, cache=cache,
                       jobs=2 if leg == "jobs2-cache" else 1,
                       metrics=registry)
    assert records(result.outcomes) == reference["records"]
    assert stable(registry) == reference["stable"]
    if leg == "cache":
        assert cache.hits > 0  # the daxpy copies replayed


def test_resumed_journal_matches_reference(machine, corpus, reference,
                                           tmp_path):
    lines = reference["journal"].read_text().splitlines(keepends=True)
    # Header plus the first third of the blocks, as a killed run
    # leaves it.
    path = tmp_path / "resumed.jsonl"
    path.write_text("".join(lines[:1 + len(corpus) // 3]))
    with RunJournal.open_resume(str(path),
                                reference["fingerprint"]) as journal:
        result = run_batch(corpus, machine, verify=True, journal=journal,
                           cache=PairwiseCache())
    assert result.n_replayed == len(corpus) // 3
    assert records(result.outcomes) == reference["records"]
    assert journal_lines(path) == journal_lines(reference["journal"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_legs_match_reference(machine, corpus, reference, jobs):
    # The engine takes pre-expanded blocks; the request supplies only
    # the options (verify on, default chain, the generic machine's
    # warm cache at jobs 1).
    request = ScheduleRequest.from_message(
        {"id": f"eq-{jobs}", "asm": "nop", "verify": True,
         "trace": "t-eq"})
    registry = MetricsRegistry()
    frames = []
    summary = run_request(request, machine, corpus, frames.append,
                          metrics=registry, jobs=jobs)
    assert summary["scheduled"] + summary["degraded"] == len(corpus)
    served = []
    for frame in frames:
        record = dict(frame["block"])
        assert isinstance(record.pop("wall_s"), float)
        assert record.pop("trace") == "t-eq"
        served.append(json.dumps(record, sort_keys=True))
    assert served == reference["records"]
    assert stable(registry) == reference["stable"]
