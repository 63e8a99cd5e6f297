"""The equivalence harness: one corpus through every execution path.

The section 6 attempt runs on several paths -- serial ``run_batch``
with or without the pairwise cache, the supervised pool with or
without a cache or a journal, a journal resumed after a crash
(serially or on the pool), and the daemon's engine at ``jobs`` 1 and
2, with and without WAL-recorded blocks.  They must agree on
everything deterministic:

* the block records (``wall_s`` and the trace id stripped from block
  frames);
* the journal lines (``wall_s`` stripped, but present as a float);
* the ``BatchResult`` aggregates: every work counter, the Table 4/5
  DAG columns, the block count and both makespan totals;
* the structural span tree, which must not depend on the worker
  count (the pool legs must show more than one worker);
* the stable metrics section, which must not depend on the cache, the
  worker count or the loop that ran the block.

The corpus is every kernel windowed at 16 instructions, plus six
copies of the straight-line daxpy body windowed at its length: the
copies are textually identical blocks, so the cached legs replay
recorded builds.
"""

import contextlib
import dataclasses
import json

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.dag.builders import PairwiseCache
from repro.dag.builders.base import BuildStats
from repro.dag.stats import ProgramDagStats
from repro.machine import generic_risc
from repro.obs import MetricsRegistry, Tracer, span_tree
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
    snapshot = registry.snapshot()
    return json.dumps({"schema_version": snapshot["schema_version"],
                       "stable": snapshot["stable"]},
                      sort_keys=True, indent=1)


def journal_lines(path):
    """Journal records with the volatile ``wall_s`` gone (every block
    record must carry it as a float)."""
    out = []
    for line in path.read_text().splitlines():
        record, damage, _ = parse_record_line(line)
        assert damage is None, damage
        if record.get("type") == "block":
            assert isinstance(record.pop("wall_s"), float)
        out.append(json.dumps(record, sort_keys=True))
    return out


def aggregates(result):
    return {"build": dataclasses.asdict(result.build_stats),
            "dags": result.dag_stats.as_row(),
            "n_blocks": result.n_blocks,
            "makespans": (result.total_makespan,
                          result.total_original_makespan)}


def expected_aggregates(reference, replayed=0):
    """The reference's aggregates when its first ``replayed`` blocks
    come from a journal: replays carry no work or DAG statistics."""
    build, dags = BuildStats(), ProgramDagStats()
    for outcome in reference["result"].outcomes[replayed:]:
        if outcome.build_stats is not None:
            build.merge(outcome.build_stats)
            dags.add(outcome.block_stats)
    return dict(aggregates(reference["result"]),
                build=dataclasses.asdict(build), dags=dags.as_row())


def expected_tree(reference, replayed=0):
    """The reference span tree without the first ``replayed`` blocks."""
    [batch] = reference["tree"]
    return [dict(batch, children=batch["children"][replayed:])]


def block_workers(tracer):
    return {e["worker"] for e in tracer.entries
            if e["type"] == "span" and e["name"] == "block"}


@pytest.fixture(scope="module")
def reference(machine, corpus, tmp_path_factory):
    """Serial ``run_batch`` without a cache, journaled and traced."""
    path = tmp_path_factory.mktemp("equivalence") / "reference.jsonl"
    registry = MetricsRegistry()
    tracer = Tracer()
    fingerprint = run_fingerprint("corpus", "generic", list(DEFAULT_CHAIN),
                                  verify=True)
    with RunJournal.open_fresh(str(path), fingerprint) as journal:
        result = run_batch(corpus, machine, verify=True, journal=journal,
                           metrics=registry, tracer=tracer)
    return {"result": result, "records": records(result.outcomes),
            "stable": stable(registry), "tree": span_tree(tracer.entries),
            "workers": {e["worker"] for e in tracer.entries},
            "blocks_total": registry.snapshot()["stable"][
                "repro_blocks_total"]["values"][""],
            "journal": path, "fingerprint": fingerprint}


def test_corpus_repeats_blocks(corpus):
    bodies = [tuple(i.render() for i in b.instructions) for b in corpus]
    assert len(set(bodies[-DAXPY_COPIES:])) == 1
    assert len(corpus) > DAXPY_COPIES


def test_reference_measures_every_block(corpus, reference):
    assert reference["blocks_total"] == len(corpus)
    assert reference["workers"] == {"main"}
    assert aggregates(reference["result"]) == expected_aggregates(reference)


@pytest.mark.parametrize("leg", ["cache", "jobs2-cache", "jobs2",
                                 "jobs2-journal"])
def test_batch_legs_match_reference(machine, corpus, reference, leg,
                                    tmp_path):
    registry = MetricsRegistry()
    tracer = Tracer()
    cache = PairwiseCache() if leg.endswith("cache") else None
    jobs = 2 if leg.startswith("jobs2") else 1
    path = tmp_path / "leg.jsonl"
    with (RunJournal.open_fresh(str(path), reference["fingerprint"])
          if leg == "jobs2-journal" else contextlib.nullcontext()) \
            as journal:
        result = run_batch(corpus, machine, verify=True, cache=cache,
                           jobs=jobs, journal=journal, metrics=registry,
                           tracer=tracer)
    assert records(result.outcomes) == reference["records"]
    assert stable(registry) == reference["stable"]
    assert aggregates(result) == expected_aggregates(reference)
    assert span_tree(tracer.entries) == reference["tree"]
    if jobs > 1:
        assert len(block_workers(tracer)) > 1
    if leg == "cache":
        assert cache.hits > 0  # the daxpy copies replayed
    if leg == "jobs2-journal":
        assert journal_lines(path) == journal_lines(reference["journal"])


def assert_resume_matches(machine, corpus, reference, tmp_path, jobs):
    lines = reference["journal"].read_text().splitlines(keepends=True)
    # Header plus the first third of the blocks, as a killed run
    # leaves it.
    replayed = len(corpus) // 3
    path = tmp_path / "resumed.jsonl"
    path.write_text("".join(lines[:1 + replayed]))
    tracer = Tracer()
    with RunJournal.open_resume(str(path),
                                reference["fingerprint"]) as journal:
        result = run_batch(corpus, machine, verify=True, journal=journal,
                           cache=PairwiseCache(), jobs=jobs, tracer=tracer)
    assert result.n_replayed == replayed
    assert records(result.outcomes) == reference["records"]
    assert journal_lines(path) == journal_lines(reference["journal"])
    assert aggregates(result) == expected_aggregates(reference, replayed)
    assert span_tree(tracer.entries) == expected_tree(reference, replayed)
    return tracer


def test_resumed_journal_matches_reference(machine, corpus, reference,
                                           tmp_path):
    assert_resume_matches(machine, corpus, reference, tmp_path, jobs=1)


def test_resumed_journal_on_pool_matches_reference(machine, corpus,
                                                   reference, tmp_path):
    tracer = assert_resume_matches(machine, corpus, reference, tmp_path,
                                   jobs=2)
    assert len(block_workers(tracer)) > 1


def served_records(frames):
    """Block frame records with ``wall_s`` and the trace id checked
    and stripped."""
    out = {}
    for frame in frames:
        if frame["type"] == "block":
            record = dict(frame["block"])
            assert isinstance(record.pop("wall_s"), float)
            assert record.pop("trace") == "t-eq"
            out[record["index"]] = json.dumps(record, sort_keys=True)
    return out


def eq_request(jobs):
    # The engine takes pre-expanded blocks; the request supplies only
    # the options (verify on, default chain, the generic machine's
    # warm cache).
    return ScheduleRequest.from_message(
        {"id": f"eq-{jobs}", "asm": "nop", "verify": True,
         "trace": "t-eq"})


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_legs_match_reference(machine, corpus, reference, jobs):
    registry = MetricsRegistry()
    tracer = Tracer()
    frames = []
    summary = run_request(eq_request(jobs), machine, corpus,
                          frames.append, metrics=registry, jobs=jobs,
                          tracer=tracer)
    assert summary["scheduled"] + summary["degraded"] == len(corpus)
    served = served_records(frames)
    assert list(served.values()) == reference["records"]
    assert stable(registry) == reference["stable"]
    [request_span] = span_tree(tracer.entries)
    assert request_span["name"] == "request"
    assert request_span["children"] == reference["tree"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_wal_legs_match_reference(machine, corpus, reference, jobs):
    # A recovered request: some blocks already recorded in the WAL --
    # the first, the last and an interior run -- plus one recorded
    # shed.  Recorded blocks are re-emitted verbatim, fresh ones run.
    last = len(corpus) - 1
    completed = {i: dict(json.loads(reference["records"][i]),
                         wall_s=0.5, trace="t-eq")
                 for i in (0, 2, 5, last)}
    completed[3] = {"type": "shed", "index": 3, "reason": "drain"}
    frames = []
    summary = run_request(eq_request(jobs), machine, corpus,
                          frames.append, jobs=jobs, completed=completed)
    assert [f["block"]["index"] if f["type"] == "block" else f["index"]
            for f in frames] == [b.index for b in corpus]
    assert frames[3] == {"type": "shed", "id": f"eq-{jobs}",
                         "index": 3, "reason": "drain", "trace": "t-eq"}
    for i in (0, 2, 5, last):
        assert frames[i]["block"] == completed[i]
    served = served_records(frames)
    fresh = [i for i in range(len(corpus)) if i not in completed]
    assert [served[i] for i in fresh] \
        == [reference["records"][i] for i in fresh]
    assert summary["replayed"] == len(completed)
    assert summary["shed_reasons"] == {"drain": 1}
    assert summary["scheduled"] + summary["degraded"] \
        == len(corpus) - 1
