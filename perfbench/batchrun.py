"""The batch workloads: ``repro schedule --algorithm section6`` passes.

The parent side (:func:`run`) generates and fingerprints the input,
times cold starts, and starts this file as a worker process, so that
peak RSS is the worker's alone.  The worker (:func:`worker_main`) runs
full passes -- text in, listing out -- through the same public calls
``repro schedule`` makes: ``parse_asm``, ``partition_blocks`` /
``apply_window`` / ``pin_delay_slot_occupants``, then ``run_batch``
with the default chain, a shared ``PairwiseCache`` and ``jobs=1``.

With ``--trace 1`` the worker alternates those untraced passes with
traced passes (:func:`traced_pass`), a driver of its own that makes the
same per-block calls as the resilient runner and times each one.  A
traced pass must produce byte-identical block records and listing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from statistics import median

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks, pin_delay_slot_occupants
from repro.cli import MACHINES
from repro.dag.builders import CompareAllBuilder, PairwiseCache
from repro.errors import ReproError
from repro.heuristics import passes as heuristic_passes
from repro.heuristics.passes import backward_pass
from repro.pipeline import SECTION6_PRIORITY
from repro.runner.batch import run_batch
from repro.runner.fallback import (
    DEFAULT_CHAIN,
    Attempt,
    BlockOutcome,
    resolve_chain,
)
from repro.runner.watchdog import BudgetedStats
from repro.scheduling.list_scheduler import schedule_forward
from repro.scheduling.timing import simulate, verify_order
from repro.verify import checker

import inputs
from checks import CheckTally, check_order
from timing import host_probe, own_peak_rss_mb, percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: cold starts timed for ``setup_s`` before the worker, and again after
#: it, so they see the same host drift as the passes (one discarded
#: start first fills the byte-code cache)
SETUP_SAMPLES_EACH_SIDE = 4
#: minimum untraced passes per run, whatever ``--seconds`` says
MIN_PASSES = 3
#: minimum (untraced, traced) pass pairs in a traced run
MIN_TRACED_PAIRS = 2
#: the traced stages' self-times must cover at least this share of the
#: traced pass's own wall; less means a stage is missing from STAGES
MIN_SELF_TIME_COVER = 0.9
#: they may exceed the paired untraced pass wall by at most this share
#: (the host's speed alone swings by about half that within a minute)
SELF_TIME_SLACK = 0.35
WORKER_TIMEOUT_S = 160.0
SOURCE_NAME = "<perfbench>"

SETUP_CODE = ("import repro.cli; repro.cli.MACHINES['sparc'](); "
              "print('ready', flush=True)")

#: the traced stages whose self-times add up to a traced pass
STAGES = ("asm.parse_s", "cfg.partition_s", "dag.build_s",
          "heuristics.pass_s", "scheduling.schedule_s",
          "scheduling.simulate_s", "verify.total_s", "runner.emit_s")


# -- parent side -------------------------------------------------------------

def cold_start_s(root: str, env: dict) -> float:
    """Seconds from spawning an interpreter until it has imported
    ``repro`` and built the ``sparc`` machine model."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root,
                            env=env, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"cold start failed (exit {code}, {line!r})")
    return elapsed


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str, tmp: str, env: dict) -> dict:
    """One batch-workload run; returns the result pieces for run.py."""
    info = []
    probe_before = host_probe()
    text = inputs.batch_source(workload, seed)
    info.append(f"input sha256 {inputs.fingerprint_text(text)} "
                f"({len(text)} bytes)")
    source = os.path.join(tmp, "input.s")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(text)
    del text

    cold_start_s(root, env)
    samples = [cold_start_s(root, env)
               for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    out = os.path.join(tmp, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "batchrun.py"),
           "--input", source, "--verify",
           "1" if workload == "int-verify" else "0",
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"batch worker exited {code}")
    samples += [cold_start_s(root, env)
                for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    probe_after = host_probe()

    passes = len(doc["walls"])
    attempted = doc["n_blocks"] * passes
    bad_blocks = doc["degraded"] + doc["check"]["failed"]
    failed = bad_blocks * passes
    correct = (bad_blocks == 0 and doc["identical_passes"]
               and doc.get("traced_consistent", True))
    info.append(f"{passes} passes of {doc['n_blocks']} blocks / "
                f"{doc['n_insts']} instructions; pass walls "
                + ", ".join(f"{w:.3f}" for w in doc["walls"]) + " s")
    info.append(doc["check_summary"])
    info.append(f"passes byte-identical: {doc['identical_passes']}")
    if trace:
        info.append(f"traced passes consistent: {doc['traced_consistent']} "
                    f"({doc['traced_detail']})")
    info.append(f"host probe {probe_before:.4f} s before, "
                f"{probe_after:.4f} s after")

    # Other load on the host only ever adds time, so the best pass is
    # the least disturbed estimate of the program's own speed.
    e2e = {
        "insts_per_s": doc["n_insts"] / min(doc["walls"]),
        "latency_p50_ms": min(doc["block_p50_ms"]),
        "latency_p99_ms": min(doc["block_p99_ms"]),
        "ok_frac": (attempted - failed) / attempted,
        "makespan_ratio": doc["original_makespan"] / doc["makespan"],
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": median(samples),
    }
    layers = dict(doc.get("layers", {}))
    layers["host.probe_s"] = median([probe_before, probe_after])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "e2e": e2e, "layers": layers, "info": info}


# -- worker side -------------------------------------------------------------

def _emit(out, block, outcome) -> None:
    """One block's listing lines, exactly as ``repro schedule`` prints.

    A copy of the ``emit`` closure inside ``repro.cli``'s resilient
    schedule path, which is not importable on its own.
    """
    for failed in outcome.attempts[:-1]:
        out(f"! block {outcome.index} [{failed.builder}] "
            f"{failed.stage} failed: {failed.error}")
    note = " (degraded to original order)" if outcome.degraded else ""
    out(f"! block {outcome.index}: {outcome.original_makespan} -> "
        f"{outcome.makespan} cycles{note}")
    for position in outcome.order:
        instr = block.instructions[position]
        label = f"{instr.label}:\n" if instr.label else ""
        out(f"{label}\t{instr.render()}")


def _total_line(original: int, scheduled: int) -> str:
    return (f"! total: {original} -> {scheduled} cycles "
            f"({original / max(1, scheduled):.2f}x)")


def _blocks_of(text: str):
    program = parse_asm(text, SOURCE_NAME)
    return pin_delay_slot_occupants(
        apply_window(partition_blocks(program), None))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode(
        "utf-8")).hexdigest()


def untraced_pass(text: str, machine, verify: bool) -> dict:
    """One full pass on the resilient batch runner, timed whole.

    Returns a compact summary, so nothing of the pass stays alive while
    the next one is timed.
    """
    lines: list[str] = []
    t0 = time.perf_counter()
    blocks = _blocks_of(text)
    by_index = {block.index: block for block in blocks}
    result = run_batch(
        blocks, machine, verify=verify, jobs=1, cache=PairwiseCache(),
        on_block=lambda outcome: _emit(lines.append,
                                       by_index[outcome.index], outcome))
    lines.append(_total_line(result.total_original_makespan,
                             result.total_makespan))
    listing = "\n".join(lines)
    wall = time.perf_counter() - t0
    outcomes = result.outcomes
    block_ms = [o.wall_s * 1000.0 for o in outcomes]
    return {
        "wall": wall,
        "block_p50_ms": percentile(block_ms, 0.50),
        "block_p99_ms": percentile(block_ms, 0.99),
        "listing_digest": _digest(listing),
        "records_digest": _digest([o.to_record() for o in outcomes]),
        "orders": [(o.index, o.order) for o in outcomes],
        "n_blocks": result.n_blocks,
        "n_insts": result.n_instructions,
        "makespan": result.total_makespan,
        "original_makespan": result.total_original_makespan,
        "degraded": len(result.failures),
        "runner.attempts": sum(len(o.attempts) for o in outcomes),
        "runner.fallbacks": sum(len(o.attempts) - 1 for o in outcomes),
        "runner.wasted_work": result.wasted_work,
    }


class Spans:
    """Per-stage seconds and work counts of one traced pass."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.in_verify = False

    @contextmanager
    def time(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount


@contextmanager
def _counted_visits(spans: Spans):
    """Count the reverse walk's node visits as ``heuristics.nodes``.

    ``backward_pass`` calls ``_backward_visit`` once per node it
    visits, so a pass that skips or repeats visits changes the count.
    """
    visit = heuristic_passes._backward_visit

    def counted(*args, **kwargs):
        spans.counts["heuristics.nodes"] += 1
        return visit(*args, **kwargs)

    heuristic_passes._backward_visit = counted
    try:
        yield
    finally:
        heuristic_passes._backward_visit = visit


@contextmanager
def _timed_verifier(spans: Spans):
    """Time the verifier's parts by wrapping what it calls.

    ``verify_schedule`` rebuilds the reference DAG with
    ``CompareAllBuilder.build`` and runs the semantic check through
    ``neutral_state`` and ``repro.interp.execute``; the wrappers charge
    those calls to ``verify.reference_s`` and ``verify.semantics_s``
    while a verification is in progress.
    """
    own_build = vars(CompareAllBuilder).get("build")
    build = CompareAllBuilder.build
    neutral_state, execute = checker.neutral_state, checker.execute

    def timed_build(self, block, stats=None):
        if not spans.in_verify:
            return build(self, block, stats)
        with spans.time("verify.reference_s"):
            outcome = build(self, block, stats)
        spans.count("verify.comparisons", outcome.stats.comparisons)
        return outcome

    def timed(fn):
        def wrapper(*args, **kwargs):
            with spans.time("verify.semantics_s"):
                return fn(*args, **kwargs)
        return wrapper

    CompareAllBuilder.build = timed_build
    checker.neutral_state = timed(neutral_state)
    checker.execute = timed(execute)
    try:
        yield
    finally:
        if own_build is None:
            del CompareAllBuilder.build
        else:
            CompareAllBuilder.build = own_build
        checker.neutral_state, checker.execute = neutral_state, execute


def _traced_block(block, machine, chain, cache, verify: bool,
                  spans: Spans):
    """One block through the chain, each layer call timed.

    Makes the calls ``schedule_block_resilient`` makes, in its order,
    with no watchdog budget (the batch workloads set none).
    """
    label = block.label if block.label else str(block.index)
    attempts = []
    for name, factory in chain:
        stats = BudgetedStats(None, block=label)
        stage = "build"
        try:
            builder = factory()
            t0 = time.perf_counter()
            built = builder.build(block, stats=stats)
            took = time.perf_counter() - t0
            spans.seconds["dag.build_s"] += took
            spans.seconds["dag.build_max_block_s"] = max(
                took, spans.seconds["dag.build_max_block_s"])
            stage = "heuristics"
            with spans.time("heuristics.pass_s"):
                backward_pass(built.dag, require_est=False)
            stage = "schedule"
            with spans.time("scheduling.schedule_s"):
                sched = schedule_forward(built.dag, machine,
                                         SECTION6_PRIORITY)
                verify_order(sched.order, built.dag)
            with spans.time("scheduling.simulate_s"):
                original = simulate(list(built.dag.real_nodes()), machine)
            if verify:
                stage = "verify"
                spans.in_verify = True
                try:
                    with spans.time("verify.total_s"):
                        checker.verify_schedule(
                            block, sched.order, machine,
                            claimed_issue_times=sched.timing.issue_times,
                            approach=name, cache=cache).raise_if_failed()
                finally:
                    spans.in_verify = False
        except ReproError as exc:
            attempts.append(Attempt(name, stage, str(exc), work=stats.work))
            continue
        attempts.append(Attempt(name, "ok", work=stats.work))
        for field in ("comparisons", "table_probes", "alias_checks",
                      "arcs_added", "arcs_merged", "arcs_suppressed",
                      "bitmap_ops"):
            spans.count(f"dag.{field}", getattr(built.stats, field))
        rmap = getattr(builder, "reachability", None)
        spans.count("dag.bitmap_words",
                    rmap.words_touched if rmap is not None else 0)
        return BlockOutcome(
            index=block.index, label=block.label, builder=name,
            order=[node.id for node in sched.order],
            makespan=sched.timing.makespan,
            original_makespan=original.makespan, attempts=attempts)
    fallback = checker.degraded_timing(block, machine)
    attempts.append(Attempt("original-order", "ok"))
    return BlockOutcome(
        index=block.index, label=block.label, builder=None,
        order=list(range(len(block.instructions))),
        makespan=fallback, original_makespan=fallback, attempts=attempts)


def traced_pass(text: str, machine, verify: bool) -> dict:
    """One full pass through the benchmark's own timed driver."""
    spans = Spans()
    lines: list[str] = []
    records = []
    original = scheduled = 0
    t0 = time.perf_counter()
    with spans.time("asm.parse_s"):
        program = parse_asm(text, SOURCE_NAME)
    with spans.time("cfg.partition_s"):
        blocks = pin_delay_slot_occupants(
            apply_window(partition_blocks(program), None))
    cache = PairwiseCache()
    chain = resolve_chain(DEFAULT_CHAIN, machine, cache=cache)
    with (_counted_visits(spans),
          _timed_verifier(spans) if verify else nullcontext()):
        for block in blocks:
            if not block.instructions:
                continue
            outcome = _traced_block(block, machine, chain, cache, verify,
                                    spans)
            original += outcome.original_makespan
            scheduled += outcome.makespan
            records.append(outcome.to_record())
            with spans.time("runner.emit_s"):
                _emit(lines.append, block, outcome)
    with spans.time("runner.emit_s"):
        lines.append(_total_line(original, scheduled))
        listing = "\n".join(lines)
    wall = time.perf_counter() - t0
    info = cache.info()
    for key in ("hits", "misses", "bundle_hits"):
        spans.count(f"cache.{key}", info[key])
    return {"wall": wall, "seconds": dict(spans.seconds),
            "counts": dict(spans.counts),
            "records_digest": _digest(records),
            "listing_digest": _digest(listing)}


def _self_time(traced_pass_doc: dict) -> float:
    return sum(traced_pass_doc["seconds"].get(s, 0.0) for s in STAGES)


def _layers(passes: list[dict], traced: list[dict], n_lines: int) -> dict:
    """Per-layer metrics: stage times are medians over the traced
    passes, work counts come from the last one (they repeat exactly)."""
    layers: dict[str, float] = {}
    for name in sorted({n for t in traced for n in t["seconds"]}):
        layers[name] = median([t["seconds"].get(name, 0.0) for t in traced])
    for name in ("verify.total_s", "verify.reference_s",
                 "verify.semantics_s"):
        layers.setdefault(name, 0.0)
    layers["verify.checks_s"] = (layers["verify.total_s"]
                                 - layers["verify.reference_s"]
                                 - layers["verify.semantics_s"])
    layers["asm.lines_per_s"] = n_lines / layers["asm.parse_s"]
    layers.update(traced[-1]["counts"])
    hits, misses = layers["cache.hits"], layers["cache.misses"]
    layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    untraced = median([p["wall"] for p in passes])
    layers["runner.overhead_s"] = untraced - median(map(_self_time, traced))
    layers["trace.overhead_frac"] = (
        median([t["wall"] for t in traced]) / untraced - 1.0)
    for name in ("runner.attempts", "runner.fallbacks",
                 "runner.wasted_work"):
        layers[name] = passes[-1][name]
    layers["runner.degraded"] = passes[-1]["degraded"]
    return layers


def worker_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    machine = MACHINES["sparc"]()
    verify = bool(args.verify)
    with open(args.input, encoding="utf-8") as handle:
        text = handle.read()

    passes, traced = [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(untraced_pass(text, machine, verify))
        if args.trace:
            gc.collect()
            traced.append(traced_pass(text, machine, verify))
        enough = (len(traced) >= MIN_TRACED_PAIRS if args.trace
                  else len(passes) >= MIN_PASSES)
        if enough and time.perf_counter() - started >= args.seconds:
            break
    peak_rss = own_peak_rss_mb()

    # The output check, outside the timed passes, on a fresh parse.
    last = passes[-1]
    blocks = {block.index: block for block in _blocks_of(text)}
    tally = CheckTally()
    for index, order in last["orders"]:
        tally.add(check_order(blocks[index], order))
    listings = {p["listing_digest"] for p in passes}
    records = {p["records_digest"] for p in passes}
    doc = {
        "walls": [p["wall"] for p in passes],
        "block_p50_ms": [p["block_p50_ms"] for p in passes],
        "block_p99_ms": [p["block_p99_ms"] for p in passes],
        "peak_rss_mb": peak_rss,
        "identical_passes": len(listings) == 1 and len(records) == 1,
        "check": {"failed": tally.failed},
        "check_summary": tally.summary(),
    }
    for key in ("n_blocks", "n_insts", "makespan", "original_makespan",
                "degraded"):
        doc[key] = last[key]
    if args.trace:
        same = all(t["records_digest"] in records
                   and t["listing_digest"] in listings for t in traced)
        # The traced pass's own wall has no host drift in it, so the
        # stages must cover nearly all of it.  Each traced pass runs
        # right after an untraced one; comparing within those pairs
        # keeps drift out of the upper bound.
        cover = min(_self_time(t) / t["wall"] for t in traced)
        ratio = median([_self_time(t) / p["wall"]
                        for p, t in zip(passes, traced)])
        doc["traced_consistent"] = (same and cover >= MIN_SELF_TIME_COVER
                                    and ratio <= 1.0 + SELF_TIME_SLACK)
        doc["traced_detail"] = (
            f"records/listing identical: {same}; stage self-times cover "
            f"at least {cover:.3f} of each traced pass wall and are "
            f"{ratio:.3f} of the paired untraced pass wall")
        doc["layers"] = _layers(passes, traced, text.count("\n"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
