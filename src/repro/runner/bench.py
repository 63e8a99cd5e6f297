"""Reproducible performance benchmark for the hot scheduling path.

``python -m repro bench`` measures the three layers this package
optimizes and writes one JSON document (``--out``, default
:data:`DEFAULT_BENCH_PATH`) so regressions are diffable run over run:

* **builders** -- per-construction-algorithm wall time plus the
  machine-independent work counters of Tables 4/5 (comparisons, table
  probes, alias checks, bitmap operations, reachability words
  touched).  The counters are exactly reproducible; wall times are
  reported as the minimum over ``repeats`` runs.
* **heuristics** -- the intermediate-pass drivers (reverse walk vs.
  level algorithm, the paper's conclusion-4 comparison) and the
  incremental frontier repair of
  :mod:`repro.heuristics.incremental` against a full re-pass.
* **batch** -- the section 6 resilient pipeline end to end (verify
  on), three ways: baseline, with the shared
  :class:`~repro.dag.builders.cache.PairwiseCache`, and
  cached + block-parallel (``jobs``).  The three variants must produce
  byte-identical block records; the headline ``reduction_fraction``
  is the wall-clock saving of the best optimized variant.

The workload is deterministic: straight-line kernel bodies repeated
``copies`` times and windowed into fixed-size blocks, the
repeated-inner-loop population that dominates the paper's scientific
benchmarks (and makes dependence caching measurable).

:func:`compare_bench` is the trajectory gate over two such documents
(``repro bench --compare OLD.json [NEW.json]``): deterministic work
counters must match *exactly* -- they are machine-independent, so any
drift is a real behavior change -- while wall-clock fields only gate
on a configurable ratio (they are host- and load-dependent noise).
CI runs it over the committed ``BENCH_*.json`` trajectory so a future
change cannot silently regress the paper's cost story.
"""

from __future__ import annotations

import json
import time
from typing import Callable

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.dag.builders import PairwiseCache, TableForwardBuilder
from repro.dag.builders.base import BuildStats
from repro.errors import ReproError
from repro.heuristics.incremental import annotate, update_after_arc
from repro.heuristics.passes import backward_pass, backward_pass_levels
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runner.batch import run_batch
from repro.runner.fallback import BUILDER_CLASSES
from repro.workloads.kernels import straightline_source

#: schema version of the emitted JSON (2: added batch.metrics -- the
#: observability snapshot with cache hit/miss totals; 3: added the
#: fpppp-scale section and an optional fourth batch variant; 4: the
#: fpppp section always runs and times only the table-forward build,
#: and the batch section is back to three variants)
BENCH_VERSION = 4

#: the paper's largest block: fpppp tops Table 3 at ~11,750
#: instructions in a single basic block
FPPPP_TARGET = 11_750

#: default output document path (versioned so schema bumps do not
#: silently overwrite an older trajectory point)
DEFAULT_BENCH_PATH = f"BENCH_v{BENCH_VERSION}.json"

#: default wall-clock regression gate: new may take at most this
#: multiple of old (counters gate exactly; wall clocks are noisy)
DEFAULT_WALL_RATIO = 2.0

#: wall measurements shorter than this are not gated at all -- at
#: sub-10ms scale, scheduler jitter swamps any real regression
MIN_GATED_WALL_S = 0.01

#: kernels whose straight-line bodies make up the workload
BENCH_KERNELS = ("daxpy", "livermore1", "dot_product", "superscalar_mix")

_WORK_COUNTERS = ("comparisons", "table_probes", "alias_checks",
                  "arcs_added", "arcs_merged", "arcs_suppressed",
                  "bitmap_ops")


def bench_blocks(copies: int):
    """The benchmark's block population (deterministic).

    Each kernel's straight-line body is repeated ``copies`` times and
    windowed at exactly its own body length, so every kernel
    contributes ``copies`` textually identical blocks -- the unrolled
    inner-loop population where dependence caching pays.  Blocks are
    renumbered globally so journal/batch indices stay unique.
    """
    from repro.cfg.basic_block import BasicBlock
    from repro.workloads.kernels import straightline_body
    blocks: list[BasicBlock] = []
    for name in BENCH_KERNELS:
        body_len = len(straightline_body(name))
        program = parse_asm(straightline_source(name, copies),
                            name=name)
        for block in apply_window(partition_blocks(program), body_len):
            if block.instructions:
                blocks.append(BasicBlock(len(blocks),
                                         block.instructions,
                                         block.label))
    return blocks


def fpppp_block(target: int = FPPPP_TARGET):
    """One giant branch-free block of at least ``target`` instructions.

    Kernel bodies are cycled and concatenated into a single basic
    block -- the Table 3 fpppp shape (max block ~11,750 instructions)
    that separates the ``n**2`` builder's quadratic blow-up from the
    table-driven builders' near-linear growth.
    """
    from repro.workloads.kernels import straightline_body
    lines: list[str] = []
    i = 0
    while len(lines) < target:
        lines.extend(straightline_body(BENCH_KERNELS[i % len(BENCH_KERNELS)]))
        i += 1
    blocks = partition_blocks(parse_asm("\n".join(lines) + "\n",
                                        name="fpppp-scale"))
    if len(blocks) != 1:  # pragma: no cover - defensive
        raise ReproError(
            f"fpppp workload expected one block, got {len(blocks)}")
    return blocks[0]


def _bench_fpppp(machine: MachineModel, repeats: int,
                 quick: bool) -> dict:
    """Table-building cost at the paper's largest block size.

    Times the table-forward builder on one fpppp-scale block, schedules
    the result, and traces the ``n**2`` builder's quadratic blow-up at
    sub-scale sizes -- running it at full scale is exactly the cost
    the paper's table-driven construction exists to avoid, so the
    full-size cost is reported as a predicted comparison count instead.
    """
    from repro.pipeline import SECTION6_PRIORITY
    from repro.scheduling.list_scheduler import schedule_forward

    target = FPPPP_TARGET // 8 if quick else FPPPP_TARGET
    block = fpppp_block(target)
    n = len(block.instructions)

    object_s, outcome = _best_of(
        repeats, lambda: TableForwardBuilder(machine).build(block))
    backward_pass(outcome.dag, require_est=False)
    sched = schedule_forward(outcome.dag, machine, SECTION6_PRIORITY)

    # The n**2 blow-up curve, measured where it is still affordable.
    n2_cls = BUILDER_CLASSES["n2"]
    curve = []
    for size in (max(2, n // 32), max(2, n // 16), max(2, n // 8)):
        sub = fpppp_block(size)
        sub_s, sub_out = _best_of(
            1, lambda sub=sub: n2_cls(machine).build(sub))
        curve.append({"n": len(sub.instructions),
                      "time_s": round(sub_s, 6),
                      "comparisons": sub_out.stats.comparisons})
    return {
        "n_instructions": n,
        "target": target,
        "object_build_s": round(object_s, 6),
        "arcs": outcome.dag.n_arcs,
        "table_probes": outcome.stats.table_probes,
        "alias_checks": outcome.stats.alias_checks,
        "makespan": sched.timing.makespan,
        "n2_curve": curve,
        "predicted_full_n2_comparisons": n * (n - 1) // 2,
    }


def _best_of(repeats: int, fn: Callable[[], object]) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, with the last result."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _bench_builders(blocks, machine: MachineModel, repeats: int) -> dict:
    """Per-builder construction time and work counters (no cache)."""
    rows: dict[str, dict] = {}
    for name in sorted(BUILDER_CLASSES):
        cls = BUILDER_CLASSES[name]

        def build_all() -> tuple[BuildStats, int]:
            total = BuildStats()
            words = 0
            for block in blocks:
                builder = cls(machine)
                total.merge(builder.build(block).stats)
                words += builder.words_touched
            return total, words

        elapsed, (total, words) = _best_of(repeats, build_all)
        row = {"time_s": round(elapsed, 6)}
        row.update({c: getattr(total, c) for c in _WORK_COUNTERS})
        row["bitmap_words_touched"] = words
        rows[name] = row
    return rows


def _bench_heuristics(blocks, machine: MachineModel,
                      repeats: int) -> dict:
    """Intermediate-pass drivers and the incremental repair."""
    builder_cls = BUILDER_CLASSES["table-forward"]
    dags = [builder_cls(machine).build(b).dag for b in blocks]

    def walk() -> None:
        for dag in dags:
            backward_pass(dag, require_est=True)

    def levels() -> None:
        for dag in dags:
            backward_pass_levels(dag, require_est=True)

    reverse_s, _ = _best_of(repeats, walk)
    levels_s, _ = _best_of(repeats, levels)

    # Incremental repair: re-assert one existing arc per DAG (a merge,
    # so the structure is unchanged) and repair the frontier, against
    # re-running both full passes -- the per-arc cost that
    # apply_inherited_incremental pays versus what it replaced.
    targets = []
    for dag in dags:
        annotate(dag)
        for node in dag.real_nodes():
            if node.out_arcs:
                arc = node.out_arcs[0]
                if not arc.child.is_dummy:
                    targets.append((dag, node, arc.child))
                    break

    def incremental() -> None:
        for dag, parent, child in targets:
            update_after_arc(dag, parent, child)

    def full_repass() -> None:
        for dag, _, _ in targets:
            annotate(dag)

    incremental_s, _ = _best_of(repeats, incremental)
    full_s, _ = _best_of(repeats, full_repass)
    return {
        "reverse_walk_s": round(reverse_s, 6),
        "levels_s": round(levels_s, 6),
        "incremental": {
            "arcs_repaired": len(targets),
            "incremental_s": round(incremental_s, 6),
            "full_repass_s": round(full_s, 6),
        },
    }


def _records(result) -> list[str]:
    return [json.dumps(o.to_record(), sort_keys=True)
            for o in result.outcomes]


def _bench_batch(blocks, machine: MachineModel, repeats: int,
                 jobs: int, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> dict:
    """The section 6 pipeline three ways; schedules must be identical."""
    baseline_s, baseline = _best_of(
        repeats, lambda: run_batch(blocks, machine, verify=True))
    cached_s, cached = _best_of(
        repeats, lambda: run_batch(blocks, machine, verify=True,
                                   cache=PairwiseCache()))
    # One cache per run (cold start included) keeps the measurement
    # honest; cache_info reports the last run's hit/miss split.  The
    # probe run also carries the observability instruments (off the
    # timed runs, so tracing cannot skew the measurements).
    if metrics is None:
        metrics = MetricsRegistry()
    probe = PairwiseCache()
    run_for_info = run_batch(blocks, machine, verify=True, cache=probe,
                             tracer=tracer, metrics=metrics)
    parallel_s = None
    parallel = None
    if jobs > 1:
        parallel_s, parallel = _best_of(
            repeats, lambda: run_batch(blocks, machine, verify=True,
                                       jobs=jobs,
                                       cache=PairwiseCache()))
    base_records = _records(baseline)
    identical = base_records == _records(cached) \
        and base_records == _records(run_for_info) \
        and (parallel is None or base_records == _records(parallel))
    if not identical:
        raise ReproError(
            "bench invariant violated: cached/parallel runs produced "
            "different block records than the baseline")
    best_optimized = min(x for x in (cached_s, parallel_s)
                         if x is not None)
    counters = {c: getattr(baseline.build_stats, c)
                for c in _WORK_COUNTERS}
    return {
        "n_blocks": baseline.n_blocks,
        "n_instructions": baseline.n_instructions,
        "total_makespan": baseline.total_makespan,
        "total_original_makespan": baseline.total_original_makespan,
        "wasted_work": baseline.wasted_work,
        "build_counters": counters,
        "baseline_s": round(baseline_s, 6),
        "cached_s": round(cached_s, 6),
        "parallel_s": (round(parallel_s, 6)
                       if parallel_s is not None else None),
        "jobs": jobs,
        "schedules_identical": True,
        "reduction_fraction": round(1.0 - best_optimized / baseline_s, 4)
        if baseline_s > 0 else 0.0,
        "cache": probe.info(),
        "metrics": metrics.snapshot(),
    }


def run_bench(machine: MachineModel, machine_name: str = "generic",
              copies: int = 32, repeats: int = 3, jobs: int = 2,
              quick: bool = False, tracer: Tracer | None = None,
              metrics: MetricsRegistry | None = None) -> dict:
    """Run the full benchmark and return the JSON-ready document.

    Args:
        machine: timing model instance.
        machine_name: its CLI name, recorded in the document.
        copies: straight-line body repetitions per kernel.
        repeats: timing runs per measurement (minimum is reported).
        jobs: worker processes for the parallel batch variant
            (``<= 1`` skips it).
        quick: shrink the workload and repeats for CI smoke runs.
        tracer: optional :class:`~repro.obs.trace.Tracer`, attached to
            the batch probe run only (never a timed run).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            for the probe run; a private one is created when omitted,
            and its snapshot lands in ``doc["batch"]["metrics"]``
            either way (this is where the cache hit/miss totals the
            version-1 schema omitted now live).
    """
    if quick:
        copies = min(copies, 8)
        repeats = min(repeats, 2)
    blocks = bench_blocks(copies)
    doc = {
        "version": BENCH_VERSION,
        "machine": machine_name,
        "quick": quick,
        "workload": {
            "kernels": list(BENCH_KERNELS),
            "copies": copies,
            "window": "per-kernel body length",
            "n_blocks": len(blocks),
            "n_instructions": sum(len(b.instructions) for b in blocks),
        },
        "builders": _bench_builders(blocks, machine, repeats),
        "heuristics": _bench_heuristics(blocks, machine, repeats),
        "fpppp": _bench_fpppp(machine, repeats, quick),
        "batch": _bench_batch(blocks, machine, repeats, jobs,
                              tracer=tracer, metrics=metrics),
        "timing_note": (
            "counters are exactly reproducible; *_s fields are wall "
            "times (minimum over repeats) and vary with the host"),
    }
    return doc


def write_bench(doc: dict, path: str) -> None:
    """Write the benchmark document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")


# -- the trajectory gate: compare two benchmark documents --------------------


def load_bench(path: str) -> dict:
    """Read one benchmark document.

    Raises:
        ReproError: unreadable file or non-object JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read bench document {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(f"bench document {path!r} is not JSON: {exc}")
    if not isinstance(doc, dict):
        raise ReproError(
            f"bench document {path!r} must be a JSON object")
    return doc


def _flatten_counters(doc: dict) -> dict:
    """Every deterministic (exactly-comparable) field, dotted-path keyed.

    These are the machine-independent work counters and identity
    gates; any cross-run difference is a real behavior change, never
    measurement noise.
    """
    out: dict[str, object] = {}
    for name, row in sorted(doc.get("builders", {}).items()):
        for counter in _WORK_COUNTERS + ("bitmap_words_touched",):
            out[f"builders.{name}.{counter}"] = row.get(counter)
    heur = doc.get("heuristics", {})
    out["heuristics.incremental.arcs_repaired"] = \
        heur.get("incremental", {}).get("arcs_repaired")
    workload = doc.get("workload", {})
    out["workload.n_blocks"] = workload.get("n_blocks")
    out["workload.n_instructions"] = workload.get("n_instructions")
    batch = doc.get("batch", {})
    for key in ("n_blocks", "n_instructions", "total_makespan",
                "total_original_makespan", "wasted_work",
                "schedules_identical"):
        out[f"batch.{key}"] = batch.get(key)
    for counter, value in sorted(
            (batch.get("build_counters") or {}).items()):
        out[f"batch.build_counters.{counter}"] = value
    fpppp = doc.get("fpppp", {})
    for key in ("n_instructions", "target", "arcs", "table_probes",
                "alias_checks", "makespan",
                "predicted_full_n2_comparisons"):
        out[f"fpppp.{key}"] = fpppp.get(key)
    for i, point in enumerate(fpppp.get("n2_curve", [])):
        out[f"fpppp.n2_curve[{i}].n"] = point.get("n")
        out[f"fpppp.n2_curve[{i}].comparisons"] = \
            point.get("comparisons")
    return out


def _flatten_walls(doc: dict, prefix: str = "") -> dict:
    """Every wall-clock field (``*_s``), dotted-path keyed.

    The embedded metrics snapshot is skipped: its volatile section
    repeats wall clocks already gated here under their primary names.
    """
    out: dict[str, float] = {}
    for key in sorted(doc):
        value = doc[key]
        path = f"{prefix}{key}"
        if key == "metrics":
            continue
        if isinstance(value, dict):
            out.update(_flatten_walls(value, prefix=f"{path}."))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    out.update(_flatten_walls(
                        item, prefix=f"{path}[{i}]."))
        elif key.endswith("_s") and isinstance(value, (int, float)):
            out[path] = float(value)
    return out


def compare_bench(old: dict, new: dict,
                  wall_ratio: float = DEFAULT_WALL_RATIO) -> dict:
    """The noise-aware trajectory gate between two bench documents.

    Policy: deterministic counters must match *exactly*; wall-clock
    fields pass while ``new <= wall_ratio * old`` (fields below
    :data:`MIN_GATED_WALL_S` on the old side are never gated --
    nothing real is measurable there).  A counter present on only one
    side is a mismatch.

    Args:
        old: the baseline document (the committed trajectory point).
        new: the candidate document.
        wall_ratio: maximum allowed ``new / old`` for wall fields.

    Returns:
        ``{"ok", "counter_mismatches", "wall_regressions",
        "skipped_walls", "compared_counters", "compared_walls"}``;
        ``ok`` is True when both violation lists are empty.

    Raises:
        ReproError: when the two documents are not comparable at all
            (different schema version, machine, quick flag, or
            workload shape) -- comparing those would gate noise
            against noise.
    """
    for field_name in ("version", "machine", "quick"):
        if old.get(field_name) != new.get(field_name):
            raise ReproError(
                f"bench documents are not comparable: {field_name!r} "
                f"differs ({old.get(field_name)!r} vs "
                f"{new.get(field_name)!r})")
    for field_name in ("kernels", "copies"):
        if old.get("workload", {}).get(field_name) \
                != new.get("workload", {}).get(field_name):
            raise ReproError(
                f"bench documents are not comparable: workload "
                f"{field_name!r} differs")

    old_counters = _flatten_counters(old)
    new_counters = _flatten_counters(new)
    counter_mismatches = []
    for path in sorted(set(old_counters) | set(new_counters)):
        before = old_counters.get(path)
        after = new_counters.get(path)
        if before != after:
            counter_mismatches.append(
                {"field": path, "old": before, "new": after})

    old_walls = _flatten_walls(old)
    new_walls = _flatten_walls(new)
    wall_regressions = []
    skipped = []
    compared_walls = 0
    for path in sorted(set(old_walls) & set(new_walls)):
        before = old_walls[path]
        after = new_walls[path]
        if before < MIN_GATED_WALL_S:
            skipped.append(path)
            continue
        compared_walls += 1
        if after > wall_ratio * before:
            wall_regressions.append(
                {"field": path, "old": before, "new": after,
                 "ratio": round(after / before, 3),
                 "limit": wall_ratio})
    return {
        "ok": not counter_mismatches and not wall_regressions,
        "counter_mismatches": counter_mismatches,
        "wall_regressions": wall_regressions,
        "skipped_walls": skipped,
        "compared_counters": len(old_counters),
        "compared_walls": compared_walls,
    }


def render_compare(result: dict, old_path: str, new_path: str,
                   wall_ratio: float = DEFAULT_WALL_RATIO) -> str:
    """Human-readable comparison verdict (CLI output)."""
    lines = [f"! bench compare: {old_path} -> {new_path}",
             f"! policy: counters exact, wall clocks <= "
             f"{wall_ratio}x (sub-{int(MIN_GATED_WALL_S * 1000)}ms "
             f"walls ungated)"]
    for miss in result["counter_mismatches"]:
        lines.append(f"! COUNTER MISMATCH {miss['field']}: "
                     f"{miss['old']} -> {miss['new']}")
    for reg in result["wall_regressions"]:
        lines.append(f"! WALL REGRESSION {reg['field']}: "
                     f"{reg['old']:.6f}s -> {reg['new']:.6f}s "
                     f"({reg['ratio']}x > {reg['limit']}x)")
    lines.append(
        f"! compared {result['compared_counters']} counters "
        f"(exact) and {result['compared_walls']} wall fields "
        f"({len(result['skipped_walls'])} too small to gate): "
        f"{'OK' if result['ok'] else 'REGRESSION'}")
    return "\n".join(lines)
