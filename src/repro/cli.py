"""Command-line interface: schedule assembly files from the shell.

Usage::

    python -m repro schedule kernel.s --algorithm warren --machine sparc
    python -m repro schedule big.s --journal run.jsonl --resume
    python -m repro schedule big.s --trace run.json --metrics run-metrics.json
    python -m repro report --journal run.jsonl --metrics run-metrics.json
    python -m repro dag kernel.s --builder table-forward
    python -m repro stats kernel.s
    python -m repro verify kernel.s
    python -m repro fuzz --seed 0 --iterations 100

Subcommands:

* ``schedule`` -- run one of the six published algorithms (or the
  plain section 6 pipeline) over every block and emit the reordered
  assembly, with a per-block cycle report on stderr-style comment
  lines.  The section 6 path runs on the resilient batch runner
  (:mod:`repro.runner`): ``--chain`` configures builder fallback,
  ``--block-timeout``/``--max-work`` arm the per-block watchdog, and
  ``--journal``/``--resume`` checkpoint the run block by block.
* ``dag`` -- dump the dependence DAG of each block as text.
* ``stats`` -- print the Table 3 structural row for the file.
* ``verify`` -- schedule every block with every DAG construction
  algorithm and check each schedule against independently re-derived
  dependences (PASS/FAIL per block per builder; exit 1 on any FAIL).
* ``fuzz`` -- differential fuzzing of the five builders on seeded
  random and mutated blocks; disagreements are minimized into
  reproducer files (exit 1 on any disagreement).
* ``chaos`` -- fault-injection soak of the supervised worker pool:
  kill/delay/corrupt workers at seeded rates and assert every healthy
  block's outcome is byte-identical to a clean serial run, poisoned
  blocks are quarantined with reproducers, and every block is
  accounted for (exit 1 on any violation).
* ``report`` -- render paper-style Tables 3/4/5 plus fallback, cache,
  resilience, and degradation summaries from a run journal and/or a
  metrics snapshot (see :mod:`repro.obs`).
* ``serve`` / ``loadtest`` -- the scheduling daemon and its seeded
  load generator; ``serve --wal-dir`` adds the crash-safe request WAL
  and ``serve --supervised`` the self-healing restart loop (see
  docs/durability.md).
* ``fsck`` -- scan journals, WALs, and snapshots for damage; classify
  torn tails vs mid-file corruption and repair what is safe (exit 0
  clean, 1 repairable, 2 unrepairable).

``schedule``, ``verify``, and ``bench`` accept ``--trace FILE`` and
``--metrics FILE``; both are observation-only and leave schedules,
journals, and stdout byte-identical to an uninstrumented run.

Library errors (:class:`~repro.errors.ReproError`) are reported as a
one-line diagnostic with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Callable

from repro.analysis.report import render_rows
from repro.analysis.tables import table3_row
from repro.asm import parse_asm
from repro.cfg import (
    apply_window,
    partition_blocks,
    pin_delay_slot_occupants,
)
from repro.dag.builders import PairwiseCache, TableForwardBuilder
from repro.errors import BatchInterrupted, ReproError
from repro.heuristics.passes import backward_pass
from repro.machine import MACHINES
from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_journal_blocks,
    read_metrics,
    render_markdown,
    report_from,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import record_cache
from repro.pipeline import SECTION6_PRIORITY, schedule_attempt
from repro.runner import (
    BUILDER_CLASSES,
    DEFAULT_CHAIN,
    Budget,
    ChaosConfig,
    RetryPolicy,
    RunJournal,
    run_batch,
    run_chaos,
    run_fingerprint,
)
from repro.runner import fuzz as run_fuzz
from repro.scheduling.algorithms import (
    GibbonsMuchnick,
    Krishnamurthy,
    Schlansker,
    ShiehPapachristou,
    Tiemann,
    Warren,
)
from repro.scheduling.list_scheduler import schedule_forward
from repro.verify import verify_schedule

ALGORITHMS = {
    "gibbons-muchnick": GibbonsMuchnick,
    "krishnamurthy": Krishnamurthy,
    "schlansker": Schlansker,
    "shieh-papachristou": ShiehPapachristou,
    "tiemann": Tiemann,
    "warren": Warren,
}


def _obs_from_args(args: argparse.Namespace) -> tuple[
        Tracer | None, MetricsRegistry | None]:
    """Tracer/registry instances per the ``--trace``/``--metrics``
    flags (None when a flag is absent, so untraced runs pay nothing)."""
    tracer = Tracer() if getattr(args, "trace", None) else None
    registry = (MetricsRegistry()
                if getattr(args, "metrics", None) else None)
    return tracer, registry


def _write_obs(args: argparse.Namespace, tracer: Tracer | None,
               registry: MetricsRegistry | None) -> None:
    """Write the trace/metrics files, silently.

    No diagnostic line is printed: the observability contract is that
    ``--trace``/``--metrics`` leave stdout byte-identical to an
    uninstrumented run.
    """
    if tracer is not None:
        write_trace(tracer.entries, args.trace)
    if registry is not None:
        write_metrics(registry, args.metrics)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_program(source: str, args: argparse.Namespace,
                   out: Callable[[str], None]):
    """Parse a subcommand's input, honoring ``--lenient``.

    In lenient mode every skipped line is reported as a ``!`` comment
    diagnostic so the recovery is visible in the output.
    """
    lenient = getattr(args, "lenient", False)
    program = parse_asm(source, args.file, lenient=lenient)
    for skipped in program.skipped_lines:
        out(f"! skipped line {skipped.number}: {skipped.error} "
            f"[{skipped.text.strip()}]")
    return program


def _cmd_schedule(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    machine = MACHINES[args.machine]()
    source = _read_source(args.file)
    program = _parse_program(source, args, out)
    # Pin delay-slot occupants so the emitted linear listing keeps the
    # same instruction in each branch's slot.
    blocks = pin_delay_slot_occupants(
        apply_window(partition_blocks(program), args.window))
    tracer, registry = _obs_from_args(args)
    if args.algorithm == "section6":
        status = _schedule_resilient(args, source, machine, blocks, out,
                                     tracer=tracer, metrics=registry)
        _write_obs(args, tracer, registry)
        return status
    if args.journal or args.resume:
        raise ReproError(
            "--journal/--resume require the section 6 pipeline "
            "(--algorithm section6)")
    span_tracer = tracer if tracer is not None else None
    total = original_total = 0
    for block in blocks:
        if not block.size:
            continue
        algorithm = ALGORITHMS[args.algorithm](machine)
        if span_tracer is not None:
            with span_tracer.span("block", index=block.index,
                                  algorithm=args.algorithm,
                                  size=block.size):
                result = algorithm.schedule_block(block)
        else:
            result = algorithm.schedule_block(block)
        total += result.makespan
        original_total += result.original_timing.makespan
        out(f"! block {block.index}: {result.original_timing.makespan} "
            f"-> {result.makespan} cycles")
        for node in result.order:
            label = f"{node.instr.label}:\n" if node.instr.label else ""
            out(f"{label}\t{node.instr.render()}")
    out(f"! total: {original_total} -> {total} cycles "
        f"({original_total / max(1, total):.2f}x)")
    _write_obs(args, tracer, registry)
    return 0


def _schedule_resilient(args: argparse.Namespace, source: str, machine,
                        blocks, out: Callable[[str], None],
                        tracer: Tracer | None = None,
                        metrics: MetricsRegistry | None = None) -> int:
    """The section 6 path, on the resilient batch runner."""
    chain = (tuple(p.strip() for p in args.chain.split(",") if p.strip())
             if args.chain else DEFAULT_CHAIN)
    budget = None
    if args.block_timeout is not None or args.max_work is not None:
        budget = Budget(wall_clock=args.block_timeout,
                        max_work=args.max_work)
    journal = None
    if args.resume and not args.journal:
        raise ReproError("--resume requires --journal")
    if args.journal:
        # Everything outcome-determining goes in: the watchdog budgets
        # change which blocks degrade, so resuming under different
        # budgets is a different run and must be a typed mismatch.
        fingerprint = run_fingerprint(
            source, args.machine, chain, window=args.window,
            verify=bool(args.verify),
            lenient=bool(getattr(args, "lenient", False)),
            block_timeout=args.block_timeout,
            max_work=args.max_work)
        if args.resume and os.path.exists(args.journal):
            journal = RunJournal.open_resume(args.journal, fingerprint)
        else:
            journal = RunJournal.open_fresh(args.journal, fingerprint)
    blocks_by_index = {block.index: block for block in blocks}

    def emit(outcome) -> None:
        block = blocks_by_index[outcome.index]
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

    jobs = getattr(args, "jobs", 1) or 1
    cache = None if getattr(args, "no_cache", False) else PairwiseCache()
    retry = None
    if getattr(args, "retries", None) is not None:
        retry = RetryPolicy(max_retries=args.retries)
    # SIGTERM gets the same graceful path as Ctrl-C: run_batch turns
    # the KeyboardInterrupt into a typed BatchInterrupted after the
    # pool is down and the journal is flushed.
    def to_interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, to_interrupt)
    except ValueError:  # not the main thread (embedded use)
        previous_sigterm = None
    try:
        result = run_batch(
            blocks, machine, chain=chain, budget=budget,
            verify=args.verify, journal=journal,
            on_block=emit, jobs=jobs, cache=cache,
            tracer=tracer, metrics=metrics, retry=retry,
            quarantine_dir=getattr(args, "quarantine_dir", None),
            mem_limit_mb=getattr(args, "worker_mem_mb", None))
    except BatchInterrupted as exc:
        out(f"! interrupted: {exc}")
        return 130
    finally:
        if journal is not None:
            journal.close()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    quarantined = [o for o in result.outcomes if o.quarantined]
    if quarantined:
        out(f"! quarantined {len(quarantined)} block(s): "
            + ", ".join(str(o.index) for o in quarantined))
    out(f"! total: {result.total_original_makespan} -> "
        f"{result.total_makespan} cycles "
        f"({result.total_original_makespan / max(1, result.total_makespan):.2f}x)")
    return 0


def _cmd_fuzz(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    result = run_fuzz(
        seed=args.seed, iterations=args.iterations,
        machine=MACHINES[args.machine](), out_dir=args.out,
        max_size=args.max_size, inject_fault=args.inject_fault)
    for failure in result.failures:
        out(f"FAIL {failure.case} [{failure.shape}] {failure.description}")
        out(f"  reproducer: {failure.reproducer} "
            f"({failure.original_size} -> {failure.minimized_size} "
            f"instructions)")
    out(f"! fuzz: seed {result.seed}, {result.iterations} iterations, "
        f"{result.n_blocks} blocks checked, "
        f"{len(result.failures)} disagreements")
    return 0 if result.passed else 1


def _cmd_chaos_serve(args: argparse.Namespace,
                     out: Callable[[str], None]) -> int:
    from repro.serve.chaosserve import (
        ServeChaosConfig,
        render_serve_chaos_report,
        run_serve_chaos,
    )
    tracer, registry = _obs_from_args(args)
    config = ServeChaosConfig(
        seed=args.seed,
        requests=3 if args.quick else args.requests,
        jobs=max(2, args.jobs),
        copies=4 if args.quick else args.copies,
        exit_rate=args.exit_rate,
        kill_rate=args.kill_rate,
        disconnect_rate=args.disconnect_rate,
        storm_rate=args.storm_rate,
        alloc_rate=args.alloc_rate,
        mem_limit_mb=args.worker_mem_mb)
    report = run_serve_chaos(config, metrics=registry)
    out(render_serve_chaos_report(report))
    _write_obs(args, tracer, registry)
    return 0 if report.ok else 1


def _cmd_chaos_storm(args: argparse.Namespace,
                     out: Callable[[str], None]) -> int:
    from repro.serve.chaosserve import (
        StormChaosConfig,
        render_storm_chaos_report,
        run_storm_chaos,
    )
    tracer, registry = _obs_from_args(args)
    config = StormChaosConfig(
        seed=args.seed,
        requests=16 if args.quick else 48,
        hog_mb=32 if args.quick else 48,
        cooldown_s=20.0 if args.quick else 30.0)
    report = run_storm_chaos(config, metrics=registry)
    out(render_storm_chaos_report(report))
    _write_obs(args, tracer, registry)
    return 0 if report.ok else 1


def _cmd_chaos_kill_daemon(args: argparse.Namespace,
                           out: Callable[[str], None]) -> int:
    from repro.serve.chaosserve import (
        KillDaemonConfig,
        render_kill_daemon_report,
        run_kill_daemon_chaos,
    )
    config = KillDaemonConfig(
        seed=args.seed,
        requests=3 if args.quick else args.requests,
        copies=2 if args.quick else args.copies,
        kills=1 if args.quick else args.kills,
        kill_interval_s=args.kill_interval)
    report = run_kill_daemon_chaos(config)
    out(render_kill_daemon_report(report))
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.kill_daemon:
        if not args.serve:
            raise ReproError("--kill-daemon requires --serve")
        return _cmd_chaos_kill_daemon(args, out)
    if args.storm:
        if not args.serve:
            raise ReproError("--storm requires --serve")
        return _cmd_chaos_storm(args, out)
    if args.serve:
        return _cmd_chaos_serve(args, out)
    machine = MACHINES[args.machine]()
    copies = 1 if args.quick else args.copies
    poison = frozenset(range(args.poison))
    config = ChaosConfig(
        seed=args.seed, exit_rate=args.exit_rate,
        kill_rate=args.kill_rate, delay_rate=args.delay_rate,
        corrupt_rate=args.corrupt_rate, alloc_rate=args.alloc_rate,
        poison=poison)
    tracer, registry = _obs_from_args(args)
    report = run_chaos(
        machine, config, copies=copies, jobs=args.jobs,
        expect_quarantined=poison,
        quarantine_dir=args.quarantine_dir, metrics=registry,
        mem_limit_mb=args.worker_mem_mb)
    out(f"! chaos: seed {args.seed}, {report.n_blocks} blocks, "
        f"{args.jobs} workers, rates exit={args.exit_rate} "
        f"kill={args.kill_rate} delay={args.delay_rate} "
        f"corrupt={args.corrupt_rate}")
    kinds = ", ".join(f"{kind}: {count}" for kind, count
                      in report.crash_kinds.items()) or "none"
    out(f"! crashes: {report.crashes} ({kinds}), "
        f"restarts: {report.restarts}, retries: {report.retries}")
    out(f"! accounting: {report.n_scheduled} scheduled + "
        f"{report.n_degraded} degraded + "
        f"{report.n_quarantined} quarantined = "
        f"{report.n_scheduled + report.n_degraded + report.n_quarantined}"
        f" of {report.n_blocks}")
    if report.quarantined_indices:
        out(f"! quarantined blocks: "
            + ", ".join(str(i) for i in report.quarantined_indices))
    for mismatch in report.mismatches:
        out(f"! MISMATCH: {mismatch}")
    out(f"! healthy blocks identical to clean serial run: "
        f"{not report.mismatches}")
    _write_obs(args, tracer, registry)
    return 0 if report.ok else 1


def _cmd_serve_supervised(args: argparse.Namespace,
                          out: Callable[[str], None]) -> int:
    """``repro serve --supervised``: the self-healing parent.

    Re-execs the daemon (this interpreter, same flags minus the
    supervision ones) as a child process and restarts it with backoff
    when it crashes; the WAL/snapshot directory is preserved across
    generations, so every restart recovers acknowledged work.
    """
    from repro.errors import SupervisorError
    from repro.serve.supervise import (
        DaemonSupervisor,
        SupervisorPolicy,
        spawn_serve_child,
    )
    raw = list(getattr(args, "_argv", None) or [])
    child = raw[raw.index("serve") + 1:] if "serve" in raw else raw
    stripped: list[str] = []
    skip_value = False
    for token in child:
        if skip_value:
            skip_value = False
            continue
        if token == "--supervised":
            continue
        if token in ("--max-restarts", "--restart-window"):
            skip_value = True
            continue
        if token.startswith(("--max-restarts=", "--restart-window=")):
            continue
        stripped.append(token)
    pid_path = (os.path.join(args.wal_dir, "daemon.pid")
                if args.wal_dir else None)
    supervisor = DaemonSupervisor(
        spawn=lambda: spawn_serve_child(stripped),
        policy=SupervisorPolicy(max_restarts=args.max_restarts,
                                window_s=args.restart_window),
        pid_path=pid_path,
        log=out)
    supervisor.install_signal_handlers()
    out(f"! serve: supervised; restart limit {args.max_restarts} "
        f"per {args.restart_window:g}s"
        + (f", wal {args.wal_dir}" if args.wal_dir else ""))
    try:
        code = supervisor.run()
    except SupervisorError as exc:
        out(f"! serve: {exc}")
        return 1
    out(f"! serve: supervisor done after {supervisor.generation} "
        f"generation(s), final exit {code}")
    return code


def _cmd_serve(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    import asyncio

    from repro.serve.server import ReproServer, ServeConfig
    if args.supervised:
        return _cmd_serve_supervised(args, out)
    from repro.serve.overload import OverloadConfig
    tracer, registry = _obs_from_args(args)
    chain = (tuple(p.strip() for p in args.chain.split(",") if p.strip())
             if args.chain else None)
    overload = None
    if not args.no_overload:
        overload = OverloadConfig(
            rss_budget_mb=args.rss_budget_mb,
            priority_tenants=tuple(args.priority_tenant or ()))
    config = ServeConfig(
        address=args.address,
        workers=args.workers,
        max_queued=args.max_queued,
        jobs=args.jobs,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_max_blocks=args.tenant_max_blocks,
        max_request_blocks=args.max_request_blocks,
        block_wall_s=args.block_wall,
        default_deadline_s=args.default_deadline,
        drain_grace_s=args.drain_grace,
        drain_force_s=args.drain_force,
        cache_entries=args.cache_entries,
        chain=chain,
        breaker=args.breaker,
        mem_limit_mb=args.worker_mem_mb,
        quarantine_dir=args.quarantine_dir,
        wal_dir=args.wal_dir,
        telemetry=args.telemetry,
        overload=overload)
    server = ReproServer(config, metrics=registry, tracer=tracer)
    out(f"! serve: listening on {args.address} "
        f"({args.workers} workers, queue {args.max_queued}, "
        f"jobs {args.jobs})")
    if args.telemetry:
        out(f"! serve: telemetry endpoint on {args.telemetry} "
            f"(/metrics, /healthz)")
    # Cover the startup window before the event loop installs its own
    # handlers: a SIGTERM that lands while the WAL is still replaying
    # must schedule a drain, not kill the process mid-recovery.
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig,
                          lambda signum, frame: server.request_drain())
        except ValueError:  # not the main thread (embedded use)
            break
    # Blocks until SIGTERM/SIGINT, then drains gracefully: admission
    # closes, in-flight requests finish or shed, exit status 0.  A
    # request wedged past the --drain-force backstop is abandoned and
    # the daemon exits 1 instead of hanging.
    asyncio.run(server.run())
    _write_obs(args, tracer, registry)
    if server.drain_abandoned:
        out(f"! serve: drain abandoned "
            f"{len(server.drain_abandoned)} wedged request(s): "
            f"{', '.join(server.drain_abandoned)}")
        return 1
    out("! serve: drained, all requests accounted")
    return 0


def _cmd_loadtest(args: argparse.Namespace,
                  out: Callable[[str], None]) -> int:
    from repro.serve.loadtest import (
        LoadtestConfig,
        render_loadtest_report,
        run_loadtest,
    )
    tracer, registry = _obs_from_args(args)
    config = LoadtestConfig(
        address=args.address,
        seed=args.seed,
        requests=8 if args.quick else args.requests,
        concurrency=4 if args.quick else args.concurrency,
        tenants=args.tenants,
        copies_max=args.copies_max,
        deadline_s=args.deadline,
        deadline_fraction=args.deadline_fraction,
        machine=args.machine,
        idempotency_retry=args.idempotency_retry,
        storm=args.storm)
    report = run_loadtest(config, metrics=registry)
    out(render_loadtest_report(report))
    _write_obs(args, tracer, registry)
    # Silent loss anywhere voids the report: every request must have
    # reached a typed terminal frame.  With --idempotency-retry, a
    # single re-executed duplicate key also fails the run -- the
    # exactly-once result contract admits no partial credit.  With
    # --storm, a ladder that never came back to L0 is a failure too.
    accounted = (report.completed + report.rejected + report.errored
                 == report.sent)
    recovered = (report.storm is None
                 or bool(report.storm.get("recovered")))
    return (0 if accounted and report.errored == 0
            and report.duplicate_results == 0 and recovered else 1)


def _cmd_fsck(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """``repro fsck``: scan, classify, and optionally repair.

    Exit status: 0 when everything is clean, 1 when damage was found
    but every damaged file is repairable (or was repaired with
    ``--repair``), 2 (via :class:`~repro.errors.ReproError`) when any
    file carries unrepairable damage.
    """
    from repro.runner.fsck import fsck_paths, render_fsck_report
    findings = fsck_paths(args.paths, repair=args.repair)
    if not findings:
        raise ReproError(
            "fsck found no journal, WAL, or snapshot files under: "
            + ", ".join(args.paths))
    out(render_fsck_report(findings))
    corrupt = [f for f in findings if f.status == "corrupt"]
    if corrupt:
        raise ReproError(
            f"fsck: {len(corrupt)} file(s) carry unrepairable damage "
            f"(mid-file corruption is never safe to truncate away): "
            + ", ".join(f.path for f in corrupt))
    if all(f.status == "clean" for f in findings):
        return 0
    return 1


def _cmd_dag(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    machine = MACHINES[args.machine]()
    program = _parse_program(_read_source(args.file), args, out)
    for block in partition_blocks(program):
        if not block.size:
            continue
        outcome = BUILDER_CLASSES[args.builder](machine).build(block)
        if args.dot:
            from repro.dag.export import to_dot
            out(to_dot(outcome.dag, name=f"block{block.index}",
                       highlight_transitive=True).rstrip("\n"))
            continue
        out(f"! block {block.index}: {block.size} instructions, "
            f"{outcome.dag.n_arcs} arcs")
        for node in outcome.dag.real_nodes():
            out(f"  {node.id:3d}: {node.instr.render()}")
            for arc in node.out_arcs:
                out(f"       -> {arc.child.id} "
                    f"[{arc.dep.value}, {arc.delay}] via {arc.resource}")
    return 0


def _cmd_stats(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    program = _parse_program(_read_source(args.file), args, out)
    blocks = apply_window(partition_blocks(program), args.window)
    out(render_rows([table3_row(args.file, blocks)]))
    return 0


def _cmd_verify(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    machine = MACHINES[args.machine]()
    program = _parse_program(_read_source(args.file), args, out)
    blocks = pin_delay_slot_occupants(
        apply_window(partition_blocks(program), args.window))
    builder_names = ([args.builder] if args.builder
                     else sorted(BUILDER_CLASSES))
    # One shared dependence cache across builders x blocks: each
    # builder still records its own arc recipe, but the pairwise
    # preparation and the verifier's reference builds are reused.
    cache = None if getattr(args, "no_cache", False) else PairwiseCache()
    tracer, registry = _obs_from_args(args)
    n_checked = n_failed = 0
    for block in blocks:
        if not block.size:
            continue
        for name in builder_names:
            outcome = BUILDER_CLASSES[name](machine, cache=cache).build(block)
            backward_pass(outcome.dag, require_est=False)
            result = schedule_forward(outcome.dag, machine,
                                      SECTION6_PRIORITY)
            report = verify_schedule(
                block, result.order, machine,
                claimed_issue_times=result.timing.issue_times,
                check_semantics=not args.no_semantics,
                approach=name, cache=cache, tracer=tracer,
                metrics=registry)
            n_checked += 1
            if report.passed:
                out(f"block {block.index} [{name}]: PASS")
            else:
                n_failed += 1
                failed = ", ".join(c.name for c in report.failures)
                out(f"block {block.index} [{name}]: FAIL ({failed})")
                for check in report.failures:
                    out(f"  {check.name}: {check.detail}")
    out(f"! verified {n_checked} schedules: "
        f"{n_checked - n_failed} passed, {n_failed} failed")
    if registry is not None and cache is not None:
        info = cache.info()
        record_cache(registry, info["hits"], info["misses"],
                     entries=info["entries"], recipes=info["recipes"])
    _write_obs(args, tracer, registry)
    return 0 if n_failed == 0 else 1


def _cmd_bench(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    from repro.runner.bench import (
        DEFAULT_BENCH_PATH,
        compare_bench,
        load_bench,
        render_compare,
        run_bench,
        write_bench,
    )
    out_path = args.out or DEFAULT_BENCH_PATH
    compare = args.compare or []
    if len(compare) > 2:
        raise ReproError(
            "--compare takes OLD.json or OLD.json NEW.json")
    if len(compare) == 2:
        # Pure gate mode: compare two existing documents, run nothing.
        result = compare_bench(load_bench(compare[0]),
                               load_bench(compare[1]),
                               wall_ratio=args.wall_ratio)
        out(render_compare(result, compare[0], compare[1],
                           args.wall_ratio))
        return 0 if result["ok"] else 1
    machine = MACHINES[args.machine]()
    tracer, registry = _obs_from_args(args)
    doc = run_bench(machine, machine_name=args.machine,
                    copies=args.copies, repeats=args.repeats,
                    jobs=args.jobs, quick=args.quick,
                    tracer=tracer, metrics=registry)
    write_bench(doc, out_path)
    _write_obs(args, tracer, registry)
    batch = doc["batch"]
    out(f"! bench: {doc['workload']['n_blocks']} blocks, "
        f"{doc['workload']['n_instructions']} instructions "
        f"({'quick' if doc['quick'] else 'full'})")
    parallel = (f", parallel {batch['parallel_s']:.3f}s"
                if batch["parallel_s"] is not None else "")
    out(f"! batch: baseline {batch['baseline_s']:.3f}s, "
        f"cached {batch['cached_s']:.3f}s{parallel} -> "
        f"{batch['reduction_fraction'] * 100:.1f}% reduction")
    out(f"! schedules identical across variants: "
        f"{batch['schedules_identical']}")
    out(f"! wrote {out_path}")
    if compare:
        result = compare_bench(load_bench(compare[0]), doc,
                               wall_ratio=args.wall_ratio)
        out(render_compare(result, compare[0], out_path,
                           args.wall_ratio))
        return 0 if result["ok"] else 1
    return 0


def _cmd_profile(args: argparse.Namespace,
                 out: Callable[[str], None]) -> int:
    from repro.obs.profile import profile_workload, write_profile
    builders = (tuple(b.strip() for b in args.builders.split(",")
                      if b.strip()) if args.builders else None)
    copies = 2 if args.quick else args.copies
    profile = profile_workload(args.machine, copies=copies,
                               builders=builders, jobs=args.jobs)
    write_profile(profile, args.out, args.markdown)
    out(f"! profile: machine {args.machine}, {copies} copies/kernel, "
        f"{profile.total()} work units over {len(profile.stacks)} "
        f"stacks (deterministic; identical across runs and --jobs)")
    heaviest = sorted(profile.stacks.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:5]
    for stack, units in heaviest:
        out(f"!   {';'.join(stack)} {units}")
    out(f"! wrote {args.out}"
        + (f" and {args.markdown}" if args.markdown else ""))
    return 0


def _cmd_top(args: argparse.Namespace,
             out: Callable[[str], None]) -> int:
    from repro.serve.top import poll_ops, render_top, run_top
    if args.once:
        out(render_top(poll_ops(args.address), args.address))
        return 0
    run_top(args.address, interval_s=args.interval)
    return 0


def _cmd_report(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    blocks = (load_journal_blocks(args.journal)
              if args.journal else None)
    snapshot = None
    if args.metrics:
        try:
            snapshot = read_metrics(args.metrics)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read metrics snapshot {args.metrics!r}: {exc}")
    doc = report_from(blocks, snapshot)
    if args.format in ("markdown", "both"):
        out(render_markdown(doc).rstrip("\n"))
    if args.format in ("json", "both"):
        out(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_minic(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    from repro.minic import compile_minic
    asm = compile_minic(_read_source(args.file))
    if not args.schedule:
        out(asm.rstrip("\n"))
        return 0
    machine = MACHINES[args.machine]()
    program = parse_asm(asm, args.file)
    for block in partition_blocks(program):
        if not block.size:
            continue
        _, _, result, original = schedule_attempt(
            block, machine, lambda: TableForwardBuilder(machine),
            "table-forward")
        out(f"! block {block.index}: {original.makespan} -> "
            f"{result.makespan} cycles")
        for node in result.order:
            out(f"\t{node.instr.render()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAG-based basic-block instruction scheduling "
                    "(Smotherman et al., MICRO-24 1991 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="assembly file ('-' for stdin)")
    common.add_argument("--machine", choices=sorted(MACHINES),
                        default="generic", help="timing model")
    common.add_argument("--window", type=int, default=None,
                        help="maximum basic block size")
    common.add_argument("--lenient", action="store_true",
                        help="skip unparseable lines (reported as "
                             "'! skipped' diagnostics) instead of "
                             "aborting")

    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument("--trace", default=None, metavar="FILE",
                           help="write a structured trace of the run "
                                "(.jsonl = raw entries; any other "
                                "suffix = Chrome trace-event format "
                                "for chrome://tracing).  Never changes "
                                "schedules, journals, or stdout")
    obs_flags.add_argument("--metrics", default=None, metavar="FILE",
                           help="write a metrics snapshot (JSON: work "
                                "counters, block structure, fallback "
                                "and cache accounting).  Never changes "
                                "schedules, journals, or stdout")

    schedule = sub.add_parser("schedule", parents=[common, obs_flags],
                              help="schedule each basic block")
    schedule.add_argument("--algorithm",
                          choices=sorted(ALGORITHMS) + ["section6"],
                          default="section6",
                          help="published algorithm, or the paper's "
                               "section 6 pipeline (default)")
    schedule.add_argument("--chain", default=None, metavar="B1,B2,...",
                          help="builder fallback chain for the section 6 "
                               f"pipeline (default: "
                               f"{','.join(DEFAULT_CHAIN)})")
    schedule.add_argument("--block-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock watchdog per block attempt")
    schedule.add_argument("--max-work", type=int, default=None,
                          metavar="UNITS",
                          help="construction work budget per block "
                               "attempt (comparisons + table probes + "
                               "alias checks + bitmap ops)")
    schedule.add_argument("--verify", action="store_true",
                          help="independently verify every accepted "
                               "schedule (failures fall back through "
                               "the chain)")
    schedule.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for the section 6 "
                               "pipeline (outcomes and journal stay "
                               "identical to --jobs 1)")
    schedule.add_argument("--retries", type=int, default=None,
                          metavar="N",
                          help="crash retries per block before "
                               "quarantine (supervised pool; "
                               "default 3)")
    schedule.add_argument("--quarantine-dir", default=None,
                          metavar="DIR",
                          help="write a minimized reproducer .s file "
                               "here for every quarantined block")
    schedule.add_argument("--worker-mem-mb", type=int, default=None,
                          metavar="MB",
                          help="per-worker address-space ceiling "
                               "(RLIMIT_AS) with --jobs N; a worker "
                               "that exceeds it dies as an attributed "
                               "'oom' crash and its block is retried "
                               "on a fresh worker")
    schedule.add_argument("--no-cache", action="store_true",
                          help="disable the pairwise-dependence cache "
                               "(schedules are identical either way; "
                               "this exists for timing comparisons)")
    schedule.add_argument("--journal", default=None, metavar="PATH",
                          help="write per-block outcomes to a JSONL "
                               "journal as the run progresses")
    schedule.add_argument("--resume", action="store_true",
                          help="replay completed blocks from --journal "
                               "and continue from the first missing "
                               "one (starts fresh if the journal does "
                               "not exist)")
    schedule.set_defaults(handler=_cmd_schedule)

    dag = sub.add_parser("dag", parents=[common],
                         help="dump dependence DAGs")
    dag.add_argument("--builder", choices=sorted(BUILDER_CLASSES),
                     default="table-forward")
    dag.add_argument("--dot", action="store_true",
                     help="emit Graphviz DOT (transitive arcs in red)")
    dag.set_defaults(handler=_cmd_dag)

    stats = sub.add_parser("stats", parents=[common],
                           help="structural statistics (Table 3 row)")
    stats.set_defaults(handler=_cmd_stats)

    verify = sub.add_parser("verify", parents=[common, obs_flags],
                            help="verify every builder's schedules "
                                 "against independently re-derived "
                                 "dependences")
    verify.add_argument("--builder", choices=sorted(BUILDER_CLASSES),
                        default=None,
                        help="check one builder only (default: all)")
    verify.add_argument("--no-semantics", action="store_true",
                        help="skip the interpreter-based semantic "
                             "equivalence check")
    verify.add_argument("--no-cache", action="store_true",
                        help="disable the shared dependence cache")
    verify.set_defaults(handler=_cmd_verify)

    bench = sub.add_parser("bench", parents=[obs_flags],
                           help="benchmark builders, heuristic passes, "
                                "and the cached/parallel batch path "
                                "(writes a JSON report)")
    bench.add_argument("--machine", choices=sorted(MACHINES),
                       default="sparc", help="timing model")
    bench.add_argument("--copies", type=int, default=32,
                       help="straight-line body repetitions per kernel")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing runs per measurement (minimum "
                            "is reported)")
    bench.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="workers for the parallel batch variant "
                            "(1 skips it)")
    bench.add_argument("--quick", action="store_true",
                       help="small workload and fewer repeats "
                            "(CI smoke mode)")
    bench.add_argument("--out", "--out-json", dest="out", default=None,
                       metavar="PATH",
                       help="output document path (default: "
                            "BENCH_v<schema>.json for the current "
                            "bench schema version)")
    bench.add_argument("--compare", nargs="+", default=None,
                       metavar="JSON",
                       help="regression gate: with one path, run the "
                            "bench and compare the fresh document "
                            "against it; with two paths, compare the "
                            "existing documents without running. "
                            "Deterministic counters must match "
                            "exactly; wall clocks gate at "
                            "--wall-ratio. Exits 1 on violations.")
    bench.add_argument("--wall-ratio", type=float, default=2.0,
                       metavar="R",
                       help="max allowed NEW/OLD wall-clock ratio "
                            "for --compare (default 2.0)")
    bench.set_defaults(handler=_cmd_bench)

    profile = sub.add_parser("profile",
                             help="deterministic work profile: "
                                  "attribute builder work counters to "
                                  "a workload x builder x phase call "
                                  "tree (collapsed-stack + Markdown)")
    profile.add_argument("--machine", choices=sorted(MACHINES),
                         default="generic", help="timing model")
    profile.add_argument("--copies", type=int, default=8,
                         help="straight-line body repetitions per "
                              "kernel")
    profile.add_argument("--quick", action="store_true",
                         help="2 copies per kernel (CI smoke mode)")
    profile.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="profile blocks in N processes (the "
                              "profile is byte-identical for any N)")
    profile.add_argument("--builders", default=None, metavar="A,B",
                         help="comma-separated builder subset "
                              "(default: all registered builders)")
    profile.add_argument("--out", default="profile.collapsed",
                         metavar="PATH",
                         help="collapsed-stack output path (feed to "
                              "flamegraph.pl / inferno / speedscope)")
    profile.add_argument("--markdown", default=None, metavar="PATH",
                         help="also write a 'where the work goes' "
                              "Markdown table")
    profile.set_defaults(handler=_cmd_profile)

    report = sub.add_parser("report",
                            help="render paper-style Tables 3/4/5 and "
                                 "fallback/cache summaries from a run "
                                 "journal and/or metrics snapshot")
    report.add_argument("--journal", default=None, metavar="PATH",
                        help="run journal written by "
                             "'schedule --journal'")
    report.add_argument("--metrics", default=None, metavar="PATH",
                        help="metrics snapshot written by --metrics")
    report.add_argument("--format",
                        choices=("markdown", "json", "both"),
                        default="markdown",
                        help="output rendering (default: markdown)")
    report.set_defaults(handler=_cmd_report)

    minic = sub.add_parser("minic",
                           help="compile mini-C to assembly "
                                "(optionally scheduling it)")
    minic.add_argument("file", help="mini-C source file ('-' for stdin)")
    minic.add_argument("--machine", choices=sorted(MACHINES),
                       default="generic")
    minic.add_argument("--schedule", action="store_true",
                       help="schedule the compiled block and report "
                            "cycles")
    minic.set_defaults(handler=_cmd_minic)

    fuzz = sub.add_parser("fuzz",
                          help="differential fuzzing of the DAG "
                               "builders (seeded, deterministic)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (fixes the whole run)")
    fuzz.add_argument("--iterations", type=int, default=100,
                      help="generated cases")
    fuzz.add_argument("--machine", choices=sorted(MACHINES),
                      default="generic", help="timing model")
    fuzz.add_argument("--out", default="fuzz-failures", metavar="DIR",
                      help="directory for minimized reproducer files")
    fuzz.add_argument("--max-size", type=int, default=24,
                      help="instruction cap for generated blocks")
    fuzz.add_argument("--inject-fault", action="store_true",
                      help="add a deliberately broken builder to the "
                           "differential set (self-test: must be "
                           "detected)")
    fuzz.set_defaults(handler=_cmd_fuzz)

    chaos = sub.add_parser("chaos", parents=[obs_flags],
                           help="fault-injection soak of the "
                                "supervised pool: crash/delay/corrupt "
                                "workers at seeded rates and assert "
                                "healthy blocks match a clean serial "
                                "run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="injection seed (fixes every fault)")
    chaos.add_argument("--machine", choices=sorted(MACHINES),
                       default="generic", help="timing model")
    chaos.add_argument("--copies", type=int, default=4,
                       help="bench-workload size multiplier")
    chaos.add_argument("--jobs", type=int, default=4, metavar="N",
                       help="supervised workers (>= 2)")
    chaos.add_argument("--exit-rate", type=float, default=0.1,
                       help="probability a dispatch dies via os._exit")
    chaos.add_argument("--kill-rate", type=float, default=0.1,
                       help="probability a dispatch dies via SIGKILL")
    chaos.add_argument("--delay-rate", type=float, default=0.05,
                       help="probability a dispatch sleeps first")
    chaos.add_argument("--corrupt-rate", type=float, default=0.05,
                       help="probability a task payload is corrupted")
    chaos.add_argument("--poison", type=int, default=1, metavar="N",
                       help="blocks that crash on every attempt "
                            "(must end up quarantined; 0 disables)")
    chaos.add_argument("--quarantine-dir", default="chaos-quarantine",
                       metavar="DIR",
                       help="directory for quarantine reproducers")
    chaos.add_argument("--quick", action="store_true",
                       help="small workload (CI smoke mode)")
    chaos.add_argument("--alloc-rate", type=float, default=0.0,
                       help="probability a dispatch allocates a "
                            "memory burst first (with --worker-mem-mb "
                            "this exercises attributed OOM crashes)")
    chaos.add_argument("--worker-mem-mb", type=int, default=None,
                       metavar="MB",
                       help="per-worker address-space ceiling "
                            "(RLIMIT_AS); allocation bursts above it "
                            "die as attributed 'oom' crashes")
    chaos.add_argument("--serve", action="store_true",
                       help="chaos the serve daemon instead of a "
                            "batch: worker crashes + client "
                            "disconnects + deadline storms against a "
                            "live server, asserting zero lost and "
                            "zero double-scheduled blocks")
    chaos.add_argument("--requests", type=int, default=6,
                       help="(--serve) schedule requests to send")
    chaos.add_argument("--disconnect-rate", type=float, default=0.25,
                       help="(--serve) probability a client hangs up "
                            "mid-stream")
    chaos.add_argument("--storm-rate", type=float, default=0.25,
                       help="(--serve) probability a request carries "
                            "a too-small deadline")
    chaos.add_argument("--storm", action="store_true",
                       help="(--serve) overload storm: flood a tiny "
                            "daemon with mixed-priority traffic while "
                            "an in-process memory hog inflates its "
                            "RSS; asserts the daemon survives, block "
                            "accounting stays exact, priority "
                            "tenants' error budget holds, and the "
                            "degradation ladder returns to L0")
    chaos.add_argument("--kill-daemon", action="store_true",
                       help="(--serve) SIGKILL the daemon itself at "
                            "seeded instants under a real supervisor; "
                            "the WAL audit must show zero acknowledged "
                            "requests lost and zero double-scheduled "
                            "blocks across restarts")
    chaos.add_argument("--kills", type=int, default=2,
                       help="(--kill-daemon) SIGKILLs to deliver "
                            "mid-load")
    chaos.add_argument("--kill-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="(--kill-daemon) nominal spacing between "
                            "kills (seeded jitter applied)")
    chaos.set_defaults(handler=_cmd_chaos)

    serve = sub.add_parser("serve", parents=[obs_flags],
                           help="scheduling-as-a-service daemon: "
                                "NDJSON over a unix socket or "
                                "localhost TCP, with admission "
                                "control, backpressure, deadline "
                                "propagation, and graceful drain "
                                "on SIGTERM (see docs/serving.md)")
    serve.add_argument("--address", default="unix:repro.sock",
                       help="listen address: unix:/path, /path, "
                            "HOST:PORT, or PORT (loopback only)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrently running requests")
    serve.add_argument("--max-queued", type=int, default=16,
                       metavar="N",
                       help="admitted requests allowed to wait "
                            "(beyond this the daemon sheds load with "
                            "typed 'queue-full' rejections)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="per-request engine parallelism (>= 2 "
                            "runs each request on a supervised "
                            "worker pool)")
    serve.add_argument("--tenant-rate", type=float, default=50.0,
                       help="per-tenant token-bucket refill, req/s")
    serve.add_argument("--tenant-burst", type=float, default=100.0,
                       help="per-tenant token-bucket capacity")
    serve.add_argument("--tenant-max-blocks", type=int, default=None,
                       metavar="N",
                       help="per-tenant cumulative block budget")
    serve.add_argument("--max-request-blocks", type=int,
                       default=10_000, metavar="N",
                       help="largest admissible single request")
    serve.add_argument("--block-wall", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-block wall-clock cap (tightened to "
                            "each request's remaining deadline)")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="deadline applied to requests that carry "
                            "none")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="SECONDS",
                       help="SIGTERM drain grace before in-flight "
                            "requests shed their remainder")
    serve.add_argument("--drain-force", type=float, default=10.0,
                       metavar="SECONDS",
                       help="hard backstop after the forced shed: "
                            "requests still wedged are abandoned "
                            "(reported, exit 1) so drain always "
                            "terminates")
    serve.add_argument("--cache-entries", type=int, default=512,
                       metavar="N",
                       help="LRU cap for each per-thread warm "
                            "dependence cache")
    serve.add_argument("--chain", default=None, metavar="B1,B2,...",
                       help="default builder fallback chain")
    serve.add_argument("--breaker", action="store_true",
                       help="share a per-builder circuit breaker "
                            "across requests (outcome-changing, "
                            "opt-in)")
    serve.add_argument("--worker-mem-mb", type=int, default=None,
                       metavar="MB",
                       help="per-worker address-space ceiling for "
                            "jobs >= 2 (RLIMIT_AS; OOM deaths are "
                            "attributed crashes)")
    serve.add_argument("--quarantine-dir", default=None, metavar="DIR",
                       help="reproducer directory for jobs >= 2")
    serve.add_argument("--wal-dir", default=None, metavar="DIR",
                       help="durability directory: every admitted "
                            "request is fsynced to a write-ahead log "
                            "here before it is acknowledged, warm "
                            "state is snapshotted atomically, and a "
                            "restarted daemon replays acknowledged-"
                            "but-unfinished work and dedups finished "
                            "idempotency keys (see docs/durability.md)")
    serve.add_argument("--telemetry", default=None, metavar="ADDR",
                       help="also expose a loopback-only HTTP "
                            "telemetry endpoint (GET /metrics in "
                            "Prometheus text exposition format, "
                            "GET /healthz) at HOST:PORT or PORT; "
                            "implies a live metrics registry")
    serve.add_argument("--no-overload", action="store_true",
                       help="disable the adaptive overload ladder "
                            "(pressure sentinel + degradation "
                            "levels; see docs/overload.md)")
    serve.add_argument("--rss-budget-mb", type=float, default=None,
                       metavar="MB",
                       help="RSS pressure budget for the overload "
                            "ladder (unset: RSS is not a pressure "
                            "signal)")
    serve.add_argument("--priority-tenant", action="append",
                       default=None, metavar="TENANT",
                       help="tenant kept flowing at degradation "
                            "level L3 (repeatable; tenants named "
                            "'priority*' are priority class by "
                            "convention)")
    serve.add_argument("--supervised", action="store_true",
                       help="run under a self-healing parent that "
                            "restarts a crashed daemon with "
                            "exponential backoff (pair with --wal-dir "
                            "so restarts lose nothing); a crash loop "
                            "stops with a typed error instead of "
                            "flapping")
    serve.add_argument("--max-restarts", type=int, default=5,
                       metavar="N",
                       help="(--supervised) unexpected exits "
                            "tolerated inside --restart-window before "
                            "declaring a crash loop")
    serve.add_argument("--restart-window", type=float, default=60.0,
                       metavar="SECONDS",
                       help="(--supervised) sliding window for the "
                            "crash-loop count")
    serve.set_defaults(handler=_cmd_serve)

    fsck = sub.add_parser("fsck",
                          help="scan run journals, serve WALs, and "
                               "warm-state snapshots for damage; "
                               "classify it (torn tail vs CRC "
                               "mismatch vs truncated frame) and "
                               "repair what is safely repairable")
    fsck.add_argument("paths", nargs="+", metavar="PATH",
                      help="journal/WAL/snapshot files or directories "
                           "containing them")
    fsck.add_argument("--repair", action="store_true",
                      help="write a '.repaired' copy (good prefix "
                           "up to the torn tail) next to every "
                           "repairable file; originals are never "
                           "modified")
    fsck.set_defaults(handler=_cmd_fsck)

    loadtest = sub.add_parser("loadtest", parents=[obs_flags],
                              help="seeded load generator against a "
                                   "running serve daemon: p50/p99 "
                                   "latency, throughput, shed rate, "
                                   "and error-budget report")
    loadtest.add_argument("--address", default="unix:repro.sock",
                          help="daemon address to connect to")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="mix seed (fixes the whole workload)")
    loadtest.add_argument("--requests", type=int, default=40,
                          help="schedule requests to send")
    loadtest.add_argument("--concurrency", type=int, default=8,
                          help="parallel client connections")
    loadtest.add_argument("--tenants", type=int, default=2,
                          help="distinct tenants to spread over")
    loadtest.add_argument("--copies-max", type=int, default=4,
                          help="request size knob (blocks/request)")
    loadtest.add_argument("--deadline", type=float, default=10.0,
                          metavar="SECONDS",
                          help="deadline carried by deadlined "
                               "requests")
    loadtest.add_argument("--deadline-fraction", type=float,
                          default=0.5,
                          help="fraction of requests carrying a "
                               "deadline")
    loadtest.add_argument("--machine", choices=sorted(MACHINES),
                          default="generic", help="timing model")
    loadtest.add_argument("--quick", action="store_true",
                          help="small mix (CI smoke mode)")
    loadtest.add_argument("--idempotency-retry", type=float,
                          default=0.0, metavar="FRACTION",
                          help="after the mix settles, resend this "
                               "seeded fraction of requests with "
                               "their original idempotency keys; "
                               "every resend must be answered from "
                               "the WAL result store (duplicate-"
                               "result rate must be exactly 0, else "
                               "exit 1).  Requires the daemon to run "
                               "with --wal-dir")
    loadtest.add_argument("--storm", action="store_true",
                          help="overload storm mode: flood the "
                               "daemon with mixed-priority traffic "
                               "and report SLOs split by priority "
                               "class plus the degradation-ladder "
                               "trajectory (max level, transitions, "
                               "recovery to L0; non-recovery exits "
                               "1)")
    loadtest.set_defaults(handler=_cmd_loadtest)

    top = sub.add_parser("top",
                         help="live terminal dashboard over a running "
                              "serve daemon: sliding-window p50/p99, "
                              "occupancy, shed/reject rates, per-"
                              "thread warm caches")
    top.add_argument("--address", default="unix:repro.sock",
                     help="daemon address to poll")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS", help="refresh period")
    top.add_argument("--once", action="store_true",
                     help="print a single panel and exit (for CI "
                          "smoke and scripting)")
    top.set_defaults(handler=_cmd_top)
    return parser


def main(argv: list[str] | None = None,
         out: Callable[[str], None] = print) -> int:
    """CLI entry point.

    Args:
        argv: argument vector (None = ``sys.argv[1:]``).
        out: line sink, injectable for tests.

    Returns:
        Process exit status.
    """
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw_argv)
    # The supervised serve path re-execs the daemon with these tokens
    # (minus the supervision flags); parsed Namespaces cannot be
    # turned back into argv faithfully, so keep the original.
    args._argv = raw_argv
    try:
        return args.handler(args, out)
    except ReproError as exc:
        out(f"repro: error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
