"""Small measurement helpers shared by the batch and serve drivers."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

#: iterations of the fixed pure-Python host probe loop
_PROBE_LOOP = 1_000_000


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``math.inf`` entries count as misses."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def host_probe(rounds: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop.

    Timed before and after every workload, so a slow or noisy host
    shows up next to the numbers it distorted.
    """
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(_PROBE_LOOP):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def own_peak_rss_mb() -> float:
    """This process's peak resident set size, MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set size (VmHWM), MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def pid_cpu_s(pid: int) -> tuple[float, float]:
    """Another live process's (user, system) CPU seconds, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # utime and stime are fields 14 and 15; the fields after the
        # parenthesised command name start at field 3.
        fields = handle.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick
