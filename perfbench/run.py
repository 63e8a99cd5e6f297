"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fpppp-giant --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics (0 for a layer the workload does
not run).  Diagnostics -- input fingerprint, output-check tallies,
host probe -- go to the lines before the result.  The exit status is
0 only when every output check passed; a checkout without the
``repro`` sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BATCH_WORKLOADS = ("fpppp-giant", "int-verify")
SERVE_WORKLOADS = ("serve-durable",)


def _metric_specs() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=BATCH_WORKLOADS + SERVE_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_specs()
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")

    # Scratch space stays inside the checkout, and relative, so the
    # serve daemon's unix socket path stays short.
    tmp = os.path.join(".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.workload in BATCH_WORKLOADS:
            import batchrun
            result = batchrun.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT, tmp, env)
        else:
            import serverun
            result = serverun.run(args.seed, args.seconds,
                                  bool(args.trace), ROOT, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass  # another run still uses it
    if result is None:  # an invalid serve run is not reported
        return 3

    for line in result["info"]:
        print(f"# {args.workload}: {line}")
    if args.trace:
        values = {spec["name"]: result["layers"].get(spec["name"], 0)
                  for spec in per_layer}
        specs = per_layer
    else:
        values = {spec["name"]: result["e2e"][spec["name"]]
                  for spec in end_to_end}
        specs = end_to_end
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in specs}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
