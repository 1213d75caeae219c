"""Run the benchmark over several seeds and workloads, recording every result.

    python3 perfbench/sweep.py --seeds 1-10 --record perfbench/results/base.jsonl
    python3 perfbench/sweep.py --workloads wide6v --seeds 3,5 --trace 1 --record t.jsonl

Each run is a separate ``run.py`` process; its metric table is echoed and its
full record appended to ``--record``. Summarise or compare the file with
``compare.py``. Seconds default to ``run_seconds`` from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--record", args.record]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            print(f"== {workload} seed={seed} trace={args.trace} exit={proc.returncode} "
                  f"wall={time.monotonic() - started:.1f}s\n", flush=True)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    return status


if __name__ == "__main__":
    sys.exit(main())
