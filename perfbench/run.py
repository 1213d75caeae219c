"""Run one benchmark workload on one seed and report its metrics.

    python3 perfbench/run.py --workload ablate300 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
The run generates its datasets from the seed, then

* ``--trace 0``: times ``setup_s`` in fresh processes, and runs the timed
  passes untraced in one fresh worker process (end-to-end metrics);
* ``--trace 1``: runs each dataset untraced and then traced in one worker
  (per-layer metrics and the tracing overhead).

Every pass's outputs are checked (see ``worker.check_run``) and must hash
identically to the first pass on the same dataset, traced or not. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--record FILE`` also appends the
full result, with its environment, to a JSON-lines file for ``compare.py``.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import envinfo  # noqa: E402  (sibling modules, importable from HERE)
from worker import CAL_REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_PROBES = 5          # timed set-up probes per run, after one discarded warm-up
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 100      # worker timeout beyond --seconds


class BenchError(Exception):
    """The benchmark could not run; reported without a result line."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in envinfo.THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(config_path):
    """SETUP_PROBES fresh-process set-up times (after one discarded warm-up),
    as (raw seconds, calibration kernel seconds in the same process)."""
    probes = [json.loads(_run_child(["--setup", config_path], PROBE_TIMEOUT_S))
              for _ in range(SETUP_PROBES + 1)]
    return [(p["setup_s"], p["calibration_s"]) for p in probes[1:]]


def run_worker(job_dir, workload, configs, seconds, trace, spans_path):
    job = {"workload": workload.name, "configs": configs, "seconds": seconds,
           "trace": trace, "result": os.path.join(job_dir, "result.json"), "spans": spans_path}
    job_path = os.path.join(job_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    _run_child([job_path], seconds + WORKER_GRACE_S)
    with open(job["result"]) as fh:
        return json.load(fh)


def per_dataset_medians(times):
    return [statistics.median(t) for t in times if t]


def end_to_end(result, setup_probes):
    """End-to-end metrics and their sample notes, from an untraced worker.

    Times are at the reference machine speed (see worker.calibrate); the notes
    give the raw wall times next to them.
    """
    medians = per_dataset_medians(result["untraced"])
    if not medians or not result["acc"]:
        raise BenchError("no pass succeeded; errors: " + "; ".join(result["errors"][:3]))
    passes = sum(len(t) for t in result["untraced"])
    raw = statistics.fmean(per_dataset_medians(result["untraced_raw"]))
    setup = [s * CAL_REFERENCE_S / c for s, c in setup_probes]
    raw_setup = statistics.median(s for s, _ in setup_probes)
    metrics = {
        "run_s": (statistics.fmean(medians), "s",
                  f"{passes} passes over {len(medians)} datasets; mean of per-dataset "
                  f"medians, min {min(medians):.3f} max {max(medians):.3f}; "
                  f"raw wall {raw:.4f}"),
        "setup_s": (statistics.median(setup), "s",
                    f"{len(setup)} fresh processes; median, min {min(setup):.3f} "
                    f"max {max(setup):.3f}; raw wall {raw_setup:.4f}"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", "1 fresh process running one pass"),
        "acc": (statistics.fmean(result["acc"]), "fraction",
                f"mean over {len(result['acc'])} runs"),
        "nmi": (statistics.fmean(result["nmi"]), "fraction",
                f"mean over {len(result['nmi'])} runs"),
    }
    return metrics


def trace_overhead(result):
    """Mean over datasets of (median traced - median untraced) pass time."""
    pairs = [(statistics.median(t), statistics.median(u))
             for t, u in zip(result["traced"], result["untraced"]) if t and u]
    if not pairs:
        raise BenchError("no dataset has both a traced and an untraced pass")
    traced = statistics.fmean(p[0] for p in pairs)
    untraced = statistics.fmean(p[1] for p in pairs)
    return traced - untraced, (traced - untraced) / untraced


def per_layer(result):
    overhead_s, overhead_share = trace_overhead(result)
    passes = sum(len(t) for t in result["traced"])
    metrics = {name: (value, unit, f"per pass, {passes} traced passes")
               for name, (value, unit) in result["layers"].items()}
    metrics["trace.overhead_s"] = (overhead_s, "s", "traced minus untraced pass time")
    metrics["trace.overhead_share"] = (overhead_share, "fraction", "of the untraced pass time")
    return metrics


def print_table(header, metrics, attempted, failed):
    print(header)
    print(f"  {'metric':<40} {'value':>14}  {'unit':<8} note")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g}  {unit:<8} {note}")
    rate = failed / attempted if attempted else 1.0
    print(f"  {'fail_rate':<40} {rate:>14.6g}  {'fraction':<8} {failed} failed of "
          f"{attempted} pipeline runs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    return parser.parse_args(argv)


def bench(args):
    if not os.path.isfile(os.path.join(SRC, "mvclust", "__init__.py")):
        raise BenchError(f"no package source at {os.path.relpath(SRC)}/mvclust; "
                         "run from the root of an mvclust source tree")
    sys.path.insert(0, SRC)
    import mvclust
    if os.path.dirname(os.path.abspath(mvclust.__file__)) != os.path.join(SRC, "mvclust"):
        raise BenchError(f"imported mvclust from {mvclust.__file__}, not from src/")

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{workload.name}-s{args.seed}-t{args.trace}")
    spans_path = os.path.join(WORK, "spans", f"{workload.name}-s{args.seed}.npz")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    try:
        configs = write_inputs(workload, args.seed, run_dir)
        setup_probes = [] if args.trace else measure_setup(configs[0])
        result = run_worker(run_dir, workload, configs, args.seconds, args.trace, spans_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_probes)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "datasets": len(configs),
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
        "untraced_s": result["untraced"], "traced_s": result["traced"],
        "untraced_raw_s": result["untraced_raw"], "traced_raw_s": result["traced_raw"],
        "calibration_s": result["calibration_s"], "setup_probes_s": setup_probes,
        "errors": result["errors"],
        "env": {**envinfo.host_info(ROOT), **result["env"], "seed": args.seed},
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    print_table(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
                f"seconds={args.seconds}: {workload.why}",
                metrics, result["attempted"], result["failed"])
    print("  env " + json.dumps(record["env"], sort_keys=True))
    for error in result["errors"]:
        print(f"  error: {error}")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None):
    args = parse_args(argv)
    try:
        line = bench(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
