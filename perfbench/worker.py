"""One benchmark process: the set-up probe, or the timed passes of a workload.

``run.py`` starts this file in a fresh interpreter, either as
``worker.py --setup <config>`` (one set-up measurement, printed as JSON) or as
``worker.py <job.json>`` (the passes; the result is written to the path the
job names). Only the standard library is imported at module level, so the
set-up probe times the package import itself.
"""

import hashlib
import json
import os
import resource
import sys
import time

ARTIFACTS = ("metrics.txt", "artifacts.npz")


# Seconds the calibration kernel takes on the reference machine, a 2-core
# x86-64 VM. Each pass time is scaled by CAL_REFERENCE_S over the mean kernel
# time measured around it, so timings read as seconds at the reference speed.
CAL_REFERENCE_S = 0.04


def calibrate(repeats=200):
    """Seconds for a fixed numpy kernel shaped like the pipeline's inner loop.

    Forward, backward and an Adam update of a 14-128-64-10 ReLU MLP on one
    64-row batch, written here rather than taken from mvclust so that no change
    to the package can move it. Timed next to every pass, it tells how fast the
    machine is running right then: on shared machines that drifts by tens of
    percent within minutes, and dividing it out keeps the drift out of the
    timings.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    widths = (14, 128, 64, 10)
    weights = [0.1 * rng.standard_normal(shape) for shape in zip(widths[:-1], widths[1:])]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in weights]
    x = rng.standard_normal((64, widths[0]))
    target = rng.standard_normal((64, widths[-1]))

    def step():
        acts = [x]
        for w in weights[:-1]:
            acts.append(np.maximum(acts[-1] @ w, 0.0))
        delta = acts[-1] @ weights[-1] - target
        for layer in range(len(weights) - 1, -1, -1):
            grad = acts[layer].T @ delta
            if layer:
                delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
            m, v = moments[layer]
            m *= 0.5
            m += 0.5 * grad
            v *= 0.99
            v += 0.01 * grad * grad
            weights[layer] -= 1e-4 * m / (np.sqrt(v) + 1e-8)

    step()  # first-call costs are not the machine's speed
    started = time.perf_counter()
    for _ in range(repeats):
        step()
    return time.perf_counter() - started


def setup_probe(config_path):
    """Seconds for a fresh process to import mvclust, load the config and
    load the dataset it names; then the calibration kernel's seconds."""
    started = time.perf_counter()
    from mvclust.data import load_manifest
    from mvclust.pipeline import load_config

    load_manifest(load_config(config_path).manifest)
    return time.perf_counter() - started, calibrate()


# --- output checks ------------------------------------------------------------

def _accuracy(pred, truth):
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return table[rows, cols].sum() / len(pred)


def _nmi(pred, truth):
    import numpy as np

    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    joint = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(joint, (p, t), 1.0 / len(pred))
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    h_p = -(pp * np.log(pp)).sum()
    h_t = -(pt * np.log(pt)).sum()
    if h_p == 0.0 or h_t == 0.0:
        return float(joint.shape[0] == joint.shape[1] and _accuracy(pred, truth) == 1.0)
    nz = joint > 0
    mi = (joint[nz] * np.log(joint[nz] / np.outer(pp, pt)[nz])).sum()
    return mi / np.sqrt(h_p * h_t)


def check_run(out_dir, labels, clusters):
    """Validate one run's outputs. Returns (problems, acc, nmi, digest).

    The embedding must be finite with one row per sample, every predicted
    cluster in range, and the ACC/NMI in metrics.txt must match values
    recomputed here from the predicted clusters and the true labels.
    """
    import zipfile

    import numpy as np

    digest = hashlib.sha256()
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return [f"{name} missing"], None, None, None
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        with np.load(os.path.join(out_dir, "artifacts.npz")) as art:
            z, pred = art["z"], art["predicted"]
        with open(os.path.join(out_dir, "metrics.txt")) as fh:
            reported = {key.strip(): float(value) for key, _, value in
                        (line.partition("=") for line in fh if line.strip())}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        return [f"unreadable outputs: {exc}"], None, None, None
    if z.ndim != 2 or z.shape[0] != len(labels) or not np.all(np.isfinite(z)):
        return [f"embedding of shape {z.shape} is not finite with one row per sample"], \
            None, None, None
    if pred.shape != labels.shape or pred.min() < 0 or pred.max() >= clusters:
        return ["predicted clusters out of range"], None, None, None
    acc, nmi = _accuracy(pred, labels), _nmi(pred, labels)
    problems = [f"metrics.txt {key} = {reported.get(key)}, recomputed {value:.12f}"
                for key, value in (("acc", acc), ("nmi", nmi))
                if key not in reported or abs(reported[key] - value) > 1e-9]
    return problems, acc, nmi, digest.hexdigest()


# --- timed passes -------------------------------------------------------------

class Outcome:
    """Everything the passes produce: times, run counts, quality and digests."""

    def __init__(self, n_datasets):
        # per kind of pass, per dataset: pass times at reference speed, and raw
        self.times = {kind: [[] for _ in range(n_datasets)] for kind in ("untraced", "traced")}
        self.raw = {kind: [[] for _ in range(n_datasets)] for kind in ("untraced", "traced")}
        self.calibrations = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.acc = {}      # (dataset, run index) -> ACC of the first checked pass
        self.nmi = {}
        self.digests = {}  # (dataset, run index) -> digest of the first pass

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def _one_pass(pipeline, workload, cfg, k, labels, clusters, outcome):
    """Run the workload's pipeline call on dataset ``k``, then check it.

    Returns the pass's wall time, or None if any of its runs failed.
    """
    runs = len(pipeline.VARIANTS) if workload.ablate else 1
    outcome.attempted += runs
    started = time.perf_counter()
    try:
        if workload.ablate:
            reports = list(pipeline.ablate(cfg).values())
        else:
            reports = [pipeline.run(cfg)]
    except Exception as exc:  # a failed run is counted, not fatal
        outcome.fail(runs, f"dataset {k}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - started
    ok = True
    for r, report in enumerate(reports):
        problems, acc, nmi, digest = check_run(report.out_dir, labels, clusters)
        key = (k, r)
        if not problems:
            expected = outcome.digests.setdefault(key, digest)
            if digest != expected:
                problems.append("outputs differ from the first pass on this dataset")
        if problems:
            outcome.fail(1, f"dataset {k} run {r}: {'; '.join(problems)}")
            ok = False
            continue
        outcome.acc.setdefault(key, acc)
        outcome.nmi.setdefault(key, nmi)
    return elapsed if ok else None


def run_passes(job):
    """Warm up on dataset 0, then time passes over the datasets in order,
    cycling, until every dataset ran once and ``seconds`` have elapsed.
    With ``trace`` each dataset's untraced pass is followed by a traced one.
    The calibration kernel runs before the first pass and after every pass."""
    import numpy as np

    from mvclust import pipeline

    import envinfo
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    configs = [pipeline.load_config(path) for path in job["configs"]]
    labels = [np.loadtxt(os.path.join(os.path.dirname(c.manifest), "labels.csv"), dtype=int)
              for c in configs]
    clusters = [len(np.unique(lab)) for lab in labels]
    outcome = Outcome(len(configs))

    def timed(kind, k):
        if kind == "traced":
            with tracing.instrument(tracer):
                t = _one_pass(pipeline, workload, configs[k], k, labels[k], clusters[k],
                              outcome)
        else:
            t = _one_pass(pipeline, workload, configs[k], k, labels[k], clusters[k], outcome)
        after = calibrate()
        if t is not None:
            speed = (outcome.calibrations[-1] + after) / 2.0  # the kernel runs around the pass
            outcome.raw[kind][k].append(t)
            outcome.times[kind][k].append(t * CAL_REFERENCE_S / speed)
        outcome.calibrations.append(after)

    # The warm-up pass is also the peak memory of a fresh process running one pass.
    _one_pass(pipeline, workload, configs[0], 0, labels[0], clusters[0], outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
    outcome.calibrations.append(calibrate())
    deadline = time.perf_counter() + job["seconds"]
    passes = 0
    while passes < len(configs) or time.perf_counter() < deadline:
        k = passes % len(configs)
        timed("untraced", k)
        if tracer is not None:
            timed("traced", k)
        passes += 1

    result = {
        "untraced": outcome.times["untraced"],
        "traced": outcome.times["traced"],
        "untraced_raw": outcome.raw["untraced"],
        "traced_raw": outcome.raw["traced"],
        "calibration_s": outcome.calibrations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "acc": list(outcome.acc.values()),
        "nmi": list(outcome.nmi.values()),
        "peak_rss_mb": peak_rss_mb,
        "env": envinfo.process_info(),
    }
    if tracer is not None:
        traced_passes = sum(len(t) for t in outcome.times["traced"])
        result["layers"] = tracing.layer_metrics(tracer, max(traced_passes, 1))
        tracer.write(job["spans"])
    return result


def main(argv):
    if len(argv) == 2 and argv[0] == "--setup":
        setup_s, calibration_s = setup_probe(argv[1])
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))
        return 0
    if len(argv) != 1:
        print("usage: worker.py --setup CONFIG | worker.py JOB.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        job = json.load(fh)
    result = run_passes(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
