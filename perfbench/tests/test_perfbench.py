"""Tests of the benchmark's own code. Run: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import tracing
import worker
from conftest import BENCH, ROOT
from workloads import WORKLOADS, write_inputs


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- self time ------------------------------------------------------------------

def test_self_time_on_hand_built_tree():
    names = ["root", "a", "b", "leaf"]
    # [name_id, start, end, parent, run_id]
    spans = [
        [0, 0.0, 10.0, -1, 0],   # root: children a [1,4] and b [3,6] overlap -> cover 5
        [1, 1.0, 4.0, 0, 0],     # a: child leaf [2,3] -> self 2
        [2, 3.0, 6.0, 0, 0],     # b: no children -> self 3
        [3, 2.0, 3.0, 1, 0],     # leaf
        [1, 7.0, 12.0, 0, 0],    # a again, overhangs root's end: counts 7..10 for root
    ]
    stats = tracing.summarize(names, spans)
    assert stats["root"] == [1, 10.0, pytest.approx(10.0 - 5.0 - 3.0)]
    assert stats["a"] == [2, 8.0, pytest.approx(2.0 + 5.0)]
    assert stats["b"] == [1, 3.0, 3.0]
    assert stats["leaf"] == [1, 1.0, 1.0]


def test_self_time_of_tracer_spans_sum_to_root():
    tracer = tracing.Tracer()
    outer = tracer.enter("x.outer")
    for _ in range(3):
        inner = tracer.enter("x.inner")
        tracer.exit(inner, "x.inner")
    tracer.exit(outer, "x.outer")
    stats = tracing.summarize(tracer.names, tracer.spans)
    total_self = sum(entry[2] for entry in stats.values())
    assert total_self == pytest.approx(stats["x.outer"][1])
    assert stats["x.inner"][0] == 3
    assert all(span[3] == outer for span in tracer.spans[1:])


# --- patching -------------------------------------------------------------------

def _smoke_configs(tmp_path, seed=0):
    from mvclust import pipeline

    paths = write_inputs(WORKLOADS["smoke"], seed, str(tmp_path))
    return [pipeline.load_config(p) for p in paths]


def test_every_wrapped_attribute_is_restored(tmp_path):
    import importlib

    from mvclust import pipeline

    tracer = tracing.Tracer()
    targets = [(importlib.import_module(f"mvclust.{module}"), attr)
               for module, attr, _ in tracing._patches(tracer)]
    originals = [getattr(module, attr) for module, attr in targets]
    cfg = _smoke_configs(tmp_path)[0]
    with tracing.instrument(tracer):
        assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
        pipeline.ablate(cfg)
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))
    stats = tracing.summarize(tracer.names, tracer.spans)
    assert stats["pipeline.run"][0] == len(pipeline.VARIANTS)
    assert stats["nets.mlp_forward.enc"][0] > 0
    assert "nets.mlp_forward.other" not in stats
    assert {span[4] for span in tracer.spans} >= set(range(len(pipeline.VARIANTS)))


def test_patches_are_restored_when_the_run_raises(tmp_path):
    from mvclust import network, pipeline

    original = network.train
    cfg = _smoke_configs(tmp_path)[0]
    cfg.network["epochs"] = 0   # PaceSchedule rejects this inside the run
    with pytest.raises(Exception):
        with tracing.instrument(tracing.Tracer()):
            pipeline.run(cfg)
    assert network.train is original


def test_traced_outputs_hash_like_untraced(tmp_path):
    from mvclust import pipeline

    cfg = _smoke_configs(tmp_path)[0]
    labels = np.loadtxt(os.path.join(os.path.dirname(cfg.manifest), "labels.csv"), dtype=int)
    report = pipeline.run(cfg)
    _, _, _, plain = worker.check_run(report.out_dir, labels, 3)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        report = pipeline.run(cfg)
    problems, _, _, traced = worker.check_run(report.out_dir, labels, 3)
    assert not problems and traced == plain
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["pipeline.run.calls"] == (1.0, "count")
    assert metrics["network.disc_backward_per_adv"][0] == pytest.approx(3.0)


# --- output check -----------------------------------------------------------------

def test_check_run_rejects_a_wrong_metrics_file(tmp_path):
    from mvclust import pipeline

    cfg = _smoke_configs(tmp_path)[0]
    labels = np.loadtxt(os.path.join(os.path.dirname(cfg.manifest), "labels.csv"), dtype=int)
    report = pipeline.run(cfg)
    problems, acc, _, _ = worker.check_run(report.out_dir, labels, 3)
    assert not problems and 0.0 <= acc <= 1.0
    path = os.path.join(report.out_dir, "metrics.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("acc = ")
    lines[0] = f"acc = {acc - 0.01:.12f}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    problems, _, _, _ = worker.check_run(report.out_dir, labels, 3)
    assert problems


# --- metrics ------------------------------------------------------------------------

def test_end_to_end_metrics_from_worker_result():
    import run

    result = {
        "untraced": [[1.0, 3.0], [4.0], []],        # per dataset, calibrated
        "untraced_raw": [[2.0, 6.0], [8.0], []],
        "acc": [0.5, 1.0], "nmi": [0.25, 0.75], "peak_rss_mb": 80.0, "errors": [],
    }
    ref = worker.CAL_REFERENCE_S
    probes = [(0.5, ref), (1.0, 2 * ref), (0.9, ref)]  # (raw seconds, kernel seconds)
    metrics = run.end_to_end(result, probes)
    assert metrics["run_s"][:2] == (3.0, "s")         # mean of medians 2.0 and 4.0
    assert metrics["setup_s"][0] == pytest.approx(0.5)  # median of 0.5, 0.5, 0.9
    assert metrics["acc"][0] == 0.75 and metrics["nmi"][0] == 0.5
    with pytest.raises(run.BenchError):
        run.end_to_end({**result, "untraced": [[], [], []]}, probes)


# --- compare ------------------------------------------------------------------------

def test_verdicts():
    base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(base, dict(base), 0.1, True) == "same"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, 0.1, True) == "worse"
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, 0.1, True) == "better"
    # higher-is-better metrics flip the direction
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, 0.1, False) == "worse"
    noisy = {s: 5.0 + 10.0 * (s % 2) for s in range(10)}
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"


# --- end to end -----------------------------------------------------------------------

def _run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, os.path.join(bench, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload_end_to_end(trace):
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    paths_a = write_inputs(WORKLOADS["smoke"], 5, str(tmp_path / "a"))
    paths_b = write_inputs(WORKLOADS["smoke"], 5, str(tmp_path / "b"))
    paths_c = write_inputs(WORKLOADS["smoke"], 6, str(tmp_path / "c"))

    def view(paths):
        with open(os.path.join(os.path.dirname(paths[0]), "data", "view0.csv")) as fh:
            return fh.read()
    assert view(paths_a) == view(paths_b) != view(paths_c)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, bench=str(tmp_path / "perfbench"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
