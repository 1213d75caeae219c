"""Benchmark workloads: seeded synthetic datasets plus the pipeline call they get.

A workload's cost depends strongly on its data. The anchor sample alone can
change the reconciler's pair count three-fold and move the epoch at which the
gate opens, so a single dataset per run makes the timing a lottery over seeds.
Each run therefore generates ``datasets`` independent datasets from its seed,
runs every one of them at least once, and reports the mean over them, so the
per-dataset spread is averaged down by the square root of that count and a
seed always covers the same datasets. The counts are sized so that one cycle
over them takes about 20 seconds at the reference machine speed.

Only the standard library is imported here, so ``run.py`` can load the
definitions before it has located the package under test.
"""

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: int        # datasets generated per run, each from its own sub-seed
    synth: dict          # keyword arguments of mvclust.data.make_synthetic
    config: dict         # config-file sections, {section: {key: value}}
    ablate: bool         # True: pipeline.ablate over every variant; False: pipeline.run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ablate300",
            why="criterion-8 noisy data through ablate over all five variants: "
                "the only NONE/CS/CS+GS branches and best-view k-means; small "
                "batches and per-run costs dominate",
            datasets=24,
            synth=dict(clusters=3, samples=300, views=2, noise=0.2,
                       outlier_fraction=0.25, outlier_scale=6.0),
            config={"reconcile": {"epochs": 3},
                    "network": {"epochs": 8, "hidden": "64,32",
                                "latent_width": 8, "learning_rate": 1e-3}},
            ablate=True,
        ),
        Workload(
            name="full3000",
            why="3000 samples, 2 views, FULL: full 64-row batches, so the AE/GAN "
                "path and full-size nets matmuls dominate; few, wide views",
            datasets=18,
            synth=dict(clusters=5, samples=3000, views=2, noise=0.1,
                       outlier_fraction=0.1),
            config={"reconcile": {"epochs": 2},
                    "network": {"epochs": 5, "hidden": "128,64",
                                "latent_width": 10, "learning_rate": 1e-3}},
            ablate=False,
        ),
        Workload(
            name="wide6v",
            why="six views shaped like handwritten digits, FULL: the reconciler "
                "over 15 view pairs dominates, with tiny per-pair-group batches "
                "and a V-squared open-gate re-encode",
            datasets=36,
            synth=dict(clusters=10, samples=100, views=6, noise=0.1,
                       view_dims=[216, 76, 64, 6, 240, 47]),
            config={"reconcile": {"epochs": 2},
                    "network": {"epochs": 4, "hidden": "128,64",
                                "latent_width": 10, "learning_rate": 1e-3}},
            ablate=False,
        ),
        # Not part of BENCHMARK.json: a seconds-long workload for the tests.
        Workload(
            name="smoke",
            why="tiny end-to-end run for the benchmark's own tests",
            datasets=2,
            synth=dict(clusters=3, samples=60, views=2, noise=0.1),
            config={"reconcile": {"epochs": 1},
                    "network": {"epochs": 3, "hidden": "16",
                                "latent_width": 4, "learning_rate": 1e-3}},
            ablate=True,
        ),
    )
}


def dataset_seeds(seed, count):
    """``count`` distinct 31-bit sub-seeds derived from the run's seed."""
    import numpy as np

    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def write_inputs(workload, seed, work_dir):
    """Generate the run's datasets and one config file per dataset.

    Returns the config paths. The program sees only these files.
    """
    from mvclust.data import make_synthetic

    configs = []
    for k, sub_seed in enumerate(dataset_seeds(seed, workload.datasets)):
        ds_dir = os.path.join(work_dir, f"ds{k:02d}")
        manifest = make_synthetic(os.path.join(ds_dir, "data"), seed=sub_seed,
                                  **workload.synth)
        sections = {"experiment": {"manifest": manifest,
                                   "out": os.path.join(ds_dir, "out"),
                                   "seed": sub_seed}}
        sections.update(workload.config)
        path = os.path.join(ds_dir, "run.cfg")
        with open(path, "w") as fh:
            for section, values in sections.items():
                fh.write(f"[{section}]\n")
                for key, value in values.items():
                    fh.write(f"{key} = {value}\n")
        configs.append(path)
    return configs
