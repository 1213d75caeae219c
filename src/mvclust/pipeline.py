"""Config-driven experiment runner wiring all stages together.

A run loads a dataset manifest, builds anchor partitions and difficulty
labels, optionally reconciles them adversarially, computes sampling
probabilities, trains the multi-view network under the requested variant,
then clusters the common subspace and reports ACC/NMI/Purity.

Variants (ablation switches):
  NONE    no reconciliation, no sampling, gate forced open from epoch 0
  CS      sampling from the single best view's labels, gate forced open
  CS+GS   as CS plus the golden-section gate
  AIS+CS  reconciliation + sampling, gate forced open
  FULL    everything
"""

import configparser
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import cluster as clu
from . import data as dat
from . import difficulty as dif
from . import network as net
from . import sampling as smp
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

VARIANTS = ("NONE", "CS", "CS+GS", "AIS+CS", "FULL")

_DEFAULTS = {
    "experiment": {
        "manifest": None,       # required
        "seed": 0,
        "variant": "FULL",
        "clusters": 0,          # 0 => infer from labels
        "out": "run_out",
    },
    "data": {
        "k_neighbors": 0,       # 0 => n // 2
        "mu": net.GOLDEN_SECTION,
    },
    "reconcile": {
        "epochs": 100,
        "batch_size": 32,
        "t_steps": 3,
        "margin": 0.05,
        "pseudo_label": 0.5,
        "sim_weight": 0.3,
        "adv_weight": 0.5,
        "embed_width": 32,
        "head_width": 64,
        "learning_rate": 1e-4,
    },
    "network": {
        "epochs": 300,
        "batch_size": 64,
        "latent_width": 10,
        "hidden": "128,64",
        "learning_rate": 1e-4,
        "initial_fraction": 0.05,
        "full_inclusion_fraction": 0.8,
    },
    "clustering": {
        "restarts": 20,
        "max_iter": 100,
    },
}


@dataclass
class ExperimentConfig:
    """Typed view of the config file; every field validated on load."""

    manifest: str
    seed: int
    variant: str
    clusters: int
    out: str
    k_neighbors: int
    mu: float
    reconcile: dict
    network: dict
    clustering: dict

    @property
    def hidden_widths(self):
        return tuple(int(w) for w in str(self.network["hidden"]).split(","))


def _coerce(value, default, name):
    try:
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
    except ValueError:
        raise ConfigError(
            f"{name} must be {type(default).__name__}, got {value!r}") from None
    return value


def load_config(path, overrides=None):
    """Parse a sectioned key-value config file; unknown keys are rejected.

    ``overrides`` maps "section.key" to replacement values (CLI flags).
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    values = {s: dict(d) for s, d in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = _coerce(raw, _DEFAULTS[section][key],
                                           f"{section}.{key}")
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        if section not in _DEFAULTS or key not in _DEFAULTS[section]:
            raise ConfigError(f"unknown override {dotted!r}")
        values[section][key] = _coerce(str(value), _DEFAULTS[section][key], dotted) \
            if _DEFAULTS[section][key] is not None else value
    exp = values["experiment"]
    if not exp["manifest"]:
        raise ConfigError("experiment.manifest is required")
    if exp["variant"] not in VARIANTS:
        raise ConfigError(
            f"unknown variant {exp['variant']!r}; choose from {', '.join(VARIANTS)}"
        )
    base = os.path.dirname(os.path.abspath(path))
    manifest = exp["manifest"]
    if not os.path.isabs(manifest):
        manifest = os.path.join(base, manifest)
    cfg = ExperimentConfig(
        manifest=manifest,
        seed=int(exp["seed"]),
        variant=exp["variant"],
        clusters=int(exp["clusters"]),
        out=exp["out"],
        k_neighbors=int(values["data"]["k_neighbors"]),
        mu=float(values["data"]["mu"]),
        reconcile=values["reconcile"],
        network=values["network"],
        clustering=values["clustering"],
    )
    if not 0.0 < cfg.mu < 1.0:
        raise ConfigError(f"data.mu must be in (0, 1), got {cfg.mu}")
    for section, key in (("network", "epochs"), ("network", "batch_size"),
                         ("network", "latent_width"), ("reconcile", "epochs"),
                         ("reconcile", "batch_size"), ("reconcile", "t_steps"),
                         ("reconcile", "embed_width"), ("reconcile", "head_width"),
                         ("clustering", "restarts"), ("clustering", "max_iter")):
        if int(values[section][key]) < 1:
            raise ConfigError(
                f"{section}.{key} must be >= 1, got {values[section][key]}")
    if not float(cfg.reconcile["margin"]) >= 0.0:
        raise ConfigError(
            f"reconcile.margin must be >= 0, got {cfg.reconcile['margin']}")
    for section, key, bound in (("reconcile", "learning_rate", "> 0"),
                                ("network", "learning_rate", "> 0"),
                                ("reconcile", "sim_weight", ">= 0"),
                                ("reconcile", "adv_weight", ">= 0"),
                                ("reconcile", "pseudo_label", ">= 0")):
        value = float(values[section][key])
        if (not math.isfinite(value) or value < 0.0
                or (value == 0.0 and bound == "> 0")):
            raise ConfigError(
                f"{section}.{key} must be finite and {bound}, got {value}")
    try:
        widths = cfg.hidden_widths
    except ValueError:
        widths = (0,)
    if min(widths) < 1:
        raise ConfigError("network.hidden must be comma-separated widths >= 1, "
                          f"got {cfg.network['hidden']!r}")
    for key in ("initial_fraction", "full_inclusion_fraction"):
        if not 0.0 < float(cfg.network[key]) <= 1.0:
            raise ConfigError(
                f"network.{key} must be in (0, 1], got {cfg.network[key]}")
    return cfg


@dataclass
class RunReport:
    variant: str
    seed: int
    metrics: clu.MetricReport
    wall_clock: float
    out_dir: str
    gate_opened_epoch: int
    n_inconsistent_pairs: int = 0
    best_view: int = -1
    similarity_direction_rate: float = float("nan")
    log_rows: list = field(default_factory=list)


def _pick_best_view(dataset, clusters, seed, restarts, max_iter):
    """The view whose raw features cluster best (needs labels); view 0 otherwise."""
    if dataset.labels is None:
        return 0
    best, best_acc = 0, -1.0
    for i, view in enumerate(dataset.views):
        model = clu.kmeans(view, clusters, max_iter=max_iter, seed=seed,
                           restarts=restarts)
        acc = clu.accuracy(model.assignments, dataset.labels)
        if acc > best_acc:
            best, best_acc = i, acc
    return best


def run(cfg):
    """Execute one experiment; writes reports into cfg.out and returns a RunReport."""
    started = time.time()
    os.makedirs(cfg.out, exist_ok=True)
    dataset = dat.load_manifest(cfg.manifest)
    n = dataset.n
    n_views = dataset.n_views
    clusters = cfg.clusters
    if clusters < 1:
        if dataset.labels is None:
            raise ConfigError(
                "experiment.clusters must be set when the dataset has no labels"
            )
        clusters = len(np.unique(dataset.labels))

    rng = np.random.default_rng(cfg.seed)
    anchor = int(rng.integers(n))  # shared across views
    k = cfg.k_neighbors if cfg.k_neighbors > 0 else n // 2
    partitions = [dat.build_partition(dataset, v, anchor, k)
                  for v in range(n_views)]
    raw_assignment = dif.assignment_from_partitions(partitions, cfg.mu)

    use_ais = cfg.variant in ("AIS+CS", "FULL")
    use_cs = cfg.variant != "NONE"
    use_gate = cfg.variant in ("CS+GS", "FULL")

    n_pairs = 0
    best_view = -1
    sim_rate = float("nan")
    if use_ais:
        pairs = dif.collect_inconsistent(raw_assignment.labels)
        n_pairs = len(pairs)
        if pairs:
            rc = cfg.reconcile
            model = dif.build_reconciler(
                [v.shape[1] for v in dataset.views],
                np.random.default_rng(cfg.seed + 1),
                embed_width=int(rc["embed_width"]),
                head_width=int(rc["head_width"]),
                margin=float(rc["margin"]),
                pseudo_label=float(rc["pseudo_label"]),
                sim_weight=float(rc["sim_weight"]),
                adv_weight=float(rc["adv_weight"]),
                learning_rate=float(rc["learning_rate"]),
            )
            dif.train_reconciler(
                model, dataset, pairs,
                epochs=int(rc["epochs"]),
                batch_size=int(rc["batch_size"]),
                t_steps=int(rc["t_steps"]),
                seed=cfg.seed + 2,
            )
            assignment = dif.resolve_labels(model, dataset, raw_assignment)
            sim_rate = dif.similarity_direction_rate(model, dataset, pairs)
            log.info("similarity direction rate after reconciliation: %.3f",
                     sim_rate)
            dif.export_difficulty(raw_assignment, assignment,
                                  os.path.join(cfg.out, "difficulty.csv"))
        else:
            assignment = raw_assignment
    else:
        assignment = raw_assignment

    epochs = int(cfg.network["epochs"])
    schedule = smp.PaceSchedule(
        max_epochs=epochs,
        initial_fraction=float(cfg.network["initial_fraction"]),
        full_inclusion_epoch_fraction=float(cfg.network["full_inclusion_fraction"]),
    )
    if not use_cs:
        averaged = np.ones(n)
    elif use_ais:
        state = smp.compute_probabilities(assignment, partitions)
        averaged = state.averaged
    else:
        best_view = _pick_best_view(
            dataset, clusters, cfg.seed,
            int(cfg.clustering["restarts"]), int(cfg.clustering["max_iter"]),
        )
        state = smp.compute_probabilities(assignment, partitions)
        averaged = state.per_view[best_view]

    mv_model = net.build_model(
        [v.shape[1] for v in dataset.views],
        int(cfg.network["latent_width"]),
        np.random.default_rng(cfg.seed + 3),
        hidden=cfg.hidden_widths,
    )
    result = net.train(
        mv_model, dataset, averaged, schedule, epochs,
        batch_size=int(cfg.network["batch_size"]),
        learning_rate=float(cfg.network["learning_rate"]),
        seed=cfg.seed + 4,
        force_gate_open=not use_gate,
        log_path=os.path.join(cfg.out, "training_log.csv"),
    )

    km = clu.kmeans(
        result.subspace.z, clusters,
        max_iter=int(cfg.clustering["max_iter"]),
        seed=cfg.seed + 5,
        restarts=int(cfg.clustering["restarts"]),
    )
    np.savez(os.path.join(cfg.out, "artifacts.npz"),
             z=result.subspace.z, predicted=km.assignments,
             objective=np.array([km.objective]))
    net.save_checkpoint(mv_model, os.path.join(cfg.out, "checkpoint.npz"))

    metrics = None
    if dataset.labels is not None:
        metrics = clu.evaluate(km.assignments, dataset.labels)
        clu.write_report(metrics, os.path.join(cfg.out, "metrics.txt"))

    wall = time.time() - started
    _write_run_info(cfg, wall, result, n_pairs, best_view, sim_rate)
    return RunReport(
        variant=cfg.variant,
        seed=cfg.seed,
        metrics=metrics,
        wall_clock=wall,
        out_dir=cfg.out,
        gate_opened_epoch=result.gate_opened_epoch,
        n_inconsistent_pairs=n_pairs,
        best_view=best_view,
        similarity_direction_rate=sim_rate,
        log_rows=result.log_rows,
    )


def _write_run_info(cfg, wall, result, n_pairs, best_view, sim_rate):
    # timing and other non-reproducible context live here, not in metrics.txt
    with open(os.path.join(cfg.out, "run_info.txt"), "w") as fh:
        fh.write(f"variant = {cfg.variant}\n")
        fh.write(f"seed = {cfg.seed}\n")
        fh.write(f"manifest = {cfg.manifest}\n")
        fh.write(f"wall_clock_seconds = {wall:.2f}\n")
        fh.write(f"gate_opened_epoch = {result.gate_opened_epoch}\n")
        fh.write(f"inconsistent_pairs = {n_pairs}\n")
        if best_view >= 0:
            fh.write(f"best_view = {best_view}\n")
        if sim_rate == sim_rate:
            fh.write(f"similarity_direction_rate = {sim_rate:.4f}\n")


def export_embeddings(run_dir, dest=None):
    """Write the common subspace plus predicted labels as a headered CSV."""
    path = os.path.join(run_dir, "artifacts.npz")
    if not os.path.exists(path):
        raise DataError(f"no run artifacts found at {path}")
    data = np.load(path)
    z = data["z"]
    pred = data["predicted"]
    dest = dest or os.path.join(run_dir, "embeddings.csv")
    with open(dest, "w") as fh:
        fh.write(",".join(f"z{i}" for i in range(z.shape[1])) + ",cluster\n")
        for row, c in zip(z, pred):
            fh.write(",".join(f"{v:.12g}" for v in row) + f",{c}\n")
    return dest


def ablate(cfg, variants=VARIANTS):
    """Run several variants off one base config; returns {variant: RunReport}."""
    reports = {}
    base_out = cfg.out
    for variant in variants:
        sub = ExperimentConfig(
            manifest=cfg.manifest, seed=cfg.seed, variant=variant,
            clusters=cfg.clusters,
            out=os.path.join(base_out, variant.replace("+", "_")),
            k_neighbors=cfg.k_neighbors, mu=cfg.mu,
            reconcile=dict(cfg.reconcile), network=dict(cfg.network),
            clustering=dict(cfg.clustering),
        )
        reports[variant] = run(sub)
    summary = os.path.join(base_out, "ablation_summary.txt")
    os.makedirs(base_out, exist_ok=True)
    with open(summary, "w") as fh:
        fh.write("variant  acc     nmi     purity\n")
        for variant, rep in reports.items():
            if rep.metrics:
                fh.write(f"{variant:<8} {rep.metrics.acc:.4f}  "
                         f"{rep.metrics.nmi:.4f}  {rep.metrics.purity:.4f}\n")
            else:
                fh.write(f"{variant:<8} (no labels)\n")
    return reports
