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
from dataclasses import dataclass, field, replace

import numpy as np

from . import cluster as clu
from . import data as dat
from . import difficulty as dif
from . import network as net
from . import sampling as smp
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

VARIANTS = ("NONE", "CS", "CS+GS", "AIS+CS", "FULL")

_VARIANT_RULE = "one of " + ", ".join(VARIANTS)

# Every config key once: section -> key -> (default, rule). The default's type
# is the key's type; a float must also be finite, and every width of the
# tuple-valued network.hidden must meet its rule.
SCHEMA = {
    "experiment": {
        "manifest": ("", "non-empty"),      # relative to the config file
        "seed": (0, ">= 0"),
        "variant": ("FULL", _VARIANT_RULE),
        "clusters": (0, ">= 0"),            # 0 => infer from labels
        "out": ("run_out", "non-empty"),
    },
    "data": {
        "k_neighbors": (0, ">= 0"),         # 0 => n // 2
        "mu": (net.GOLDEN_SECTION, "in (0, 1)"),
    },
    "reconcile": {
        "epochs": (100, ">= 1"),
        "batch_size": (32, ">= 1"),
        "t_steps": (3, ">= 1"),
        "margin": (0.05, ">= 0"),
        "pseudo_label": (0.5, ">= 0"),
        "sim_weight": (0.3, ">= 0"),
        "adv_weight": (0.5, ">= 0"),
        "embed_width": (32, ">= 1"),
        "head_width": (64, ">= 1"),
        "learning_rate": (1e-4, "> 0"),
    },
    "network": {
        "epochs": (300, ">= 1"),
        "batch_size": (64, ">= 1"),
        "latent_width": (10, ">= 1"),
        "hidden": ((128, 64), ">= 1"),
        "learning_rate": (1e-4, "> 0"),
        "initial_fraction": (0.05, "in (0, 1]"),
        "full_inclusion_fraction": (0.8, "in (0, 1]"),
    },
    "clustering": {
        "restarts": (20, ">= 1"),
        "max_iter": (100, ">= 1"),
    },
}

_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "non-empty": bool,
    _VARIANT_RULE: lambda v: v in VARIANTS,
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
        return self.network["hidden"]


def _parse(name, text, default, rule):
    """Convert ``text`` (None: the default) to the default's type and check it."""
    value = default
    if text is not None:
        try:
            if isinstance(default, tuple):
                value = tuple(int(w) for w in text.split(","))
            else:
                value = type(default)(text)
        except ValueError:
            kind = ("comma-separated ints" if isinstance(default, tuple)
                    else type(default).__name__)
            raise ConfigError(f"{name} must be {kind}, got {text!r}") from None
    holds = _RULES[rule]
    if isinstance(value, float):
        ok = math.isfinite(value) and holds(value)
        rule = f"finite and {rule}"
    elif isinstance(value, tuple):
        ok = all(holds(w) for w in value)
        rule = f"each {rule}"
    else:
        ok = holds(value)
    if not ok:
        raise ConfigError(
            f"{name} must be {rule}, got {text if text is not None else value!r}")
    return value


def load_config(path, overrides=None):
    """Parse a sectioned key-value config file; unknown keys are rejected.

    ``overrides`` maps "section.key" to replacement values (CLI flags).
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    given = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            given[f"{section}.{key}"] = text
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if key not in SCHEMA.get(section, {}):
            raise ConfigError(f"unknown override {dotted!r}")
        given[dotted] = str(value)
    values = {
        section: {key: _parse(f"{section}.{key}", given.get(f"{section}.{key}"),
                              default, rule)
                  for key, (default, rule) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    exp = values.pop("experiment")
    exp["manifest"] = os.path.join(os.path.dirname(os.path.abspath(path)),
                                   exp["manifest"])
    return ExperimentConfig(**exp, **values.pop("data"), **values)


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


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"experiment.out: cannot create {path}: {exc.strerror}") from None


def run(cfg):
    """Execute one experiment; writes reports into cfg.out and returns a RunReport."""
    started = time.time()
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
    if clusters > n:
        raise DataError(f"cannot form {clusters} clusters from {n} samples")

    rng = np.random.default_rng(cfg.seed)
    anchor = int(rng.integers(n))  # shared across views
    k = cfg.k_neighbors if cfg.k_neighbors > 0 else n // 2
    partitions = [dat.build_partition(dataset, v, anchor, k)
                  for v in range(n_views)]
    raw_assignment = dif.assignment_from_partitions(partitions, cfg.mu)
    _make_out_dir(cfg.out)

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
                embed_width=rc["embed_width"],
                head_width=rc["head_width"],
                margin=rc["margin"],
                pseudo_label=rc["pseudo_label"],
                sim_weight=rc["sim_weight"],
                adv_weight=rc["adv_weight"],
                learning_rate=rc["learning_rate"],
            )
            dif.train_reconciler(
                model, dataset, pairs,
                epochs=rc["epochs"],
                batch_size=rc["batch_size"],
                t_steps=rc["t_steps"],
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

    nw = cfg.network
    epochs = nw["epochs"]
    schedule = smp.PaceSchedule(
        max_epochs=epochs,
        initial_fraction=nw["initial_fraction"],
        full_inclusion_epoch_fraction=nw["full_inclusion_fraction"],
    )
    if not use_cs:
        averaged = np.ones(n)
    elif use_ais:
        state = smp.compute_probabilities(assignment, partitions)
        averaged = state.averaged
    else:
        best_view = _pick_best_view(
            dataset, clusters, cfg.seed,
            cfg.clustering["restarts"], cfg.clustering["max_iter"],
        )
        state = smp.compute_probabilities(assignment, partitions)
        averaged = state.per_view[best_view]

    mv_model = net.build_model(
        [v.shape[1] for v in dataset.views],
        nw["latent_width"],
        np.random.default_rng(cfg.seed + 3),
        hidden=cfg.hidden_widths,
    )
    result = net.train(
        mv_model, dataset, averaged, schedule, epochs,
        batch_size=nw["batch_size"],
        learning_rate=nw["learning_rate"],
        seed=cfg.seed + 4,
        force_gate_open=not use_gate,
        log_path=os.path.join(cfg.out, "training_log.csv"),
    )

    km = clu.kmeans(
        result.subspace.z, clusters,
        max_iter=cfg.clustering["max_iter"],
        seed=cfg.seed + 5,
        restarts=cfg.clustering["restarts"],
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
    variants = list(variants)
    if (not variants or len(set(variants)) < len(variants)
            or not set(variants) <= set(VARIANTS)):
        raise ConfigError("variants must be distinct names, each "
                          f"{_VARIANT_RULE}, got {variants}")
    reports = {}
    base_out = cfg.out
    for variant in variants:
        out = os.path.join(base_out, variant.replace("+", "_"))
        reports[variant] = run(replace(cfg, variant=variant, out=out))
    summary = os.path.join(base_out, "ablation_summary.txt")
    _make_out_dir(base_out)
    with open(summary, "w") as fh:
        fh.write("variant  acc     nmi     purity\n")
        for variant, rep in reports.items():
            if rep.metrics:
                fh.write(f"{variant:<8} {rep.metrics.acc:.4f}  "
                         f"{rep.metrics.nmi:.4f}  {rep.metrics.purity:.4f}\n")
            else:
                fh.write(f"{variant:<8} (no labels)\n")
    return reports
