"""Config-driven experiment runner wiring all stages together.

A run loads a dataset manifest, builds anchor partitions and difficulty
labels, optionally reconciles them adversarially, computes sampling
probabilities, trains the multi-view network under the requested variant,
then clusters the common subspace and reports ACC/NMI/Purity. ``ablate``
runs the stages its variants share (load and partition, reconciliation, best
view) once per call.

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
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import cluster as clu
from . import data as dat
from . import difficulty as dif
from . import network as net
from . import sampling as smp
from .errors import ConfigError, DataError
from .files import replacing, writing

log = logging.getLogger(__name__)

VARIANTS = ("NONE", "CS", "CS+GS", "AIS+CS", "FULL")
_RECONCILED = ("AIS+CS", "FULL")
_GATED = ("CS+GS", "FULL")

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
    try:
        text = dat._read_text(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
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


@dataclass
class Prepared:
    """What every variant of a config starts from."""

    dataset: dat.MultiViewDataset
    clusters: int
    partitions: list                  # one NeighborPartition per view
    raw_labels: np.ndarray            # (V, n) difficulty labels


@dataclass
class Reconciled:
    """Difficulty labels after reconciliation (the raw ones if no pair disagrees)."""

    labels: np.ndarray                # (V, n), consistent across views
    n_pairs: int = 0
    sim_rate: float = float("nan")


def _prepare(cfg):
    """Stage 1: dataset, cluster count, shared anchor, partitions, raw labels."""
    dataset = dat.load_manifest(cfg.manifest)
    n = dataset.n
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
                  for v in range(dataset.n_views)]
    raw_labels = dif.assignment_from_partitions(partitions, cfg.mu)
    return Prepared(dataset, clusters, partitions, raw_labels)


@contextmanager
def _sized_by(*keys):
    """Report numpy refusing an allocation in the block (more memory than
    there is, or more elements than an array may hold) as a one-line
    ConfigError naming ``keys``, the config values that size it."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{' or '.join(keys)} too large to allocate: "
                          f"{exc}") from None


def _reconcile(cfg, prep):
    """Stage 2 (AIS+CS, FULL): train the reconciler on the inconsistent pairs
    and let it settle every cross-view disagreement."""
    pairs = dif.collect_inconsistent(prep.raw_labels)
    if len(pairs) == 0:
        return Reconciled(prep.raw_labels)
    dataset = prep.dataset
    rc = cfg.reconcile
    with _sized_by("reconcile.head_width", "reconcile.embed_width"):
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
    embedded = dif.embed_pairs(model, dataset, pairs)
    labels = dif.resolve_labels(model, prep.raw_labels, embedded)
    sim_rate = dif.similarity_direction_rate(embedded)
    log.info("similarity direction rate after reconciliation: %.3f", sim_rate)
    return Reconciled(labels, len(pairs), sim_rate)


def _pick_best_view(cfg, dataset, clusters):
    """The view whose raw features cluster best (needs labels), the first of
    equals; view 0 without labels."""
    if dataset.labels is None:
        return 0
    accs = [clu.accuracy(_cluster(cfg, view, clusters, cfg.seed).assignments,
                         dataset.labels)
            for view in dataset.views]
    return int(np.argmax(accs))


class _Shared:
    """The stages every variant of one config shares, each run on first use.

    ``ablate`` keeps one for the length of a call, so its variants load,
    partition, reconcile and pick the best view once between them; ``run``
    alone makes a fresh one. Nothing outlives the holder, so every call
    redoes the work. Each stage reads only the base config's fields that no
    variant changes (not ``variant`` or ``out``).
    """

    def __init__(self, cfg):
        self.cfg = cfg

    @cached_property
    def prepared(self):
        return _prepare(self.cfg)

    @cached_property
    def reconciled(self):
        return _reconcile(self.cfg, self.prepared)

    @cached_property
    def best_view(self):
        prep = self.prepared
        return _pick_best_view(self.cfg, prep.dataset, prep.clusters)


def _sampling_weights(variant, shared, labels):
    """Stage 3: each sample's sampling weight, and the view it came from
    (-1 unless the variant samples from the best single view)."""
    prep = shared.prepared
    if variant == "NONE":
        return np.ones(prep.dataset.n), -1
    best_view = -1 if variant in _RECONCILED else shared.best_view
    probs = smp.compute_probabilities(labels, prep.partitions)
    return (probs.mean(axis=0) if best_view < 0 else probs[best_view],
            best_view)


def _train(cfg, dataset, weights):
    """Stage 4: build and train the multi-view network."""
    nw = cfg.network
    schedule = smp.PaceSchedule(
        max_epochs=nw["epochs"],
        initial_fraction=nw["initial_fraction"],
        full_inclusion_epoch_fraction=nw["full_inclusion_fraction"],
    )
    with _sized_by("network.latent_width", "network.hidden"):
        model = net.build_model(
            [v.shape[1] for v in dataset.views],
            nw["latent_width"],
            np.random.default_rng(cfg.seed + 3),
            hidden=nw["hidden"],
        )
    result = net.train(
        model, dataset, weights, schedule,
        batch_size=nw["batch_size"],
        learning_rate=nw["learning_rate"],
        seed=cfg.seed + 4,
        force_gate_open=cfg.variant not in _GATED,
    )
    return model, result


def _cluster(cfg, z, clusters, seed):
    """k-means on the rows of ``z``, as the config's clustering section says:
    stage 5 on the common subspace, and the best-view pick on a raw view."""
    with _sized_by("clustering.restarts"):
        return clu.kmeans(
            z, clusters,
            max_iter=cfg.clustering["max_iter"],
            seed=seed,
            restarts=cfg.clustering["restarts"],
        )


def _write(cfg, report, started, prep, rec, model, z, km):
    """Stage 6, the only one writing into cfg.out: every file, run_info.txt
    last; removes an earlier difficulty.csv or metrics.txt it does not write."""
    path = partial(os.path.join, cfg.out)
    with writing(cfg.out):
        if rec.n_pairs:
            dif.export_difficulty(prep.partitions, prep.raw_labels, rec.labels,
                                  path("difficulty.csv"))
        net.write_training_log(report.log_rows, path("training_log.csv"))
        with replacing(path("artifacts.npz"), "wb") as fh:
            np.savez(fh, z=z, predicted=km.assignments,
                     objective=np.array([km.objective]))
        net.save_checkpoint(model, path("checkpoint.npz"))
        if report.metrics:
            clu.write_report(report.metrics, path("metrics.txt"))
        for name, written in (("difficulty.csv", rec.n_pairs),
                              ("metrics.txt", report.metrics)):
            if not written and os.path.isfile(path(name)):
                os.remove(path(name))
        report.wall_clock = time.perf_counter() - started
        _write_run_info(report, cfg.manifest)


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"experiment.out: cannot create {path}: {exc.strerror}") from None


def run(cfg, shared=None):
    """Execute one experiment; writes reports into cfg.out and returns a RunReport.

    The stages run in order: prepare, reconcile, sampling weights, train,
    cluster, write; only the last writes into cfg.out, so a run that fails
    before it leaves cfg.out as it was. ``shared`` is ``ablate``'s holder of
    the stages its variants share; without it, every stage runs here.
    """
    started = time.perf_counter()
    if shared is None:
        shared = _Shared(cfg)
    prep = shared.prepared
    _make_out_dir(cfg.out)
    rec = (shared.reconciled if cfg.variant in _RECONCILED
           else Reconciled(prep.raw_labels))
    weights, best_view = _sampling_weights(cfg.variant, shared, rec.labels)
    model, result = _train(cfg, prep.dataset, weights)
    km = _cluster(cfg, result.z, prep.clusters, cfg.seed + 5)
    labels = prep.dataset.labels
    report = RunReport(
        variant=cfg.variant,
        seed=cfg.seed,
        metrics=None if labels is None else clu.evaluate(km.assignments, labels),
        wall_clock=float("nan"),          # set by _write before run_info.txt
        out_dir=cfg.out,
        gate_opened_epoch=result.gate_opened_epoch,
        n_inconsistent_pairs=rec.n_pairs,
        best_view=best_view,
        similarity_direction_rate=rec.sim_rate,
        log_rows=result.log_rows,
    )
    _write(cfg, report, started, prep, rec, model, result.z, km)
    return report


def _write_run_info(report, manifest):
    # timing and other non-reproducible context live here, not in metrics.txt
    with replacing(os.path.join(report.out_dir, "run_info.txt")) as fh:
        fh.write(f"variant = {report.variant}\n")
        fh.write(f"seed = {report.seed}\n")
        fh.write(f"manifest = {manifest}\n")
        fh.write(f"wall_clock_seconds = {report.wall_clock:.2f}\n")
        fh.write(f"gate_opened_epoch = {report.gate_opened_epoch}\n")
        fh.write(f"inconsistent_pairs = {report.n_inconsistent_pairs}\n")
        if report.best_view >= 0:
            fh.write(f"best_view = {report.best_view}\n")
        rate = report.similarity_direction_rate
        if rate == rate:
            fh.write(f"similarity_direction_rate = {rate:.4f}\n")


def export_embeddings(run_dir, dest=None):
    """Write the common subspace plus predicted labels as a headered CSV."""
    path = os.path.join(run_dir, "artifacts.npz")
    if not os.path.exists(path):
        raise DataError(f"no run artifacts found at {path}")
    malformed = DataError(f"{path} is not an npz archive of a 2-D z and one "
                          "predicted label per row")
    try:
        with np.load(path) as data:
            z, pred = data["z"], data["predicted"]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, EOFError, TypeError, KeyError, zipfile.BadZipFile):
        raise malformed from None
    if z.ndim != 2 or pred.shape != (len(z),):
        raise malformed
    dest = dest or os.path.join(run_dir, "embeddings.csv")
    with writing(dest), replacing(dest) as fh:
        fh.write(",".join(f"z{i}" for i in range(z.shape[1])) + ",cluster\n")
        for row, c in zip(z, pred):
            fh.write(",".join(f"{v:.12g}" for v in row) + f",{c}\n")
    return dest


def ablate(cfg, variants=VARIANTS):
    """Run several variants off one base config; returns {variant: RunReport}.

    Each variant is one ``run``, in order, sharing one holder of the stages
    that do not depend on the variant: they run the first time a variant
    needs them, and again on the next call.
    """
    variants = list(variants)
    if (not variants or len(set(variants)) < len(variants)
            or not set(variants) <= set(VARIANTS)):
        raise ConfigError("variants must be distinct names, each "
                          f"{_VARIANT_RULE}, got {variants}")
    reports = {}
    base_out = cfg.out
    shared = _Shared(cfg)
    for variant in variants:
        out = os.path.join(base_out, variant.replace("+", "_"))
        reports[variant] = run(replace(cfg, variant=variant, out=out), shared)
    summary = os.path.join(base_out, "ablation_summary.txt")
    with writing(summary), replacing(summary) as fh:
        fh.write(format_ablation(reports))
    return reports


def format_ablation(reports):
    """The ablation table, one line per variant: what ``ablate`` writes to
    ``ablation_summary.txt`` and ``mvclust ablate`` prints."""
    lines = ["variant  acc     nmi     purity\n"]
    for variant, rep in reports.items():
        m = rep.metrics
        lines.append(f"{variant:<8} {m.acc:.4f}  {m.nmi:.4f}  {m.purity:.4f}\n"
                     if m else f"{variant:<8} (no labels)\n")
    return "".join(lines)
