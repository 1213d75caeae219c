"""Outside-in tracing of the mvclust modules for the benchmark's traced run.

Nothing inside the package records anything. ``instrument`` replaces public
module-level functions with wrappers that record a span per call, and puts the
originals back when it exits. Each name is patched where callers look it up:
``adam_step``, ``pace_value`` and ``selection_mask`` are imported by name into
``network``/``difficulty``, ``Net.forward``/``backward`` resolve
``nets.mlp_forward``/``mlp_backward`` at call time, and ``ablate`` calls
``pipeline.run`` through the module global.

Spans live in memory as ``[name_id, start, end, parent_index, run_id]`` and
are written out once, when the benchmark ends. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("pipeline", "data", "difficulty", "sampling", "network", "nets", "cluster")
ROLES = ("enc", "gen", "disc", "recon")

# (module, attribute, layer) for the functions a pass reaches that get a plain
# span named "<layer>.<attribute>". The layer is the module that defines the
# function, which for names imported into network is not the module patched.
# Per-sample scalar helpers (easy_prob, hard_prob, fuse_pair) stay unwrapped;
# their time is their caller's self time.
PLAIN = (
    ("pipeline", "ablate", "pipeline"),
    ("data", "read_manifest", "data"),
    ("data", "load_views", "data"),
    ("data", "normalize_view", "data"),
    ("data", "build_partition", "data"),
    ("difficulty", "assign_difficulty", "difficulty"),
    ("difficulty", "assignment_from_partitions", "difficulty"),
    ("difficulty", "collect_inconsistent", "difficulty"),
    ("difficulty", "minimax_epoch", "difficulty"),
    ("difficulty", "resolve_labels", "difficulty"),
    ("difficulty", "similarity_direction_rate", "difficulty"),
    ("difficulty", "export_difficulty", "difficulty"),
    ("sampling", "compute_probabilities", "sampling"),
    ("network", "pace_value", "sampling"),
    ("network", "selection_mask", "sampling"),
    ("network", "gate", "network"),
    ("network", "ae_loss_closed", "network"),
    ("network", "ae_loss_open", "network"),
    ("network", "adversarial_losses", "network"),
    ("network", "fuse_subspace", "network"),
    ("network", "write_training_log", "network"),
    ("network", "save_checkpoint", "network"),
    ("cluster", "kmeans", "cluster"),
    ("cluster", "evaluate", "cluster"),
    ("cluster", "accuracy", "cluster"),
    ("cluster", "nmi", "cluster"),
    ("cluster", "purity", "cluster"),
    ("cluster", "write_report", "cluster"),
)

_RECONCILER = "difficulty.train_reconciler"
_TRAIN = "network.train"


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.run_id = -1
        self._next_run = 0
        self.counts = defaultdict(float)
        self.open = defaultdict(int)    # span name -> spans of it now open
        self._roles = {}                # id(params or first weight) -> role
        self._owners = []               # keeps registered objects alive, so ids stay unique

    def enter(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, 0.0, 0.0, parent, self.run_id])
        self._stack.append(index)
        self.open[name] += 1
        self.spans[index][1] = time.perf_counter()
        return index

    def exit(self, index, name):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self.open[name] -= 1

    def begin_run(self):
        previous = self.run_id
        self.run_id = self._next_run
        self._next_run += 1
        return previous

    def register(self, net, role):
        """Attribute a network's forward, backward and Adam calls to ``role``."""
        self._roles[id(net.params)] = role
        self._roles[id(net.params.weights[0])] = role
        self._owners.append(net.params)

    def role_of(self, obj):
        return self._roles.get(id(obj), "other")

    def write(self, path):
        """Dump the spans as compressed arrays (one row per span)."""
        import numpy as np

        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=rows[:, 0].astype(int), start=rows[:, 1],
                            end=rows[:, 2], parent=rows[:, 3].astype(int),
                            run_id=rows[:, 4].astype(int))


def summarize(names, spans):
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time subtracts the union of the child intervals, clipped to the
    parent, so overlapping or overhanging children are not counted twice.
    Inclusive seconds sum every span of the name; no traced function calls
    itself, so none is counted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    covered = {}
    for parent, kids in children.items():
        start, end = spans[parent][1], spans[parent][2]
        total, cur_start, cur_end = 0.0, None, None
        for s, e in sorted((max(spans[k][1], start), min(spans[k][2], end)) for k in kids):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            total += cur_end - cur_start
        covered[parent] = total
    stats = {}
    for index, (name_id, start, end, _parent, _run) in enumerate(spans):
        entry = stats.setdefault(names[name_id], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered.get(index, 0.0)
    return stats


def _span(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(index, name)
    return wrapper


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _wrap_run(tracer, fn):
    name = "pipeline.run"

    @functools.wraps(fn)
    def wrapper(cfg, *args, **kwargs):
        previous = tracer.begin_run()
        index = tracer.enter(name)
        try:
            report = fn(cfg, *args, **kwargs)
        finally:
            tracer.exit(index, name)
            tracer.run_id = previous
        counts = tracer.counts
        counts["pipeline.out_bytes"] += _dir_bytes(report.out_dir)
        for row in report.log_rows:
            counts["sampling.selected_sample_epochs"] += row["mask_size"]
            counts["network.sample_epoch_views"] += row["mask_size"] * len(row["ae_loss"])
            counts["network.gate_open_epochs"] += row["gate"]
        return report
    return wrapper


def _wrap_load_manifest(tracer, fn):
    name = "data.load_manifest"

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        index = tracer.enter(name)
        try:
            dataset = fn(path, *args, **kwargs)
        finally:
            tracer.exit(index, name)
        # make_synthetic writes only the manifest, its views and its labels
        tracer.counts["data.load_manifest.in_bytes"] += _dir_bytes(os.path.dirname(path))
        return dataset
    return wrapper


def _wrap_train_reconciler(tracer, fn):
    @functools.wraps(fn)
    def wrapper(model, dataset, pairs, *args, **kwargs):
        tracer.counts["difficulty.pairs"] += len(pairs)
        index = tracer.enter(_RECONCILER)
        try:
            return fn(model, dataset, pairs, *args, **kwargs)
        finally:
            tracer.exit(index, _RECONCILER)
    return wrapper


def _wrap_factory(tracer, fn, name, nets_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name)
        try:
            model = fn(*args, **kwargs)
        finally:
            tracer.exit(index, name)
        for net, role in nets_of(model):
            tracer.register(net, role)
        return model
    return wrapper


def _model_nets(model):
    for vn in model.views:
        yield vn.encoder, "enc"
        yield vn.generator, "gen"
        yield vn.discriminator, "disc"


def _reconciler_nets(model):
    yield model.trunk, "recon"
    yield model.classifier, "recon"
    for net in (*model.view_heads.values(), *model.pair_heads.values()):
        yield net, "recon"


@functools.lru_cache(maxsize=None)
def _macs(widths):
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _wrap_forward(tracer, fn):
    names = {role: f"nets.mlp_forward.{role}" for role in (*ROLES, "other")}
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(params, spec, x, *args, **kwargs):
        role = tracer.role_of(params)
        name = names[role]
        index = tracer.enter(name)
        try:
            result = fn(params, spec, x, *args, **kwargs)
        finally:
            tracer.exit(index, name)
        rows = len(x)
        counts[name + ".rows"] += rows
        counts["nets.flops"] += 2 * rows * _macs(spec.widths)
        if tracer.open[_RECONCILER]:
            counts["reconciler.forwards"] += 1
            counts["reconciler.forward_rows"] += rows
        if role == "enc" and tracer.open[_TRAIN]:
            counts["train.encoder_forwards"] += 1
        return result
    return wrapper


def _wrap_backward(tracer, fn):
    names = {role: f"nets.mlp_backward.{role}" for role in (*ROLES, "other")}
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(params, spec, cache, grad_out, *args, **kwargs):
        name = names[tracer.role_of(params)]
        index = tracer.enter(name)
        try:
            result = fn(params, spec, cache, grad_out, *args, **kwargs)
        finally:
            tracer.exit(index, name)
        counts["nets.flops"] += 4 * len(grad_out) * _macs(spec.widths)
        if tracer.open[_RECONCILER]:
            counts["reconciler.backwards"] += 1
        return result
    return wrapper


def _wrap_adam(tracer, fn):
    names = {role: f"nets.adam_step.{role}" for role in (*ROLES, "other")}

    @functools.wraps(fn)
    def wrapper(state, params, grads, *args, **kwargs):
        name = names[tracer.role_of(params[0])]
        index = tracer.enter(name)
        try:
            result = fn(state, params, grads, *args, **kwargs)
        finally:
            tracer.exit(index, name)
        if tracer.open[_RECONCILER]:
            tracer.counts["reconciler.updates"] += 1
        return result
    return wrapper


def _patches(tracer):
    """(module name, attribute, make_wrapper) for every patched name."""
    special = [
        ("pipeline", "run", lambda fn: _wrap_run(tracer, fn)),
        ("data", "load_manifest", lambda fn: _wrap_load_manifest(tracer, fn)),
        ("difficulty", "build_reconciler", lambda fn: _wrap_factory(
            tracer, fn, "difficulty.build_reconciler", _reconciler_nets)),
        ("difficulty", "train_reconciler", lambda fn: _wrap_train_reconciler(tracer, fn)),
        ("difficulty", "adam_step", lambda fn: _wrap_adam(tracer, fn)),
        ("network", "build_model", lambda fn: _wrap_factory(
            tracer, fn, "network.build_model", _model_nets)),
        ("network", "train", lambda fn: _span(tracer, fn, _TRAIN)),
        ("network", "adam_step", lambda fn: _wrap_adam(tracer, fn)),
        ("nets", "mlp_forward", lambda fn: _wrap_forward(tracer, fn)),
        ("nets", "mlp_backward", lambda fn: _wrap_backward(tracer, fn)),
    ]
    plain = [(module, attr, lambda fn, name=f"{layer}.{attr}": _span(tracer, fn, name))
             for module, attr, layer in PLAIN]
    return special + plain


@contextmanager
def instrument(tracer):
    """Wrap the package's functions for the duration of the block."""
    import importlib

    patched = []
    try:
        for module_name, attr, make in _patches(tracer):
            module = importlib.import_module(f"mvclust.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-layer metrics, per dataset pass, as {name: (value, unit)}."""
    stats = summarize(tracer.names, tracer.spans)
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / passes

    def secs(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / passes

    def self_secs(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / passes

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("pipeline.run.calls", calls("pipeline.run"), "count")
    put("pipeline.run.s", secs("pipeline.run"), "s")
    put("pipeline.run.self_s", self_secs("pipeline.run"), "s")
    put("pipeline.out_bytes", counts["pipeline.out_bytes"] / passes, "byte")

    put("data.load_manifest.s", secs("data.load_manifest"), "s")
    put("data.load_manifest.in_bytes", counts["data.load_manifest.in_bytes"] / passes, "byte")
    put("data.build_partition.calls", calls("data.build_partition"), "count")
    put("data.build_partition.s", secs("data.build_partition"), "s")

    put("difficulty.pairs", counts["difficulty.pairs"] / passes, "count")
    for fn in ("train_reconciler", "resolve_labels", "similarity_direction_rate",
               "export_difficulty"):
        put(f"difficulty.{fn}.s", secs(f"difficulty.{fn}"), "s")
    put("difficulty.minimax_epoch.calls", calls("difficulty.minimax_epoch"), "count")
    put("difficulty.backward_per_update",
        _ratio(counts["reconciler.backwards"], counts["reconciler.updates"]), "ratio")
    put("difficulty.rows_per_forward",
        _ratio(counts["reconciler.forward_rows"], counts["reconciler.forwards"]), "rows")

    put("sampling.compute_probabilities.s", secs("sampling.compute_probabilities"), "s")
    put("sampling.selected_sample_epochs",
        counts["sampling.selected_sample_epochs"] / passes, "count")

    put("network.train.s", secs(_TRAIN), "s")
    put("network.train.self_s", self_secs(_TRAIN), "s")
    for fn in ("ae_loss_closed", "ae_loss_open", "adversarial_losses"):
        put(f"network.{fn}.calls", calls(f"network.{fn}"), "count")
        put(f"network.{fn}.s", secs(f"network.{fn}"), "s")
    put("network.gate_open_epochs", counts["network.gate_open_epochs"] / passes, "count")
    put("network.save_checkpoint.s", secs("network.save_checkpoint"), "s")
    put("network.write_training_log.s", secs("network.write_training_log"), "s")
    put("network.sample_epochs_per_s",
        _ratio(counts["network.sample_epoch_views"] / passes, secs(_TRAIN)), "1/s")
    put("network.disc_backward_per_adv",
        _ratio(calls("nets.mlp_backward.disc"), calls("network.adversarial_losses")), "ratio")
    put("network.enc_forward_per_view_batch",
        _ratio(counts["train.encoder_forwards"] / passes,
               calls("network.ae_loss_closed") + calls("network.ae_loss_open")), "ratio")

    for role in ROLES:
        fwd, bwd, adam = (f"nets.mlp_forward.{role}", f"nets.mlp_backward.{role}",
                          f"nets.adam_step.{role}")
        put(f"{fwd}.calls", calls(fwd), "count")
        put(f"{fwd}.s", secs(fwd), "s")
        put(f"{fwd}.rows", counts[fwd + ".rows"] / passes, "rows")
        put(f"{bwd}.calls", calls(bwd), "count")
        put(f"{bwd}.s", secs(bwd), "s")
        put(f"{adam}.calls", calls(adam), "count")
        put(f"{adam}.s", secs(adam), "s")
    # computed from layer shapes: 2*rows*fan_in*fan_out per forward layer,
    # twice that per backward layer; Adam and activations are not counted
    put("nets.flops", counts["nets.flops"] / passes, "flop")

    put("cluster.kmeans.calls", calls("cluster.kmeans"), "count")
    put("cluster.kmeans.s", secs("cluster.kmeans"), "s")
    put("cluster.evaluate.s", secs("cluster.evaluate"), "s")

    for layer in LAYERS:
        total = sum(entry[2] for name, entry in stats.items()
                    if name.split(".", 1)[0] == layer)
        put(f"{layer}.self_s", total / passes, "s")
    return m
