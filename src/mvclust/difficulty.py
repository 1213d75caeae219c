"""Per-view difficulty labels and their adversarial cross-view reconciliation.

Each view labels every sample easy (0) or difficult (1) from its distance to
the anchor. Views disagree; a minimax game between a shared feature embedder
and a binary classifier settles the disagreements: the classifier learns to
tell the two members of an inconsistent pair apart while the embedder pulls
them (and their fused concatenation) toward a common representation. The
trained classifier's verdict on the fused sample becomes the shared label.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from .files import replacing
from .nets import (AdamState, MlpSpec, Net, adam_step, binary_log_likelihood,
                   clamp_prob, init_mlp, make_net)

def assign_difficulty(partition, mu):
    """Label one view's samples via the anchor-distance boundary rule.

    A negative-set sample farther than mu * d_max(N), or a positive-set sample
    closer than mu * d_max(P), is easy (0); every other sample is difficult (1).
    Both inequalities are strict. The anchor itself is easy. Returns the
    length-n label vector.
    """
    if not 0.0 < mu < 1.0:
        raise DataError(f"mu must be in (0, 1), got {mu}")
    if len(partition.positive) == 0 or len(partition.negative) == 0:
        raise DataError(
            "difficulty boundary undefined: positive or negative set is empty"
        )
    dist = partition.anchor_distances
    neg, pos = partition.negative, partition.positive
    easy = np.zeros(partition.n, dtype=bool)
    easy[neg] = dist[neg] > mu * dist[neg].max()
    easy[pos] = dist[pos] < mu * dist[pos].max()
    easy[partition.anchor_index] = True
    return (~easy).astype(int)


def assignment_from_partitions(partitions, mu):
    """Apply the boundary rule to every view: the (V, n) label matrix."""
    return np.stack([assign_difficulty(part, mu) for part in partitions])


def collect_inconsistent(labels):
    """The pair table: an (m, 3) integer array of (sample, view_i, view_j)
    rows, i < j, whose two labels disagree, by sample and then view pair."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or len(labels) < 2:
        raise DataError("need a (views, samples) label matrix with at least 2 "
                        f"views, got shape {labels.shape}")
    vi, vj = np.triu_indices(labels.shape[0], 1)
    group, k = np.nonzero(labels[vi] != labels[vj])
    pairs = np.column_stack([k, vi[group], vj[group]])
    return pairs[np.argsort(k, kind="stable")]


def _hinge(e_i, e_fused, e_j, margin):
    """The feature-similarity loss L_sim, summed over rows: the triplet hinge
    max(0, margin + |e_f - e_i|^2 - |e_f - e_j|^2), with its gradients w.r.t.
    e_i, e_fused and e_j."""
    diff_i = e_fused - e_i
    diff_j = e_fused - e_j
    s = (margin + np.add.reduce(diff_i ** 2, 1)
         - np.add.reduce(diff_j ** 2, 1))
    active = (s > 0.0).astype(float)[:, None]
    return (np.add.reduce(np.maximum(0.0, s), None), active * (-2.0) * diff_i,
            active * 2.0 * (diff_i - diff_j), active * 2.0 * diff_j)


@dataclass
class ReconcilerModel:
    """Shared embedder (per-input heads + common trunk) and binary classifier.

    The trunk and every head keep their parameters in one flat vector,
    ``embed_params``, so one Adam call updates the whole embedder.
    ``embed_slices`` maps "trunk", a view index or a view-index pair to that
    net's slice of it, and of every embedder gradient.
    """

    trunk: Net
    view_heads: dict
    pair_heads: dict
    classifier: Net
    margin: float
    pseudo_label: float   # weight on the classifier's log terms
    sim_weight: float     # alpha
    adv_weight: float     # beta
    embed_opt: AdamState
    cls_opt: AdamState
    embed_params: np.ndarray
    embed_slices: dict


def build_reconciler(view_dims, rng, embed_width=32, head_width=64,
                     margin=0.05, pseudo_label=0.5, sim_weight=0.3,
                     adv_weight=0.5, learning_rate=1e-4):
    """Fresh model: one head per view, one per unordered view pair, shared
    two-layer trunk, 3-layer sigmoid classifier. The heads and the trunk are
    initialised in that order, inside one flat embedder vector."""
    specs = {i: MlpSpec((d, head_width), ("relu",)) for i, d in enumerate(view_dims)}
    for i in range(len(view_dims)):
        for j in range(i + 1, len(view_dims)):
            specs[(i, j)] = MlpSpec((view_dims[i] + view_dims[j], head_width),
                                    ("relu",))
    specs["trunk"] = MlpSpec((head_width, head_width, embed_width),
                             ("relu", "identity"))
    slices, start = {}, 0
    for key, spec in specs.items():
        slices[key] = slice(start, start + spec.size)
        start += spec.size
    embed_params = np.empty(start)
    nets = {key: Net(spec, init_mlp(spec, rng, embed_params[slices[key]]))
            for key, spec in specs.items()}
    classifier = make_net([embed_width, 16, 8, 1], ["relu", "relu", "sigmoid"], rng)
    return ReconcilerModel(
        trunk=nets.pop("trunk"),
        view_heads={i: nets.pop(i) for i in range(len(view_dims))},
        pair_heads=nets,
        classifier=classifier,
        margin=margin,
        pseudo_label=pseudo_label,
        sim_weight=sim_weight,
        adv_weight=adv_weight,
        embed_opt=AdamState(learning_rate=learning_rate),
        cls_opt=AdamState(learning_rate=learning_rate),
        embed_params=embed_params,
        embed_slices=slices,
    )


@dataclass
class _StackedBatch:
    """Pairs laid out for a single pass per net.

    ``pairs`` holds the batch's rows in view-pair order, each view pair's in
    batch order. ``heads`` holds (head key, input rows) for each head that
    has rows: the view heads in view order, each with its view's members in
    ``pairs`` order, then the pair heads with their fused rows. The trunk
    runs over the head outputs stacked in that order: ``at_i`` and ``at_j``
    index each pair's e_i and e_j rows there, and the pairs' e_f rows are
    the trailing block, in ``pairs`` order.
    """

    pairs: np.ndarray
    heads: list
    at_i: np.ndarray
    at_j: np.ndarray


def _stack_batch(dataset, pairs):
    """Stack rows of the pair table for ``_embed``; a minimax batch is
    stacked once and reused by every pass over it."""
    pairs = pairs[np.lexsort((pairs[:, 2], pairs[:, 1]))]   # stable
    ks, views = pairs[:, 0], dataset.views
    # the view heads' rows are the members (pair t's at 2t, 2t + 1) stably
    # sorted by view; ``at`` inverts that order
    member_view = pairs[:, 1:].ravel()
    rows = np.argsort(member_view, kind="stable")
    at = np.argsort(rows)
    cut = np.searchsorted(member_view[rows], np.arange(len(views) + 1)).tolist()
    heads = [(v, x[ks[rows[lo:hi] // 2]])
             for v, (x, lo, hi) in enumerate(zip(views, cut, cut[1:])) if lo < hi]
    starts = np.flatnonzero(np.diff(pairs[:, 1:], axis=0).any(axis=1)) + 1
    cut = [0, *starts.tolist(), len(pairs)]   # one run per view pair
    for lo, hi in zip(cut, cut[1:]):
        i, j = pairs[lo, 1:].tolist()
        heads.append(((i, j), np.hstack([views[i][ks[lo:hi]], views[j][ks[lo:hi]]])))
    return _StackedBatch(pairs, heads, at[0::2], at[1::2])


def _embed(model, stacked):
    """The embedder's forward over a stacked batch: one pass per head with
    rows, then one trunk pass over all their outputs. Returns the stacked
    embeddings, each head's (net, cache) in ``stacked.heads`` order and the
    trunk's cache."""
    heads = [model.pair_heads[key] if isinstance(key, tuple)
             else model.view_heads[key] for key, _ in stacked.heads]
    head_out = [head.forward(x) for head, (_, x) in zip(heads, stacked.heads)]
    e, c_trunk = model.trunk.forward(np.concatenate([h for h, _ in head_out]))
    return e, [(head, c) for head, (_, c) in zip(heads, head_out)], c_trunk


def _batch_losses_and_grads(model, stacked, embedder=True, out=None,
                            zero=None):
    """Both loss values and the gradients of J = alpha*L_sim - beta*L_adv.

    ``stacked`` comes from ``_stack_batch``. Returns (L_sim, L_adv, embedder
    gradient of J laid out like ``model.embed_params``, classifier gradient
    of beta*L_adv laid out like ``model.classifier.params.flat``),
    batch-mean normalized, with one of the two gradients None. Each head
    with rows, the trunk and the classifier run one forward (and backward)
    over all their rows. By default the classifier's backward computes only
    its input gradient, and the classifier gradient is None. With
    ``embedder=False`` it computes only its parameter gradient, the trunk
    and head backward passes are skipped and the embedder gradient is None.

    The embedder gradient is written into ``out`` (a vector of the
    embedder's size, whatever it holds) when it is given, else into a fresh
    vector: backward overwrites the trunk's slice and that of every head
    whose block of the trunk's input gradient has a nonzero entry. The
    other heads' slices are zero-filled, bitwise what their backward would
    give up to the sign of a zero: a head without rows, and a head whose
    rows get no gradient. A pair head gets gradient only from L_sim, so it
    gets none when the hinge is inactive on all its rows. When ``zero`` (a
    list) is given, those slices are appended to it, for ``adam_step``.
    """
    b = len(stacked.at_i)
    alpha, beta, ell, m = (model.sim_weight, model.adv_weight,
                           model.pseudo_label, model.margin)
    e, head_caches, c_trunk = _embed(model, stacked)
    e_i, e_j = e[stacked.at_i], e[stacked.at_j]
    sim, dsim_ei, dsim_ef, dsim_ej = _hinge(e_i, e[2 * b:], e_j, m)

    p, c_cls = model.classifier.forward(np.concatenate([e_i, e_j]))
    sum_i, sum_j, dadv_pi, dadv_pj = binary_log_likelihood(p[:b], p[b:], ell)
    adv = -ell * (sum_i + sum_j)
    gc, dadv_e = model.classifier.backward(
        c_cls, np.concatenate([dadv_pi, dadv_pj]),
        input_grad=embedder, param_grad=not embedder)
    if not embedder:
        # classifier minimizes beta * L_adv
        return sim / b, adv / b, None, beta * gc / b

    # embedder minimizes J = alpha*L_sim - beta*L_adv
    g_e = np.empty_like(e)
    g_e[stacked.at_i] = (alpha * dsim_ei - beta * dadv_e[:b]) / b
    g_e[stacked.at_j] = (alpha * dsim_ej - beta * dadv_e[b:]) / b
    g_e[2 * b:] = alpha * dsim_ef / b
    g_embed = np.empty(model.embed_params.size) if out is None else out
    _, dh = model.trunk.backward(c_trunk, g_e,
                                 g_embed[model.embed_slices["trunk"]])
    ran, start = {"trunk"}, 0
    for (key, x), (head, c_head) in zip(stacked.heads, head_caches):
        dh_head = dh[start:start + len(x)]
        start += len(x)
        if dh_head.any():
            head.backward(c_head, dh_head, g_embed[model.embed_slices[key]],
                          input_grad=False)
            ran.add(key)
    for key, sl in model.embed_slices.items():
        if key not in ran:
            g_embed[sl] = 0.0
            if zero is not None:
                zero.append(sl)
    return sim / b, adv / b, g_embed, None


def minimax_epoch(model, dataset, pairs, batch_size, t_steps, rng):
    """One pass over the inconsistent pairs.

    Per batch: t_steps embedder updates descending alpha*L_sim - beta*L_adv,
    then one classifier update ascending the same objective, each a single
    Adam call on one flat vector. Batches are a seeded shuffle without
    replacement. Returns mean losses; a no-op when the pair set is empty.
    """
    if len(pairs) == 0:
        return {"sim": 0.0, "adv": 0.0}
    order = rng.permutation(len(pairs))
    sim_vals, adv_vals = [], []
    embed_grads = np.empty(model.embed_params.size)
    for start in range(0, len(pairs), batch_size):
        stacked = _stack_batch(dataset, pairs[order[start:start + batch_size]])
        for _ in range(t_steps):
            zero = []
            l_sim, l_adv, _, _ = _batch_losses_and_grads(
                model, stacked, out=embed_grads, zero=zero)
            if not math.isfinite(l_sim) or not math.isfinite(l_adv):
                raise NumericalError(
                    f"non-finite loss in batch starting at pair {start}"
                )
            adam_step(model.embed_opt, model.embed_params, embed_grads,
                      zero=zero)
        l_sim, l_adv, _, cls_grads = _batch_losses_and_grads(
            model, stacked, embedder=False
        )
        adam_step(model.cls_opt, model.classifier.params.flat, cls_grads)
        sim_vals.append(l_sim)
        adv_vals.append(l_adv)
    return {"sim": float(np.mean(sim_vals)), "adv": float(np.mean(adv_vals))}


def train_reconciler(model, dataset, pairs, epochs, batch_size=32, t_steps=3,
                     seed=0):
    """Run minimax epochs with a seeded shuffle; returns the loss history."""
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        history.append(minimax_epoch(model, dataset, pairs, batch_size, t_steps, rng))
    return history


class PairEmbedding(NamedTuple):
    """Pair-table rows in view-pair order and their e_i, e_j and e_f rows."""

    pairs: np.ndarray
    e_i: np.ndarray
    e_j: np.ndarray
    e_f: np.ndarray


def embed_pairs(model, dataset, pairs):
    """All rows of the pair table through one embedder pass, stacked as a batch."""
    if len(pairs) == 0:
        return PairEmbedding(pairs, *np.empty((3, 0, model.trunk.spec.widths[-1])))
    stacked = _stack_batch(dataset, pairs)
    e = _embed(model, stacked)[0]
    return PairEmbedding(stacked.pairs, e[stacked.at_i], e[stacked.at_j],
                         e[2 * len(pairs):])


def resolve_labels(model, labels, embedded):
    """Replace every cross-view disagreement in the (V, n) label matrix with
    the classifier's verdict on the fused pair (>= 0.5 means difficult),
    given ``embed_pairs`` over ``collect_inconsistent(labels)``. Returns a
    consistent copy."""
    labels = labels.copy()
    ks, vi, vj = embedded.pairs.T
    p = clamp_prob(model.classifier.forward(embedded.e_f)[0][:, 0])
    # write view pair after view pair: from 4 views up, a later pair's
    # verdict can overwrite an earlier one's
    for i, j in zip(*np.triu_indices(len(labels), 1)):
        group = (vi == i) & (vj == j)
        labels[i, ks[group]] = labels[j, ks[group]] = p[group] >= 0.5
    # With 3+ views, the pair verdicts can leave a sample mixed; fall back to
    # the mean verdict over all its fused pairs, in view-pair order.
    for k in np.flatnonzero((labels != labels[0]).any(axis=0)).tolist():
        labels[:, k] = 1 if np.mean(p[ks == k]) >= 0.5 else 0
    return labels


def classifier_agreement_rate(model, embedded):
    """Fraction of pairs whose two members get the same classifier verdict."""
    b = len(embedded.pairs)
    if b == 0:
        return 1.0
    p, _ = model.classifier.forward(np.concatenate([embedded.e_i, embedded.e_j]))
    return int(((p[:b, 0] >= 0.5) == (p[b:, 0] >= 0.5)).sum()) / b


def similarity_direction_rate(embedded):
    """Diagnostic: fraction of pairs whose fused embedding sits closer to the
    first member than to the second. Logged, never asserted."""
    _, e_i, e_j, e_f = embedded
    if len(e_f) == 0:
        return 0.0
    closer = ((e_f - e_i) ** 2).sum(axis=1) < ((e_f - e_j) ** 2).sum(axis=1)
    return int(closer.sum()) / len(closer)


def export_difficulty(partitions, raw, resolved, path):
    """CSV dump: sample_index, view, region, raw_label, resolved_label.

    The region is the sample's side of the view's partition: A (the anchor),
    P (positive set) or N (negative set).
    """
    with replacing(path) as fh:
        fh.write("sample_index,view,region,raw_label,resolved_label\n")
        for v, part in enumerate(partitions):
            region = np.full(part.n, "A")
            region[part.positive] = "P"
            region[part.negative] = "N"
            fh.writelines(f"{k},{v},{r},{raw_k},{res_k}\n" for k, (r, raw_k, res_k)
                          in enumerate(zip(region.tolist(), raw[v].tolist(),
                                           resolved[v].tolist())))
