import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust import difficulty, network
from mvclust.data import MultiViewDataset, NeighborPartition, build_partition
from mvclust.difficulty import (PairEmbedding, ReconcilerModel, assign_difficulty,
                                assignment_from_partitions, build_reconciler,
                                classifier_agreement_rate, collect_inconsistent,
                                embed_pairs, export_difficulty, minimax_epoch,
                                resolve_labels, similarity_direction_rate,
                                _batch_losses_and_grads, _hinge,
                                _stack_batch, train_reconciler)
from mvclust.errors import DataError
from mvclust.nets import Net, adam_step, binary_log_likelihood, clamp_prob

from conftest import (assert_grads_close, embed_rows, numerical_grads,
                      rel_err)


def partition_from_distances(distances, k, anchor=0):
    """Build a 1-D dataset whose anchor distances are exactly ``distances``."""
    pts = np.concatenate([[0.0], distances]).reshape(-1, 1)
    ds = MultiViewDataset([pts, pts.copy()])
    return build_partition(ds, 0, anchor, k)


def test_negative_sample_beyond_boundary_is_easy():
    # distances: P = {1.0}, N = {5.0, 8.0, 10.0}; mu=0.618 => boundary 6.18
    part = partition_from_distances([1.0, 5.0, 8.0, 10.0], k=1)
    labels = assign_difficulty(part, 0.618)
    assert labels[3] == 0  # d=8.0 > 6.18
    assert labels[4] == 0  # d=10.0
    assert labels[2] == 1  # d=5.0 <= 6.18
    assert 2 in part.negative and 1 in part.positive


def test_positive_boundary_is_strict():
    # P distances {1.0, 2.0}: d_max(P)=2.0; with mu=0.5 the sample at exactly
    # 1.0 = mu*d_max fails the strict inequality and stays difficult
    part = partition_from_distances([1.0, 2.0, 9.0, 10.0], k=2)
    labels = assign_difficulty(part, 0.5)
    assert labels[1] == 1
    assert labels[2] == 1  # d_max(P) itself can never be < mu*d_max(P)


def test_empty_region_rejected():
    part = partition_from_distances([1.0, 2.0, 3.0], k=3)  # N empty
    with pytest.raises(DataError, match="empty"):
        assign_difficulty(part, 0.618)


def test_difficulty_matches_bruteforce(rng):
    # the two-branch rule re-evaluated naively on random geometries
    for _ in range(50):
        n = int(rng.integers(8, 40))
        dist = np.sort(rng.uniform(0.1, 10.0, size=n - 1))
        k = int(rng.integers(1, n - 1))
        mu = float(rng.uniform(0.1, 0.9))
        part = partition_from_distances(dist, k=k)
        labels = assign_difficulty(part, mu)
        d = part.anchor_distances
        d_max_n = d[part.negative].max()
        d_max_p = d[part.positive].max()
        for s in range(part.n):
            if s == part.anchor_index:
                continue
            if s in part.negative:
                expect = 0 if d[s] > mu * d_max_n else 1
            else:
                expect = 0 if d[s] < mu * d_max_p else 1
            assert labels[s] == expect


def random_geometry(rng, n_views):
    """Partitions of ``n_views`` random views around one shared random anchor.

    Half the draws put the samples on a small integer grid, so distances tie
    (and some samples sit on the anchor itself)."""
    n = int(rng.integers(8, 60))
    grid = rng.integers(2) == 1
    views = [rng.integers(-3, 4, size=(n, int(rng.integers(3, 6)))).astype(float)
             if grid else rng.normal(size=(n, int(rng.integers(1, 6))))
             for _ in range(n_views)]
    ds = MultiViewDataset(views)
    anchor = int(rng.integers(n))
    k = int(rng.integers(1, n - 1))
    return [build_partition(ds, v, anchor, k) for v in range(n_views)]


def _ref_assign_difficulty(part, mu):
    """The boundary rule one sample at a time, as the package once wrote it."""
    dist = part.anchor_distances
    d_max_n = dist[part.negative].max()
    d_max_p = dist[part.positive].max()
    labels = np.ones(part.n, dtype=int)
    for k in part.negative:
        labels[k] = 0 if dist[k] > mu * d_max_n else 1
    for k in part.positive:
        labels[k] = 0 if dist[k] < mu * d_max_p else 1
    labels[part.anchor_index] = 0
    return labels


@pytest.mark.parametrize("n_views", [2, 3])
def test_labels_match_per_sample_reference_bytewise(n_views):
    rng = np.random.default_rng(90 + n_views)
    for _ in range(100):
        parts = random_geometry(rng, n_views)
        mu = float(rng.uniform(0.1, 0.9))
        labels = assignment_from_partitions(parts, mu)
        ref = np.stack([_ref_assign_difficulty(part, mu) for part in parts])
        assert labels.dtype == ref.dtype and labels.shape == ref.shape
        assert labels.tobytes() == ref.tobytes()


def test_collect_inconsistent_two_views():
    pairs = collect_inconsistent(np.array([[0, 1], [0, 0]]))
    assert pairs.dtype.kind == "i" and pairs.tolist() == [[1, 0, 1]]


def test_collect_inconsistent_identical_views():
    assert collect_inconsistent(np.array([[0, 1, 1], [0, 1, 1]])).shape == (0, 3)


def test_collect_inconsistent_three_views():
    labels = np.array([[0], [1], [0]])
    pairs = collect_inconsistent(labels)
    assert pairs.tolist() == [[0, 0, 1], [0, 1, 2]]


@pytest.mark.parametrize("labels", [np.array([0, 1, 1]),
                                    np.zeros((2, 3, 2), dtype=int)],
                         ids=["1-D", "3-D"])
def test_collect_inconsistent_rejects_labels_that_are_not_a_matrix(labels):
    with pytest.raises(DataError, match="label matrix") as err:
        collect_inconsistent(labels)
    assert "\n" not in str(err.value)


@st.composite
def label_matrices(draw, max_samples=12):
    views = draw(st.integers(2, 6))
    n = draw(st.integers(0, max_samples))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=views, max_size=views)),
                    dtype=int).reshape(views, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(labels=label_matrices())
def test_collect_inconsistent_matches_triple_loop(labels):
    views, n = labels.shape
    want = sorted((k, i, j) for i in range(views) for j in range(i + 1, views)
                  for k in range(n) if labels[i, k] != labels[j, k])
    pairs = collect_inconsistent(labels)
    assert pairs.shape == (len(want), 3) and pairs.dtype.kind == "i"
    assert [tuple(row) for row in pairs.tolist()] == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_stacked_rows_are_each_pairs_member_features(data):
    labels = data.draw(label_matrices(max_samples=8).filter(
        lambda m: collect_inconsistent(m).size))
    table = collect_inconsistent(labels)
    views, n = labels.shape
    # every row of every view is distinct, so a row names its sample
    ds = MultiViewDataset([1000.0 * v + np.arange(n * (2 + v)).reshape(n, -1)
                           for v in range(views)])
    order = data.draw(st.permutations(range(len(table))))
    batch = table[order[:data.draw(st.integers(1, len(table)))]]
    b = len(batch)
    stacked = _stack_batch(ds, batch)
    # the batch's rows, stably grouped by view pair
    key = [(i, j) for _, i, j in batch.tolist()]
    want = [batch[t].tolist() for t in sorted(range(b), key=key.__getitem__)]
    assert stacked.pairs.tolist() == want
    # the row layout: view heads in view order, each with its view's members
    # in that order, then the pair heads in view-pair order
    groups = sorted(set(key))
    assert [head for head, _ in stacked.heads] == (
        sorted({v for group in groups for v in group}) + groups)
    for v, x in stacked.heads[:-len(groups)]:
        assert x.tolist() == [ds.views[v][k].tolist() for k, i, j in want
                              if v in (i, j)]
    # e_i and e_j rows fill the leading 2b rows, e_f rows the trailing b
    at = np.concatenate([stacked.at_i, stacked.at_j])
    assert sorted(at.tolist()) == list(range(2 * b))
    owner, rows = [], []   # the head key and input row of each stacked row
    for head, x in stacked.heads:
        owner += [head] * len(x)
        rows += list(x)
    for t, (k, i, j) in enumerate(stacked.pairs.tolist()):
        for r, head, x in ((stacked.at_i[t], i, ds.views[i][k]),
                           (stacked.at_j[t], j, ds.views[j][k]),
                           (2 * b + t, (i, j),
                            np.concatenate([ds.views[i][k], ds.views[j][k]]))):
            assert owner[r] == head
            np.testing.assert_array_equal(rows[r], x)


def test_fused_head_lands_in_embedding_width(rng):
    model = build_reconciler([3, 5], rng, embed_width=8)
    fused = np.concatenate([rng.normal(size=3), rng.normal(size=5)])
    e, _ = embed_rows(model, (0, 1), fused)
    assert e.shape == (1, 8)


def adv_term(f_i, f_j, ell):
    """L_adv as the reconciler forms it, and its two gradients."""
    sum_i, sum_j, grad_i, grad_j = binary_log_likelihood(
        np.array(f_i), np.array(f_j), ell)
    return -ell * (sum_i + sum_j), grad_i, grad_j


def test_adv_loss_hand_values():
    value, grad_i, grad_j = adv_term([0.9], [0.1], 0.5)
    assert abs(value - (-0.5 * (np.log(0.9) + np.log(0.9)))) < 1e-12
    assert abs(grad_i[0] - -0.5 / 0.9) < 1e-12
    assert abs(grad_j[0] - 0.5 / 0.9) < 1e-12
    value, grad_i, grad_j = adv_term([0.5], [0.5], 1.0)
    assert abs(value - (-(np.log(0.5) + np.log(0.5)))) < 1e-12
    assert grad_i[0] == -2.0 and grad_j[0] == 2.0
    value, grad_i, grad_j = adv_term([0.3], [0.8], 0.0)
    assert value == 0.0 and grad_i[0] == 0.0 and grad_j[0] == 0.0
    # a clamped probability has a zero gradient
    value, grad_i, grad_j = adv_term([1.0], [0.0], 1.0)
    assert abs(value - -2.0 * np.log(1.0 - 1e-7)) < 1e-12
    assert grad_i[0] == 0.0 and grad_j[0] == 0.0


def test_sim_loss_hand_values(rng):
    e = rng.normal(size=(1, 4))
    shift = rng.normal(size=(1, 4))
    shift /= np.linalg.norm(shift)
    # equidistant members: hinge = margin
    assert abs(_hinge(e + shift, e, e - shift, 0.05)[0] - 0.05) < 1e-12
    # fused embedding much closer to the first member: hinge saturates at 0
    assert _hinge(e + 0.01 * shift, e, e + 10 * shift, 0.05)[0] == 0.0
    # zero margin, identical embeddings
    assert _hinge(e, e, e, 0.0)[0] == 0.0


def toy_inconsistent_setup(seed=3, n=40):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(n, 6)), rng.normal(size=(n, 4))]
    ds = MultiViewDataset(views)
    parts = [build_partition(ds, v, 0, n // 2) for v in range(2)]
    labels = assignment_from_partitions(parts, 0.618)
    pairs = collect_inconsistent(labels)
    return ds, parts, labels, pairs


def test_minimax_lr_zero_keeps_parameters():
    ds, _, _, pairs = toy_inconsistent_setup()
    assert len(pairs), "toy setup must produce inconsistent pairs"
    model = build_reconciler([6, 4], np.random.default_rng(0), learning_rate=0.0)
    before = [model.embed_params.copy(), model.classifier.params.flat.copy()]
    minimax_epoch(model, ds, pairs, batch_size=8, t_steps=2,
                  rng=np.random.default_rng(1))
    after = [model.embed_params, model.classifier.params.flat]
    for a, b in zip(after, before):
        np.testing.assert_array_equal(a, b)


def test_minimax_first_order_directions():
    # one fresh optimizer step must move the objective the right way to
    # first order: embedder descends J, classifier ascends it
    ds, _, _, pairs = toy_inconsistent_setup()
    model = build_reconciler([6, 4], np.random.default_rng(0), learning_rate=1e-4)
    batch = pairs[:8]

    stacked = _stack_batch(ds, batch)
    _, _, embed_grads, _ = _batch_losses_and_grads(model, stacked)
    cls_grads = _batch_losses_and_grads(model, stacked, embedder=False)[3]
    before_e = model.embed_params.copy()
    before_c = model.classifier.params.flat.copy()
    minimax_epoch(model, ds, batch, batch_size=8, t_steps=1,
                  rng=np.random.default_rng(1))
    # direction actually taken by the embedder step
    delta_e = model.embed_params - before_e
    dir_deriv_e = float((embed_grads * delta_e).sum())
    assert dir_deriv_e <= 0.0  # embedder descends J

    # the classifier step descends beta*L_adv, which ascends J
    # (J depends on the classifier only through -beta*L_adv)
    delta_c = model.classifier.params.flat - before_c
    dir_deriv_c = float((cls_grads * delta_c).sum())
    assert dir_deriv_c <= 0.0


def test_minimax_agreement_rises_on_toy_set():
    # scripted reference run: pretraining the classifier alone drives the two
    # members of each pair apart; the minimax game then pulls them together
    ds, _, _, pairs = toy_inconsistent_setup(seed=3)
    assert len(pairs) >= 10
    model = build_reconciler([6, 4], np.random.default_rng(0),
                             learning_rate=3e-3)
    # classifier-only warm-up (no embedder steps)
    train_reconciler(model, ds, pairs, epochs=60, batch_size=16, t_steps=0,
                     seed=7)
    before = classifier_agreement_rate(model, embed_pairs(model, ds, pairs))
    train_reconciler(model, ds, pairs, epochs=200, batch_size=16, t_steps=3,
                     seed=8)
    after = classifier_agreement_rate(model, embed_pairs(model, ds, pairs))
    assert before < 0.6
    assert after > 0.9


def test_resolution_removes_all_disagreements():
    ds, _, labels, pairs = toy_inconsistent_setup()
    model = build_reconciler([6, 4], np.random.default_rng(0), learning_rate=1e-3)
    train_reconciler(model, ds, pairs, epochs=5, batch_size=16, t_steps=2, seed=2)
    resolved = resolve_labels(model, labels, embed_pairs(model, ds, pairs))
    assert len(collect_inconsistent(resolved)) == 0
    # consistent samples keep their original labels
    disagreeing = set(pairs[:, 0].tolist())
    for k in range(ds.n):
        if k not in disagreeing:
            assert resolved[0, k] == labels[0, k]


def test_resolution_noop_without_pairs(rng):
    views = [rng.normal(size=(10, 3)), rng.normal(size=(10, 3))]
    ds = MultiViewDataset(views)
    labels = np.zeros((2, 10), dtype=int)
    model = build_reconciler([3, 3], rng)
    embedded = embed_pairs(model, ds, collect_inconsistent(labels))
    resolved = resolve_labels(model, labels, embedded)
    np.testing.assert_array_equal(resolved, labels)
    assert similarity_direction_rate(embedded) == 0.0
    assert classifier_agreement_rate(model, embedded) == 1.0


def test_three_view_resolution_is_total(rng):
    views = [rng.normal(size=(20, 3)), rng.normal(size=(20, 4)),
             rng.normal(size=(20, 5))]
    ds = MultiViewDataset(views)
    parts = [build_partition(ds, v, 0, 10) for v in range(3)]
    labels = assignment_from_partitions(parts, 0.618)
    model = build_reconciler([3, 4, 5], rng)
    resolved = resolve_labels(
        model, labels, embed_pairs(model, ds, collect_inconsistent(labels)))
    assert len(collect_inconsistent(resolved)) == 0


def _verdicts(pairs, p):
    """A model whose classifier reads each fused pair's verdict off its e_f
    row, and a ``PairEmbedding`` of ``pairs`` that gives pair t verdict p[t]."""
    e = np.asarray(p, dtype=float).reshape(-1, 1)
    model = SimpleNamespace(classifier=SimpleNamespace(forward=lambda x: (x, None)))
    return model, PairEmbedding(pairs, e, e, e)


@pytest.mark.parametrize("strong", [(0, 2), (0, 3), (1, 2), (1, 3)])
def test_two_against_two_takes_the_mean_verdict_wherever_it_sits(strong):
    # the sample's four fused pairs score 0.9 (on ``strong``), 0.4, 0.4, 0.4:
    # their mean, 0.525, makes it difficult in every view
    labels = np.array([[0], [0], [1], [1]])
    pairs = collect_inconsistent(labels)
    assert pairs[:, 1:].tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]
    model, embedded = _verdicts(
        pairs, [0.9 if (i, j) == strong else 0.4 for _, i, j in pairs.tolist()])
    np.testing.assert_array_equal(resolve_labels(model, labels, embedded),
                                  np.ones((4, 1), dtype=int))


def _pair_by_pair(labels, pairs, p):
    """The rule before the mean: each pair's verdict written over both its
    labels, view pair after view pair, then the mean verdict for a sample
    the writes leave mixed. The reference only where one view disagrees
    with all the others, the case on which the two rules agree."""
    labels = labels.copy()
    for (k, i, j), verdict in zip(pairs.tolist(), p.tolist()):
        labels[i, k] = labels[j, k] = int(verdict >= 0.5)
    for k in np.flatnonzero((labels != labels[0]).any(axis=0)).tolist():
        labels[:, k] = int(np.mean(p[pairs[:, 0] == k]) >= 0.5)
    return labels


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_each_paired_sample_takes_its_mean_verdict(data):
    labels = data.draw(label_matrices())
    views, n = labels.shape
    pairs = collect_inconsistent(labels)
    pairs = pairs[np.lexsort((pairs[:, 2], pairs[:, 1]))]   # as embed_pairs
    p = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs),
                                    max_size=len(pairs))), dtype=float)
    model, embedded = _verdicts(pairs, p)
    resolved = resolve_labels(model, labels, embedded)
    assert len(collect_inconsistent(resolved)) == 0
    # the clamped verdicts added in pair-table order, one at a time
    clamped = clamp_prob(p)
    total, count = np.zeros(n), np.zeros(n, dtype=int)
    for k, verdict in zip(pairs[:, 0].tolist(), clamped.tolist()):
        total[k] += verdict
        count[k] += 1
    paired = count > 0
    np.testing.assert_array_equal(resolved[:, ~paired], labels[:, ~paired])
    np.testing.assert_array_equal(resolved[0, paired],
                                  total[paired] / count[paired] >= 0.5)
    # one view against the rest: as the pair-by-pair writes and fallback
    ones = labels.sum(axis=0)
    lone = paired & ((ones == 1) | (ones == views - 1))
    np.testing.assert_array_equal(resolved[:, lone],
                                  _pair_by_pair(labels, pairs, clamped)[:, lone])


def test_export_difficulty(tmp_path):
    ds, parts, labels, pairs = toy_inconsistent_setup()
    path = tmp_path / "difficulty.csv"
    export_difficulty(parts, labels, labels, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_index,view,region,raw_label,resolved_label"
    assert len(lines) == 1 + 2 * ds.n
    for row, line in enumerate(lines[1:]):
        k, v, region, raw, resolved = line.split(",")
        k, v = int(k), int(v)
        part = parts[v]
        assert (k, v) == (row % ds.n, row // ds.n)
        assert region == ("A" if k == part.anchor_index else
                          "P" if k in part.positive else
                          "N" if k in part.negative else "?")
        assert int(raw) == int(resolved) == labels[v, k]


def test_embedder_nets_share_one_flat_vector():
    model = build_reconciler([4, 3, 5], np.random.default_rng(0),
                             embed_width=6, head_width=7)
    nets = {"trunk": model.trunk, **model.view_heads, **model.pair_heads}
    assert len(nets) == 1 + 3 + 3 and nets.keys() == model.embed_slices.keys()
    covered = np.zeros(model.embed_params.size, dtype=int)
    for key, net in nets.items():
        assert net.params.flat.base is model.embed_params
        for block in net.params.weights + net.params.biases:
            assert np.shares_memory(block, model.embed_params)
        sl = model.embed_slices[key]
        model.embed_params[sl] = np.arange(net.spec.size)
        np.testing.assert_array_equal(net.params.flat, np.arange(net.spec.size))
        covered[sl] += 1
    np.testing.assert_array_equal(covered, 1)   # the slices tile the vector
    assert not np.shares_memory(model.classifier.params.flat, model.embed_params)


def test_classifier_pass_matches_full_pass(monkeypatch):
    # each step computes one half of the classifier's backward, bitwise
    # what the full backward gives for it
    ds, _, _, pairs = toy_inconsistent_setup()
    model = build_reconciler([6, 4], np.random.default_rng(0))
    stacked = _stack_batch(ds, pairs[:8])
    embed_step = _batch_losses_and_grads(model, stacked)
    cls_step = _batch_losses_and_grads(model, stacked, embedder=False)
    assert cls_step[:2] == embed_step[:2]
    assert embed_step[3] is None and cls_step[2] is None

    def full_backward(cache, grad_out, out=None, **flags):
        return Net.backward(model.classifier, cache, grad_out, out)

    monkeypatch.setattr(model.classifier, "backward", full_backward)
    want_embed = _batch_losses_and_grads(model, stacked)[2]
    want_cls = _batch_losses_and_grads(model, stacked, embedder=False)[3]
    assert embed_step[2].tobytes() == want_embed.tobytes()
    assert cls_step[3].tobytes() == want_cls.tobytes()


def test_both_games_call_the_one_log_likelihood_once_per_call(monkeypatch):
    # the discriminator's value and the reconciler's L_adv are one function
    calls = Counter()
    for module in (difficulty, network):
        def counted(*args, fn=module.binary_log_likelihood,
                    name=module.__name__):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, "binary_log_likelihood", counted)
    ds, _, _, pairs = toy_inconsistent_setup()
    model = build_reconciler([6, 4], np.random.default_rng(0))
    stacked = _stack_batch(ds, pairs[:8])
    for embedder in (True, False):
        calls.clear()
        _batch_losses_and_grads(model, stacked, embedder=embedder)
        assert calls == {"mvclust.difficulty": 1}
    rng = np.random.default_rng(0)
    vn = network.build_model([4], 2, rng, hidden=(5,),
                             disc_hidden=(6, 4)).views[0]
    calls.clear()
    network.adversarial_losses(vn, rng.normal(size=(4, 4)),
                               rng.normal(size=(3, 4)))
    assert calls == {"mvclust.network": 1}


# --- batched pair passes against one-pair-at-a-time references -----------------

def _ref_embed(model, ds, k, i, j):
    """Embeddings of sample k's view-i member, view-j member and fused pair,
    one forward per net on that single pair."""
    x_i, x_j = ds.views[i][k:k + 1], ds.views[j][k:k + 1]
    e_i, _ = embed_rows(model, i, x_i)
    e_j, _ = embed_rows(model, j, x_j)
    e_f, _ = embed_rows(model, (i, j), np.concatenate([x_i, x_j], axis=1))
    return e_i, e_f, e_j


def _ref_resolve(model, ds, labels):
    """Each sample with pairs takes, in every view, the mean of its fused
    pairs' verdicts, added one pair at a time in pair-table order."""
    labels = labels.copy()
    total, count = Counter(), Counter()
    for k, i, j in collect_inconsistent(labels).tolist():
        e_f = _ref_embed(model, ds, k, i, j)[1]
        total[k] += float(clamp_prob(model.classifier.forward(e_f)[0])[0, 0])
        count[k] += 1
    for k in count:
        labels[:, k] = int(total[k] / count[k] >= 0.5)
    return labels


def _ref_direction_rate(model, ds, pairs):
    hits = 0
    for k, i, j in pairs:
        e_i, e_f, e_j = _ref_embed(model, ds, k, i, j)
        hits += int(((e_f - e_i) ** 2).sum() < ((e_f - e_j) ** 2).sum())
    return hits / len(pairs)


def _ref_agreement_rate(model, ds, pairs):
    agree = 0
    for k, i, j in pairs:
        e_i, _, e_j = _ref_embed(model, ds, k, i, j)
        p_i, _ = model.classifier.forward(e_i)
        p_j, _ = model.classifier.forward(e_j)
        agree += int((p_i[0, 0] >= 0.5) == (p_j[0, 0] >= 0.5))
    return agree / len(pairs)


def many_view_setup(views, n=60):
    """Views of 3, 4, 5, ... features whose labels leave some samples with
    several fused pairs."""
    rng = np.random.default_rng(0)
    ds = MultiViewDataset([rng.normal(size=(n, 3 + v)) for v in range(views)])
    parts = [build_partition(ds, v, 0, n // 2) for v in range(views)]
    labels = assignment_from_partitions(parts, 0.618)
    return ds, labels, collect_inconsistent(labels)


@pytest.mark.parametrize("views", [2, 3, 4])
def test_batched_pair_passes_match_per_pair_references(views):
    if views == 2:
        ds, _, labels, pairs = toy_inconsistent_setup()
    else:
        ds, labels, pairs = many_view_setup(views)
        assert np.bincount(pairs[:, 0]).max() > 1
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(13), learning_rate=1e-3)
    train_reconciler(model, ds, pairs, epochs=5, batch_size=16, t_steps=2, seed=2)

    ref_labels = _ref_resolve(model, ds, labels)
    embedded = embed_pairs(model, ds, pairs)
    np.testing.assert_array_equal(resolve_labels(model, labels, embedded),
                                  ref_labels)
    assert (similarity_direction_rate(embedded)
            == _ref_direction_rate(model, ds, pairs))
    assert (classifier_agreement_rate(model, embedded)
            == _ref_agreement_rate(model, ds, pairs))


def test_pair_passes_make_one_forward_per_net(monkeypatch):
    ds, labels, pairs = many_view_setup(3)
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(13))
    names = {id(net): key for key, net in
             (("trunk", model.trunk), ("classifier", model.classifier),
              *model.view_heads.items(), *model.pair_heads.items())}
    counts = Counter()
    forward = Net.forward

    def counted(net, x):
        counts[names[id(net)]] += 1
        return forward(net, x)

    monkeypatch.setattr(Net, "forward", counted)
    # pairs of groups (0, 1) and (0, 2) only: head (1, 2) has no rows
    some = pairs[(pairs[:, 1:] != (1, 2)).any(axis=1)]
    assert set(map(tuple, pairs[:, 1:].tolist())) == {(0, 1), (0, 2), (1, 2)}
    assert set(map(tuple, some[:, 1:].tolist())) == {(0, 1), (0, 2)}
    for fn_pairs in (pairs, some):
        groups = set(map(tuple, fn_pairs[:, 1:].tolist()))
        with_rows = groups | {v for group in groups for v in group}
        counts.clear()
        embedded = embed_pairs(model, ds, fn_pairs)
        assert counts == Counter({"trunk": 1, **{key: 1 for key in with_rows}})
        # the label writes and both diagnostics embed nothing again
        for fn, classifier in (
            (lambda: resolve_labels(model, labels, embedded), 1),
            (lambda: similarity_direction_rate(embedded), 0),
            (lambda: classifier_agreement_rate(model, embedded), 1),
        ):
            counts.clear()
            fn()
            assert counts == Counter({"classifier": classifier})


def test_batch_losses_are_the_loss_functions_on_one_group():
    ds, _, _, pairs = toy_inconsistent_setup()
    model = build_reconciler([6, 4], np.random.default_rng(0))
    batch = pairs[:8]            # two views: a single (0, 1) group
    ks = batch[:, 0]
    x_i, x_j = ds.views[0][ks], ds.views[1][ks]
    e_i, _ = embed_rows(model, 0, x_i)
    e_j, _ = embed_rows(model, 1, x_j)
    e_f, _ = embed_rows(model, (0, 1), np.concatenate([x_i, x_j], axis=1))
    p_i, _ = model.classifier.forward(e_i)
    p_j, _ = model.classifier.forward(e_j)
    l_sim, l_adv, _, _ = _batch_losses_and_grads(model, _stack_batch(ds, batch))
    k = len(batch)
    ref_sim = sum(max(0.0, model.margin + ((e_f[t] - e_i[t]) ** 2).sum()
                      - ((e_f[t] - e_j[t]) ** 2).sum()) for t in range(k)) / k
    ref_adv = -sum(model.pseudo_label * (math.log(a) + math.log(1.0 - b))
                   for a, b in zip(p_i.ravel(), p_j.ravel())) / k
    assert abs(l_sim - ref_sim) < 1e-12
    assert abs(l_adv - ref_adv) < 1e-12
    assert l_sim > 0.0 and l_adv > 0.0


# --- the stacked trainer pass against the per-group loop ----------------------

def _ref_batch_losses_and_grads(model, ds, batch):
    """The trainer's losses and gradients written as one pass per view-pair
    group: three trunk and two classifier forwards and backwards per group."""
    b = len(batch)
    g_embed = np.zeros(model.embed_params.size)
    g_cls = np.zeros(model.classifier.spec.size)
    sim_total = adv_total = 0.0
    alpha, beta, ell, m = (model.sim_weight, model.adv_weight,
                           model.pseudo_label, model.margin)
    groups = {}
    for k, i, j in batch:
        groups.setdefault((i, j), []).append(k)
    for (i, j), ks in sorted(groups.items()):
        x_i, x_j = ds.views[i][ks], ds.views[j][ks]
        e_i, cache_i = embed_rows(model, i, x_i)
        e_j, cache_j = embed_rows(model, j, x_j)
        e_f, cache_f = embed_rows(model, (i, j), np.hstack([x_i, x_j]))
        diff_i, diff_j = e_f - e_i, e_f - e_j
        s = m + (diff_i ** 2).sum(axis=1) - (diff_j ** 2).sum(axis=1)
        active = (s > 0.0).astype(float)[:, None]
        sim_total += np.maximum(0.0, s).sum()
        p_i, c_cls_i = model.classifier.forward(e_i)
        p_j, c_cls_j = model.classifier.forward(e_j)
        in_i = (p_i > 1e-7) & (p_i < 1 - 1e-7)
        in_j = (p_j > 1e-7) & (p_j < 1 - 1e-7)
        p_i, p_j = np.clip(p_i, 1e-7, 1 - 1e-7), np.clip(p_j, 1e-7, 1 - 1e-7)
        adv_total += -ell * (np.log(p_i).sum() + np.log(1.0 - p_j).sum())
        gc_i, dadv_ei = model.classifier.backward(c_cls_i, -ell / p_i * in_i)
        gc_j, dadv_ej = model.classifier.backward(c_cls_j,
                                                  ell / (1.0 - p_j) * in_j)
        g_cls += beta * (gc_i + gc_j) / b
        for e_grad, (c_head, c_trunk), head, key in (
            ((alpha * active * -2.0 * diff_i - beta * dadv_ei) / b, cache_i,
             model.view_heads[i], i),
            ((alpha * active * 2.0 * diff_j - beta * dadv_ej) / b, cache_j,
             model.view_heads[j], j),
            (alpha * active * 2.0 * (diff_i - diff_j) / b, cache_f,
             model.pair_heads[(i, j)], (i, j)),
        ):
            g_trunk, dh = model.trunk.backward(c_trunk, e_grad)
            g_embed[model.embed_slices["trunk"]] += g_trunk
            g_embed[model.embed_slices[key]] += head.backward(c_head, dh)[0]
    return sim_total / b, adv_total / b, g_embed, g_cls


def _assert_matches_reference(model, ds, batch):
    # the weight gradients sum their rows in another order, so an entry
    # that cancels to near zero may differ by a few ulps of the vector's
    # largest entry: the tolerance is relative to that entry
    # losses and embedder gradient of an embedder step, classifier
    # gradient of a classifier step
    stacked = _stack_batch(ds, batch)
    got = (*_batch_losses_and_grads(model, stacked)[:3],
           _batch_losses_and_grads(model, stacked, embedder=False)[3])
    want = _ref_batch_losses_and_grads(model, ds, batch)
    for value, ref in zip(got, want):
        np.testing.assert_allclose(value, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
    return got


@pytest.mark.parametrize("views", [2, 3, 4])
def test_stacked_pass_matches_per_group_loop(views):
    if views == 2:
        ds, _, _, pairs = toy_inconsistent_setup()
    else:
        ds, _, pairs = many_view_setup(views)
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(13), learning_rate=1e-3)
    train_reconciler(model, ds, pairs, epochs=2, batch_size=16, t_steps=2, seed=2)
    order = np.random.default_rng(4).permutation(len(pairs))
    batch = pairs[order[:24]]
    assert len({(i, j) for _, i, j in batch}) == views * (views - 1) // 2
    _assert_matches_reference(model, ds, batch)


def test_embedder_gradient_overwrites_a_given_buffer():
    ds, _, pairs = many_view_setup(3)
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(13))
    # group (0, 1) only: view 2 and pair heads (0, 2), (1, 2) have no rows
    stacked = _stack_batch(ds, pairs[(pairs[:, 1:] == (0, 1)).all(axis=1)][:6])
    assert {key for key, _ in stacked.heads} == {0, 1, (0, 1)}
    want = _batch_losses_and_grads(model, stacked)
    buf = np.full(model.embed_params.size, np.nan)
    got = _batch_losses_and_grads(model, stacked, out=buf)
    assert got[2] is buf and buf.tobytes() == want[2].tobytes()
    assert got[:2] == want[:2] and got[3] is want[3] is None
    assert (buf[model.embed_slices[(0, 2)]] == 0.0).all()


def test_stacked_pass_leaves_heads_without_rows_at_zero():
    ds, _, pairs = many_view_setup(4)
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(13))
    # groups (0, 1) and (0, 2) only: view 3 and four view pairs have no rows
    batch = np.concatenate([pairs[(pairs[:, 1:] == (0, 1)).all(axis=1)][:5],
                            pairs[(pairs[:, 1:] == (0, 2)).all(axis=1)][:3]])
    _, _, g_embed, _ = _assert_matches_reference(model, ds, batch)
    for key, sl in model.embed_slices.items():
        empty = key in (3, (0, 3), (1, 2), (1, 3), (2, 3))
        assert (g_embed[sl] == 0.0).all() == empty, key


# --- heads whose gradient is exactly zero --------------------------------------

def test_pair_head_with_an_inactive_hinge_runs_no_backward(monkeypatch):
    # a pair head gets gradient only from L_sim, so when the hinge is
    # inactive on all its rows its slice is zero-filled, not backpropagated
    ds, _, pairs = many_view_setup(4)
    # seed 14 keeps every relu and the hinge away from their kinks
    model = build_reconciler([v.shape[1] for v in ds.views],
                             np.random.default_rng(14), embed_width=6,
                             head_width=7)
    embedded = embed_pairs(model, ds, pairs)
    diff_i = embedded.e_f - embedded.e_i
    diff_j = embedded.e_f - embedded.e_j
    s = model.margin + (diff_i ** 2).sum(1) - (diff_j ** 2).sum(1)
    group = (embedded.pairs[:, 1:] == (0, 1)).all(axis=1)
    quiet = embedded.pairs[group & (s < -1e-3)][:4]
    live = embedded.pairs[~group & (s > 1e-3)][:8]
    assert len(quiet) == 4 and len(live) == 8
    stacked = _stack_batch(ds, np.concatenate([quiet, live]))
    with_rows = {key for key, _ in stacked.heads}
    assert (0, 1) in with_rows

    names = {id(net): key for key, net in
             (("trunk", model.trunk), ("classifier", model.classifier),
              *model.view_heads.items(), *model.pair_heads.items())}
    counts = Counter()
    backward = Net.backward

    def counted(net, *args, **kwargs):
        counts[names[id(net)]] += 1
        return backward(net, *args, **kwargs)

    monkeypatch.setattr(Net, "backward", counted)
    zero = []
    _, _, g_embed, _ = _batch_losses_and_grads(model, stacked, zero=zero)
    ran = with_rows - {(0, 1)}
    assert counts == Counter({"trunk": 1, "classifier": 1,
                              **{key: 1 for key in ran}})
    assert sorted(sl.start for sl in zero) == sorted(
        sl.start for key, sl in model.embed_slices.items()
        if key not in ran | {"trunk"})
    assert (g_embed[model.embed_slices[(0, 1)]] == 0.0).all()

    # the skipped backward leaves the gradient what the per-group loop and
    # finite differences give
    monkeypatch.undo()
    _assert_matches_reference(model, ds, np.concatenate([quiet, live]))
    alpha, beta = model.sim_weight, model.adv_weight

    def j_value():
        l_sim, l_adv, _, _ = _batch_losses_and_grads(model, stacked)
        return alpha * l_sim - beta * l_adv

    assert_grads_close([g_embed], numerical_grads(j_value, [model.embed_params]))


def _ref_minimax_epoch(model, ds, pairs, batch_size, t_steps, rng):
    """``minimax_epoch`` with plain Adam calls on the full gradient."""
    order = rng.permutation(len(pairs))
    for start in range(0, len(pairs), batch_size):
        stacked = _stack_batch(ds, pairs[order[start:start + batch_size]])
        for _ in range(t_steps):
            g_embed = _batch_losses_and_grads(model, stacked)[2]
            adam_step(model.embed_opt, model.embed_params, g_embed)
        g_cls = _batch_losses_and_grads(model, stacked, embedder=False)[3]
        adam_step(model.cls_opt, model.classifier.params.flat, g_cls)


def test_minimax_epochs_that_skip_zero_slices_match_plain_adam(monkeypatch):
    # Adam skips zero slices only on a vector longer than ADAM_CHUNK; this
    # embedder has 11,488 parameters, so the chunk is shrunk to 1024
    monkeypatch.setattr("mvclust.nets.ADAM_CHUNK", 1 << 10)
    ds, _, pairs = many_view_setup(4)
    model, ref = (build_reconciler([v.shape[1] for v in ds.views],
                                   np.random.default_rng(13),
                                   learning_rate=1e-2) for _ in range(2))
    paths = Counter()

    def recorded(state, params, grads, zero=()):
        for sl in zero:
            paths["once live" if state.m is not None and state.m[sl].any()
                  else "never live"] += 1
        adam_step(state, params, grads, zero=zero)

    monkeypatch.setattr(difficulty, "adam_step", recorded)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        minimax_epoch(model, ds, pairs, 8, 2, rng)
        _ref_minimax_epoch(ref, ds, pairs, 8, 2, ref_rng)
    assert paths["once live"] > 0 and paths["never live"] > 0
    assert model.embed_params.tobytes() == ref.embed_params.tobytes()
    assert (model.classifier.params.flat.tobytes()
            == ref.classifier.params.flat.tobytes())
    for got, want in ((model.embed_opt.m, ref.embed_opt.m),
                      (model.embed_opt.v, ref.embed_opt.v)):
        np.testing.assert_array_equal(got, want)
