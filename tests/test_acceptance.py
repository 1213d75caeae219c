"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from mvclust.cluster import accuracy, evaluate, kmeans, nmi, purity
from mvclust.data import (MultiViewDataset, NeighborPartition, build_partition,
                          make_synthetic)
from mvclust.difficulty import (_batch_losses_and_grads, _hinge, _stack_batch,
                                assign_difficulty, build_reconciler)
from mvclust.nets import binary_log_likelihood
from mvclust.network import (GOLDEN_SECTION, adversarial_losses,
                             ae_loss_closed, ae_loss_open, build_model, gate)
from mvclust.pipeline import export_embeddings, load_config, run
from mvclust.sampling import PaceSchedule, compute_probabilities, pace_value

from conftest import embed_rows, numerical_grads, rel_err
from test_difficulty import partition_from_distances
from test_sampling import random_premise_partition


def _verdict(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


# --- criterion 1: straight-line equation oracles -----------------------------

def _oracle_difficulty(rng):
    for _ in range(25):
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
                assert labels[s] == 0
            elif s in part.negative:
                assert labels[s] == (0 if d[s] > mu * d_max_n else 1)
            else:
                assert labels[s] == (0 if d[s] < mu * d_max_p else 1)


def _oracle_adv_loss(rng):
    for _ in range(25):
        k = int(rng.integers(1, 12))
        f_i = rng.uniform(0.01, 0.99, size=k)
        f_j = rng.uniform(0.01, 0.99, size=k)
        ell = float(rng.uniform(0.0, 1.0))
        ref = -sum(ell * (math.log(a) + math.log(1.0 - b))
                   for a, b in zip(f_i, f_j)) / k
        sum_i, sum_j, grad_i, grad_j = binary_log_likelihood(f_i, f_j, ell)
        assert rel_err(-ell * (sum_i + sum_j) / k, ref) < 1e-12
        assert rel_err(sum_i, sum(math.log(a) for a in f_i)) < 1e-12
        assert rel_err(sum_j, sum(math.log(1.0 - b) for b in f_j)) < 1e-12
        assert rel_err(grad_i, [-ell / a for a in f_i]) < 1e-12
        assert rel_err(grad_j, [ell / (1.0 - b) for b in f_j]) < 1e-12


def _oracle_sim_loss(rng):
    for _ in range(25):
        k = int(rng.integers(1, 10))
        p = int(rng.integers(2, 8))
        e_i = rng.normal(size=(k, p))
        e_f = rng.normal(size=(k, p))
        e_j = rng.normal(size=(k, p))
        m = float(rng.uniform(0.0, 0.2))
        ref = sum(max(0.0, m + ((e_f[t] - e_i[t]) ** 2).sum()
                      - ((e_f[t] - e_j[t]) ** 2).sum()) for t in range(k)) / k
        assert rel_err(_hinge(e_i, e_f, e_j, m)[0] / k, ref) < 1e-12


def _oracle_easy_prob(rng):
    for _ in range(25):
        d = float(rng.uniform(0.01, 5.0))
        d_max = float(rng.uniform(d, 10.0))
        # anchor at 0, P = {d}, N = {d, d_max}, every sample easy
        part = NeighborPartition(0, np.array([1]), np.array([2, 3]),
                                 np.array([0.0, d, d, d_max]))
        probs = compute_probabilities(np.zeros((1, 4), dtype=int), [part])[0]
        assert rel_err(probs[1], 1.0 - d / d_max) < 1e-12
        assert rel_err(probs[2], d / d_max) < 1e-12


def _oracle_hard_prob(rng):
    for _ in range(25):
        k = int(rng.integers(2, 15))
        d = rng.uniform(0.1, 5.0, size=k)
        med = float(np.median(d))
        total = float(d.sum())
        t = int(rng.integers(k))
        # P = the k distances, all difficult; one easy N sample beyond them
        # has probability 1, so no difficult value is clamped
        part = NeighborPartition(0, np.arange(1, k + 1), np.array([k + 1]),
                                 np.concatenate([[0.0], d, [2.0 * d.max()]]))
        labels = np.array([[0] + [1] * k + [0]])
        probs = compute_probabilities(labels, [part])[0]
        assert rel_err(probs[1 + t], abs(d[t] - med) / total) < 1e-12


def _oracle_pace(rng):
    for _ in range(25):
        n = int(rng.integers(20, 80))
        max_epochs = int(rng.integers(10, 200))
        probs = rng.uniform(size=n)
        sched = PaceSchedule(max_epochs=max_epochs, initial_fraction=0.05,
                             full_inclusion_epoch_fraction=0.8)
        rank = int(np.ceil(0.05 * n)) - 1
        lam0 = np.sort(probs)[::-1][rank]
        epoch = int(rng.integers(max_epochs))
        ref = lam0 * max(0.0, 1.0 - epoch / (0.8 * max_epochs))
        assert rel_err(pace_value(sched, epoch, probs), ref) < 1e-12


def _oracle_gate(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5000))
        count = int(rng.integers(0, n + 1))
        assert gate(count, n) == (count > (math.sqrt(5) - 1) / 2 * n)


def _oracle_ae_closed(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        model = build_model([d], p, rng, hidden=(5,))
        vn = model.views[0]
        x = rng.normal(size=(int(rng.integers(1, 5)), d))
        z, _ = vn.encoder.forward(x)
        x_hat, _ = vn.generator.forward(z)
        ref = sum(((x[b] - x_hat[b]) ** 2).sum() for b in range(len(x))) / len(x)
        assert rel_err(ae_loss_closed(vn, x)[0], ref) < 1e-12


def _oracle_ae_open(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        v = int(rng.integers(2, 5))
        model = build_model([d], p, rng, hidden=(5,))
        vn = model.views[0]
        b = int(rng.integers(1, 5))
        x = rng.normal(size=(b, d))
        z = rng.normal(size=(b, p))
        z_i, _ = vn.encoder.forward(x)
        x_hat, _ = vn.generator.forward(z_i)
        x_tilde, _ = vn.generator.forward(z)
        ref = sum(((x[t] - x_hat[t]) ** 2).sum()
                  + (1.0 / v) * (((x[t] - x_tilde[t]) ** 2).sum()
                                 + ((z_i[t] - z[t]) ** 2).sum())
                  for t in range(b)) / b
        assert rel_err(ae_loss_open(vn, x, z, v, vn.encoder.forward(x))[0],
                       ref) < 1e-12


def test_criterion_1_equation_oracles():
    def body():
        started = time.monotonic()
        rng = np.random.default_rng(1001)
        _oracle_difficulty(rng)
        _oracle_adv_loss(rng)
        _oracle_sim_loss(rng)
        _oracle_easy_prob(rng)
        _oracle_hard_prob(rng)
        _oracle_pace(rng)
        _oracle_gate(rng)
        _oracle_ae_closed(rng)
        _oracle_ae_open(rng)
        assert time.monotonic() - started < 10.0

    _verdict(1, "equation oracles match straight-line re-implementations",
             body)


# --- criterion 2: easy-before-difficult ordering under the premise -----------

def test_criterion_2_ordering_theorem():
    def body():
        started = time.monotonic()
        rng = np.random.default_rng(2026)
        violations = 0
        for _ in range(1000):
            part, labels, easy, hard = random_premise_partition(rng)
            p = compute_probabilities(labels, [part, part])[0]
            if p[easy].min() <= p[hard].max():
                violations += 1
        assert violations == 0
        assert time.monotonic() - started < 30.0

    _verdict(2, "min easy probability > max difficult probability on 1000 "
                "premise-respecting partitions", body)


# --- criterion 3: finite-difference gradient checks --------------------------

def _relu_margin(net, cache):
    """Smallest |pre-activation| over the relu layers of one forward pass of
    ``net``, recomputed from the cached layer inputs as the forward does."""
    margin = np.inf
    for a, w, b, act in zip(cache, net.params.weights, net.params.biases,
                            net.spec.activations):
        if act == "relu":
            z = a @ w
            z += b
            margin = min(margin, float(np.abs(z).min()))
    return margin


def _smoothness_margin(model, ds, batch):
    """How far this point sits from every kink (hinge and relu) of the
    objective; FD is only trustworthy away from them."""
    margin = np.inf
    for k, i, j in batch:
        x_i = ds.views[i][k:k + 1]
        x_j = ds.views[j][k:k + 1]
        e_i, (ch_i, ct_i) = embed_rows(model, i, x_i)
        e_j, (ch_j, ct_j) = embed_rows(model, j, x_j)
        e_f, (ch_f, ct_f) = embed_rows(model, (i, j), np.hstack([x_i, x_j]))
        s = model.margin + ((e_f - e_i) ** 2).sum() - ((e_f - e_j) ** 2).sum()
        margin = min(margin, abs(float(s)))
        for e in (e_i, e_j):
            _, c_cls = model.classifier.forward(e)
            margin = min(margin, _relu_margin(model.classifier, c_cls))
        for head, c in ((model.view_heads[i], ch_i), (model.view_heads[j], ch_j),
                        (model.pair_heads[(i, j)], ch_f)):
            margin = min(margin, _relu_margin(head, c))
        for c in (ct_i, ct_j, ct_f):
            margin = min(margin, _relu_margin(model.trunk, c))
    return margin


def _reconciler_setup(seed):
    while True:
        rng = np.random.default_rng(seed)
        views = [rng.normal(size=(12, 3)), rng.normal(size=(12, 4))]
        ds = MultiViewDataset(views)
        model = build_reconciler([3, 4], rng, embed_width=4, head_width=6)
        batch = np.array([(k, 0, 1) for k in rng.choice(12, size=4, replace=False)])
        if _smoothness_margin(model, ds, batch) > 1e-3:
            return ds, model, batch
        seed += 1000  # re-draw away from the kink


def _check_close(analytic, numeric, tol=1e-4):
    for a, b in zip(analytic, numeric):
        assert rel_err(a, b) < tol


def _net_relu_margin(net, x):
    _, cache = net.forward(x)
    return _relu_margin(net, cache)


def _gan_setup(seed):
    while True:
        rng = np.random.default_rng(seed)
        model = build_model([4], 3, rng, hidden=(5,), disc_hidden=(6, 4))
        vn = model.views[0]
        x = rng.normal(size=(4, 4))
        z = rng.normal(size=(4, 3))
        fake = rng.normal(size=(4, 4))
        z_i, _ = vn.encoder.forward(x)
        fk, _ = vn.generator.forward(z)
        margin = min(
            _net_relu_margin(vn.encoder, x),
            _net_relu_margin(vn.generator, z_i),
            _net_relu_margin(vn.generator, z),
            _net_relu_margin(vn.discriminator, x),
            _net_relu_margin(vn.discriminator, fake),
            _net_relu_margin(vn.discriminator, fk),
        )
        if margin > 1e-3:
            return vn, x, z, fake
        seed += 1000  # re-draw away from the relu kinks


def test_criterion_3_gradient_checks():
    def body():
        started = time.monotonic()
        for point in range(10):
            ds, model, batch = _reconciler_setup(300 + point)
            stacked = _stack_batch(ds, batch)
            alpha, beta = model.sim_weight, model.adv_weight

            # embedder gradients of the reconciliation objective
            def j_value():
                s, a, _, _ = _batch_losses_and_grads(model, stacked)
                return alpha * s - beta * a

            _, _, embed_grads, _ = _batch_losses_and_grads(model, stacked)
            _check_close([embed_grads],
                         numerical_grads(j_value, [model.embed_params]))

            # classifier gradients of the (weighted) classification loss
            def adv_value():
                _, a, _, _ = _batch_losses_and_grads(model, stacked)
                return beta * a

            cls_grads = _batch_losses_and_grads(model, stacked,
                                                embedder=False)[3]
            _check_close([cls_grads],
                         numerical_grads(adv_value,
                                         [model.classifier.params.flat]))

        for point in range(10):
            vn, x, z, fake = _gan_setup(400 + point)

            enc_gen = [vn.encoder.params.flat, vn.generator.params.flat]
            _, g_enc, g_gen = ae_loss_closed(vn, x)
            _check_close(
                [g_enc, g_gen],
                numerical_grads(lambda: ae_loss_closed(vn, x)[0], enc_gen))

            # the loss encodes inside, so the encoder's gradient is checked
            _, g_enc, g_gen = ae_loss_open(vn, x, z, 2, vn.encoder.forward(x))
            _check_close(
                [g_enc, g_gen],
                numerical_grads(
                    lambda: ae_loss_open(vn, x, z, 2, vn.encoder.forward(x))[0],
                    enc_gen))

            def neg_disc_value():
                p_real = np.clip(vn.discriminator.forward(x)[0], 1e-7, 1 - 1e-7)
                p_fake = np.clip(vn.discriminator.forward(fake)[0], 1e-7, 1 - 1e-7)
                return -(float(np.log(p_real).mean())
                         + float(np.log(1 - p_fake).mean()))

            _, disc_grads, _, _ = adversarial_losses(vn, x, fake)
            _check_close([disc_grads],
                         numerical_grads(neg_disc_value,
                                         [vn.discriminator.params.flat]))

            def gen_value():
                fk = vn.generator.forward(z)[0]
                p = np.clip(vn.discriminator.forward(fk)[0], 1e-7, 1 - 1e-7)
                return float(np.log(1 - p).mean())

            fk, cache_g = vn.generator.forward(z)
            _, _, _, d_fake = adversarial_losses(vn, x, fk)
            g_gen_adv, _ = vn.generator.backward(cache_g, d_fake)
            _check_close([g_gen_adv],
                         numerical_grads(gen_value, [vn.generator.params.flat]))

        assert time.monotonic() - started < 60.0

    _verdict(3, "all trainable losses pass central finite-difference checks",
             body)


# --- criterion 4: golden-section gate ----------------------------------------

def test_criterion_4_gate_flip():
    def body():
        sigma = (math.sqrt(5.0) - 1.0) / 2.0
        assert abs(GOLDEN_SECTION - sigma) < 1e-15
        for n in range(1, 10001):
            flip = math.floor(sigma * n) + 1  # sigma*n is never an integer
            assert gate(flip, n)
            assert not gate(flip - 1, n)

    _verdict(4, "gate flips exactly at count > sigma*N for all N in 1..10^4",
             body)


# --- criterion 5: k-means vs exhaustive enumeration --------------------------

def test_criterion_5_kmeans_oracle():
    def body():
        started = time.monotonic()
        rng = np.random.default_rng(55)
        for trial in range(30):
            n = int(rng.integers(4, 9))
            x = rng.normal(size=(n, 2))
            model = kmeans(x, 2, seed=trial, restarts=20)
            best = np.inf
            for labels in itertools.product(range(2), repeat=n):
                labels = np.array(labels)
                total = 0.0
                for j in range(2):
                    members = x[labels == j]
                    if len(members):
                        total += ((members - members.mean(axis=0)) ** 2).sum()
                best = min(best, total)
            assert abs(model.objective - best) < 1e-6
        assert time.monotonic() - started < 10.0

    _verdict(5, "k-means matches the enumerated optimum on 30 small instances",
             body)


# --- criterion 6: metric suite -----------------------------------------------

# rows = predicted clusters, columns = true classes; reference values frozen
# from an independent hand computation
_METRIC_TABLES = [
    ([[5, 1], [2, 4]], 0.75, 0.1977098187945652, 0.75),
    ([[4, 0], [0, 3]], 1.0, 1.0, 1.0),
    ([[3, 3], [3, 3]], 0.5, 0.0, 0.5),
    ([[6, 0, 0], [0, 5, 1], [1, 0, 5]], 16.0 / 18.0, 0.7211798981849101,
     16.0 / 18.0),
    ([[2, 0], [0, 3], [1, 1]], 5.0 / 7.0, 0.5648478646806308, 6.0 / 7.0),
]


def _labels_from_table(table):
    pred, truth = [], []
    for r, row in enumerate(table):
        for c, count in enumerate(row):
            pred += [r] * count
            truth += [c] * count
    return np.array(pred), np.array(truth)


def test_criterion_6_metric_suite():
    def body():
        for table, ref_acc, ref_nmi, ref_pur in _METRIC_TABLES:
            pred, truth = _labels_from_table(table)
            assert abs(accuracy(pred, truth) - ref_acc) < 1e-10
            assert abs(nmi(pred, truth) - ref_nmi) < 1e-10
            assert abs(purity(pred, truth) - ref_pur) < 1e-10
        rng = np.random.default_rng(66)
        for _ in range(200):
            n = int(rng.integers(5, 60))
            c = int(rng.integers(2, 6))
            pred = rng.integers(0, c, size=n)
            truth = rng.integers(0, c, size=n)
            assert purity(pred, truth) >= accuracy(pred, truth) - 1e-12

    _verdict(6, "metrics reproduce hand-computed contingency values; "
                "purity dominates accuracy", body)


# --- end-to-end criteria -----------------------------------------------------

def _write_config(path, manifest, out, seed=0, variant="FULL", epochs=60,
                  learning_rate=1e-4, reconcile_epochs=30):
    path.write_text(
        "[experiment]\n"
        f"manifest = {manifest}\n"
        f"out = {out}\n"
        f"seed = {seed}\n"
        f"variant = {variant}\n"
        "[reconcile]\n"
        f"epochs = {reconcile_epochs}\n"
        "[network]\n"
        f"epochs = {epochs}\n"
        "latent_width = 8\n"
        "hidden = 64,32\n"
        f"learning_rate = {learning_rate}\n"
    )
    return str(path)


def test_criterion_7_synthetic_end_to_end(tmp_path):
    def body():
        started = time.monotonic()
        passing = 0
        for seed in range(5):
            manifest = make_synthetic(str(tmp_path / f"data{seed}"), 3, 300,
                                      views=2, noise=0.1, seed=seed)
            cfg_path = _write_config(tmp_path / f"c{seed}.cfg", manifest,
                                     tmp_path / f"run{seed}", seed=seed)
            report = run(load_config(cfg_path))
            if report.metrics.acc >= 0.95:
                passing += 1
        assert passing >= 4, f"only {passing}/5 seeds reached ACC >= 0.95"
        assert time.monotonic() - started < 120.0

    _verdict(7, "FULL reaches ACC >= 0.95 on clean blobs for >= 4 of 5 seeds "
                "inside 2 minutes", body)


def test_criterion_8_ablation_ordering(tmp_path):
    def body():
        manifest = make_synthetic(str(tmp_path / "data"), 3, 300, views=2,
                                  noise=0.2, seed=7, outlier_fraction=0.25,
                                  outlier_scale=6.0)
        medians = {}
        for variant in ("NONE", "CS", "AIS+CS", "FULL"):
            accs = []
            for seed in range(5):
                cfg_path = _write_config(
                    tmp_path / f"{variant}_{seed}.cfg", manifest,
                    tmp_path / f"run_{variant.replace('+', '_')}_{seed}",
                    seed=seed, variant=variant, epochs=80, learning_rate=1e-3)
                accs.append(run(load_config(cfg_path)).metrics.acc)
            medians[variant] = float(np.median(accs))
        print("  ablation medians:", {k: round(v, 3) for k, v in medians.items()})
        assert medians["NONE"] < 0.9, "benchmark too easy to separate variants"
        assert medians["FULL"] >= medians["AIS+CS"] - 1e-12
        assert medians["AIS+CS"] >= medians["CS"] - 1e-12
        assert medians["CS"] >= medians["NONE"] - 1e-12
        assert medians["FULL"] > medians["NONE"]

    _verdict(8, "median ACC ordering FULL >= AIS+CS >= CS >= NONE with "
                "strict FULL > NONE on the noisy benchmark", body)


def test_criterion_9_schedule_endpoints_and_reference_dataset(tmp_path):
    def body():
        # schedule endpoints on a synthetic FULL run
        manifest = make_synthetic(str(tmp_path / "data"), 3, 200, views=2,
                                  noise=0.1, seed=3)
        cfg_path = _write_config(tmp_path / "c.cfg", manifest,
                                 tmp_path / "run", epochs=50)
        report = run(load_config(cfg_path))
        n = 200
        first = report.log_rows[0]["mask_size"]
        assert math.ceil(0.05 * n) <= first <= math.ceil(0.05 * n) + 2, \
            f"epoch-0 selection {first} is not ~5% of {n}"
        for row in report.log_rows:
            if row["epoch"] >= 0.8 * 50:
                assert row["mask_size"] == n
        assert report.log_rows[-1]["mask_size"] == n

        hw = os.environ.get("MVCLUST_HW_MANIFEST")
        if not hw and os.path.exists("data/hw/manifest.txt"):
            hw = "data/hw/manifest.txt"
        if not hw:
            print("  reference handwritten-digits dataset not provided; "
                  "desk-scale accuracy bound not exercised")
            return
        started = time.monotonic()
        cfg_path = _write_config(tmp_path / "hw.cfg", hw, tmp_path / "hw_run",
                                 epochs=300)
        report = run(load_config(cfg_path))
        assert report.metrics.acc >= 0.85
        assert time.monotonic() - started < 1800.0

    _verdict(9, "~5% of samples selected at epoch 0 and 100% by 0.8*max "
                "epochs; reference dataset bound when data is available", body)


def test_criterion_10_determinism(tmp_path):
    def body():
        manifest = make_synthetic(str(tmp_path / "data"), 3, 150, views=2,
                                  noise=0.1, seed=11)
        for tag in ("a", "b"):
            cfg_path = _write_config(tmp_path / f"{tag}.cfg", manifest,
                                     tmp_path / tag, epochs=30)
            run(load_config(cfg_path))
            export_embeddings(str(tmp_path / tag))
        for name in ("metrics.txt", "embeddings.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    _verdict(10, "identical FULL runs produce byte-identical metric reports "
                 "and embedding exports", body)
