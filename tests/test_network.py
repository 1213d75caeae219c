import logging

import numpy as np
import pytest

from mvclust import nets
from mvclust.data import MultiViewDataset, make_synthetic, load_manifest
from mvclust.errors import ShapeError
from mvclust.nets import MlpParams, MlpSpec, Net, adam_step, clamp_prob
from mvclust.network import (GOLDEN_SECTION, ViewNets, _ViewOptimizers,
                             _gan_round, adversarial_losses, ae_loss_closed,
                             ae_loss_open, build_model, fuse_subspace, gate,
                             save_checkpoint, train, write_training_log)
from mvclust.sampling import PaceSchedule, pace_value, selection_mask

from conftest import assert_grads_close, numerical_grads, rel_err


def one_layer(w, activation):
    """A one-layer net with weights ``w`` and zero biases."""
    spec = MlpSpec(w.shape, (activation,))
    return Net(spec, MlpParams(np.concatenate([w.ravel(), np.zeros(w.shape[1])]),
                               spec.layout))


def identity_view(width):
    return ViewNets(one_layer(np.eye(width), "identity"),
                    one_layer(np.eye(width), "identity"),
                    one_layer(np.zeros((width, 1)), "sigmoid"))


def test_golden_section_value():
    assert abs(GOLDEN_SECTION - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_gate_hand_values():
    assert gate(62, 100) is True          # 62 > 61.8
    assert gate(61, 100) is False
    assert gate(0, 100) is False


def test_gate_bounds():
    with pytest.raises(ShapeError):
        gate(5, 0)
    with pytest.raises(ShapeError):
        gate(11, 10)


def test_gate_flip_exact():
    for n in range(1, 2000):
        threshold = GOLDEN_SECTION * n
        above = int(np.ceil(threshold))
        if above > threshold:
            assert gate(above, n)
        if above - 1 >= 0:
            assert not gate(above - 1, n)


def test_ae_closed_identity_nets(rng):
    vn = identity_view(3)
    loss, g_enc, g_gen = ae_loss_closed(vn, rng.normal(size=(5, 3)))
    assert loss == 0.0


def test_ae_closed_zero_generator_unit_rows():
    vn = identity_view(3)
    vn.generator.params.weights[0][:] = 0.0
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    loss, _, _ = ae_loss_closed(vn, x)
    assert abs(loss - 1.0) < 1e-12


def test_ae_closed_gradients_match_fd(rng):
    model = build_model([5], 3, rng, hidden=(6,), disc_hidden=(4, 3))
    vn = model.views[0]
    x = rng.normal(size=(4, 5))

    def loss():
        return ae_loss_closed(vn, x)[0]

    _, g_enc, g_gen = ae_loss_closed(vn, x)
    flats = [vn.encoder.params.flat, vn.generator.params.flat]
    assert_grads_close([g_enc, g_gen], numerical_grads(loss, flats))


def test_ae_open_reduces_to_closed_when_z_matches(rng):
    model = build_model([5], 3, rng, hidden=(6,))
    vn = model.views[0]
    x = rng.normal(size=(4, 5))
    z_i, _ = vn.encoder.forward(x)
    closed, _, _ = ae_loss_closed(vn, x)
    x_hat, _ = vn.generator.forward(z_i)
    recon = float(((x - x_hat) ** 2).sum() / len(x))
    open_loss, _, _ = ae_loss_open(vn, x, z_i, 2, vn.encoder.forward(x))
    assert abs(open_loss - (closed + 0.5 * recon)) < 1e-10


def test_ae_open_matches_straightline(rng):
    model = build_model([4], 3, rng, hidden=(5,))
    vn = model.views[0]
    x = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 3))
    v = 2
    loss, _, _ = ae_loss_open(vn, x, z, v, vn.encoder.forward(x))
    z_i, _ = vn.encoder.forward(x)
    x_hat, _ = vn.generator.forward(z_i)
    x_tilde, _ = vn.generator.forward(z)
    ref = 0.0
    for b in range(3):
        ref += ((x[b] - x_hat[b]) ** 2).sum()
        ref += (1.0 / v) * (((x[b] - x_tilde[b]) ** 2).sum()
                            + ((z_i[b] - z[b]) ** 2).sum())
    ref /= 3
    assert rel_err(loss, ref) < 1e-12


def test_ae_open_gradients_match_fd(rng):
    model = build_model([4], 3, rng, hidden=(5,))
    vn = model.views[0]
    x = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 3))

    def loss():     # encodes inside, so the encoder's gradient is checked
        return ae_loss_open(vn, x, z, 2, vn.encoder.forward(x))[0]

    _, g_enc, g_gen = ae_loss_open(vn, x, z, 2, vn.encoder.forward(x))
    flats = [vn.encoder.params.flat, vn.generator.params.flat]
    assert_grads_close([g_enc, g_gen], numerical_grads(loss, flats))


def test_adversarial_value_at_half(rng):
    vn = identity_view(3)  # zero-weight sigmoid discriminator outputs 0.5
    x = rng.normal(size=(4, 3))
    d_val, _, g_val, _ = adversarial_losses(vn, x, x + 1.0)
    assert abs(d_val - 2.0 * np.log(0.5)) < 1e-12
    assert abs(g_val - np.log(0.5)) < 1e-12


def test_discriminator_gradients_match_fd(rng):
    model = build_model([4], 2, rng, hidden=(5,), disc_hidden=(6, 4))
    vn = model.views[0]
    x = rng.normal(size=(4, 4))
    fake = rng.normal(size=(4, 4))

    def neg_disc_value():
        p_real, _ = vn.discriminator.forward(x)
        p_fake, _ = vn.discriminator.forward(fake)
        p_real = np.clip(p_real, 1e-7, 1 - 1e-7)
        p_fake = np.clip(p_fake, 1e-7, 1 - 1e-7)
        return -(float(np.log(p_real).mean()) + float(np.log(1 - p_fake).mean()))

    _, disc_grads, _, _ = adversarial_losses(vn, x, fake)
    assert_grads_close([disc_grads],
                       numerical_grads(neg_disc_value, [vn.discriminator.params.flat]))


def test_generator_adversarial_gradients_match_fd(rng):
    model = build_model([4], 2, rng, hidden=(5,), disc_hidden=(6, 4))
    vn = model.views[0]
    x = rng.normal(size=(4, 4))
    z = rng.normal(size=(4, 2))

    def gen_value():
        fake, _ = vn.generator.forward(z)
        p_fake, _ = vn.discriminator.forward(fake)
        p_fake = np.clip(p_fake, 1e-7, 1 - 1e-7)
        return float(np.log(1 - p_fake).mean())

    fake, cache_g = vn.generator.forward(z)
    _, _, _, d_fake = adversarial_losses(vn, x, fake)
    g_gen, _ = vn.generator.backward(cache_g, d_fake)
    assert_grads_close([g_gen],
                       numerical_grads(gen_value, [vn.generator.params.flat]))


def test_adversarial_losses_makes_two_disc_forwards_and_three_backwards(
        monkeypatch, rng):
    # the benchmark's network.disc_backward_per_adv reads this count
    model = build_model([4], 2, rng, hidden=(5,), disc_hidden=(6, 4))
    vn = model.views[0]
    calls = {"mlp_forward": 0, "mlp_backward": 0}

    def counted(name):
        fn = getattr(nets, name)

        def wrapper(params, *args, **kwargs):
            if params is vn.discriminator.params:
                calls[name] += 1
            return fn(params, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(nets, name, counted(name))
    adversarial_losses(vn, rng.normal(size=(4, 4)), rng.normal(size=(3, 4)))
    assert calls == {"mlp_forward": 2, "mlp_backward": 3}


@pytest.mark.parametrize("b_real,b_fake", [(0, 3), (3, 0)])
def test_adversarial_losses_rejects_an_empty_batch(rng, b_real, b_fake):
    vn = build_model([4], 2, rng, hidden=(5,), disc_hidden=(6, 4)).views[0]
    with pytest.raises(ShapeError, match="^empty batch$"):
        adversarial_losses(vn, rng.normal(size=(b_real, 4)),
                           rng.normal(size=(b_fake, 4)))


def test_ae_open_rejects_common_rows_that_do_not_match_the_batch(rng):
    vn = build_model([4], 3, rng, hidden=(5,)).views[0]
    x = rng.normal(size=(3, 4))
    with pytest.raises(ShapeError,
                       match="^common-subspace rows do not match the batch$"):
        ae_loss_open(vn, x, rng.normal(size=(2, 3)), 2, vn.encoder.forward(x))


def test_fuse_subspace():
    a = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(fuse_subspace([a, a]), a)
    np.testing.assert_array_equal(fuse_subspace([np.zeros_like(a), 2 * a]), a)
    np.testing.assert_array_equal(fuse_subspace([a, 2 * a, 3 * a]),
                                  fuse_subspace([3 * a, a, 2 * a]))


@pytest.mark.parametrize("other", [(2, 2), (3, 3), (3,)])
def test_fuse_subspace_rejects_differing_latent_shapes(other):
    a = np.zeros((3, 2))
    with pytest.raises(ShapeError, match="^latent shapes differ across views: "):
        fuse_subspace([a, a, np.zeros(other)])


@pytest.mark.parametrize("n_views", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 10), (3000, 10)])
def test_fuse_subspace_is_bitwise_mean_of_stack(n_views, shape):
    rng = np.random.default_rng(n_views)
    zs = [rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
          for _ in range(n_views)]
    want = np.mean(np.stack(zs), axis=0)
    assert fuse_subspace(zs).tobytes() == want.tobytes()


@pytest.mark.parametrize("b_real,b_fake,scale", [(4, 3, 1.0), (64, 64, 1.0),
                                                 (16, 5, 30.0)])
def test_adversarial_values_and_fake_gradient_are_bitwise_references(
        b_real, b_fake, scale):
    # scale 30 saturates the discriminator, so some outputs are clamped
    rng = np.random.default_rng(b_real + b_fake)
    vn = build_model([6], 2, rng, hidden=(5,), disc_hidden=(8, 4)).views[0]
    x = scale * rng.normal(size=(b_real, 6))
    fake = scale * rng.normal(size=(b_fake, 6))
    d_val, _, g_val, d_fake = adversarial_losses(vn, x, fake)
    p_real = clamp_prob(vn.discriminator.forward(x)[0])
    p_raw, cache = vn.discriminator.forward(fake)
    p_fake = clamp_prob(p_raw)
    assert d_val == float(np.log(p_real).mean() + np.log(1.0 - p_fake).mean())
    assert g_val == float(np.log(1.0 - p_fake).mean())
    in_fake = ((p_raw > 1e-7) & (p_raw < 1.0 - 1e-7)).astype(float)
    _, want = vn.discriminator.backward(
        cache, -in_fake / (1.0 - p_fake) / b_fake, param_grad=False)
    assert d_fake.tobytes() == want.tobytes()


def blob_dataset(tmp_path, n=200, noise=0.1, seed=0, views=2):
    man = make_synthetic(str(tmp_path), 3, n, views=views, noise=noise, seed=seed)
    return load_manifest(man)


def test_train_lr_zero_keeps_parameters(tmp_path, rng):
    ds = blob_dataset(tmp_path)
    model = build_model([v.shape[1] for v in ds.views], 4, rng, hidden=(8,))
    before = [net.params.flat.copy() for vn in model.views
              for net in (vn.encoder, vn.generator, vn.discriminator)]
    sched = PaceSchedule(max_epochs=5)
    train(model, ds, np.ones(ds.n), sched, learning_rate=0.0, seed=0)
    after = [net.params.flat for vn in model.views
             for net in (vn.encoder, vn.generator, vn.discriminator)]
    for a, b in zip(after, before):
        np.testing.assert_array_equal(a, b)


def test_train_loss_decreases_and_gate_opens(tmp_path, rng):
    ds = blob_dataset(tmp_path, n=300)
    model = build_model([v.shape[1] for v in ds.views], 8, rng, hidden=(32, 16))
    probs = rng.uniform(0.2, 1.0, size=ds.n)
    sched = PaceSchedule(max_epochs=150)
    result = train(model, ds, probs, sched, learning_rate=1e-3, seed=0)
    first = sum(result.log_rows[0]["ae_loss"])
    last = sum(result.log_rows[-1]["ae_loss"])
    assert last < 0.25 * first
    # gate opens exactly when the mask first exceeds the golden section
    expected = next(r["epoch"] for r in result.log_rows
                    if r["mask_size"] > GOLDEN_SECTION * ds.n)
    assert result.gate_opened_epoch == expected
    # progressive inclusion: mask sizes never shrink
    sizes = [r["mask_size"] for r in result.log_rows]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert result.z.shape == (ds.n, 8)
    assert np.all(np.isfinite(result.z))


def test_training_log_written(tmp_path, rng):
    ds = blob_dataset(tmp_path, n=100, views=3)
    model = build_model([v.shape[1] for v in ds.views], 4, rng, hidden=(8,))
    sched = PaceSchedule(max_epochs=3)
    before = sorted(tmp_path.iterdir())
    result = train(model, ds, np.ones(ds.n), sched, seed=0)
    assert sorted(tmp_path.iterdir()) == before    # train writes no file
    log_path = tmp_path / "log.csv"
    write_training_log(result.log_rows, str(log_path))
    lines = log_path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == ("epoch,lambda,mask_size,gate,"
                        "ae_loss_v0,ae_loss_v1,ae_loss_v2,"
                        "disc_value_v0,disc_value_v1,disc_value_v2,"
                        "gen_value_v0,gen_value_v1,gen_value_v2")


# --- open-gate latent cache against a loop that re-encodes every view ---------

def _ref_train_open(model, ds, probs, sched, batch_size, lr, seed):
    """``train`` with the gate forced open, written as a loop that encodes
    every view again for each view's common-subspace round. Returns the
    common subspace and the log rows."""
    rng = np.random.default_rng(seed)
    opts = [_ViewOptimizers(lr) for _ in model.views]
    n_views = ds.n_views

    def fused(rows):
        return fuse_subspace([model.views[v].encoder.forward(ds.views[v][rows])[0]
                              for v in range(n_views)])

    z_full = np.zeros((ds.n, model.latent_width))
    ever_selected = np.zeros(ds.n, dtype=bool)
    log_rows = []
    for epoch in range(sched.max_epochs):
        lam = pace_value(sched, epoch, probs)
        selected = np.nonzero(selection_mask(probs, lam))[0]
        ever_selected[selected] = True
        z_full[selected] = fused(selected)
        order = rng.permutation(len(selected))
        ae_sums, adv_sums, n_batches = np.zeros(n_views), np.zeros((n_views, 2)), 0
        for start in range(0, len(selected), batch_size):
            idx = selected[order[start:start + batch_size]]
            n_batches += 1
            for i, (vn, opt) in enumerate(zip(model.views, opts)):
                x = ds.views[i][idx]
                loss, g_enc, g_gen = ae_loss_open(vn, x, z_full[idx], n_views,
                                                  vn.encoder.forward(x))
                adam_step(opt.encoder, vn.encoder.params.flat, g_enc)
                adam_step(opt.generator, vn.generator.params.flat, g_gen)
                ae_sums[i] += loss
                adv_sums[i] += _gan_round(vn, opt, x, vn.encoder.forward(x)[0],
                                          epoch, n_batches)
                z_full[idx] = fused(idx)
                adv_sums[i] += _gan_round(vn, opt, x, z_full[idx], epoch,
                                          n_batches)
        log_rows.append({
            "epoch": epoch, "lambda": lam, "mask_size": int(len(selected)),
            "gate": 1, "ae_loss": (ae_sums / n_batches).tolist(),
            "disc_value": (adv_sums[:, 0] / n_batches).tolist(),
            "gen_value": (adv_sums[:, 1] / n_batches).tolist(),
        })
    now = fused(np.arange(ds.n))
    z_full[~ever_selected] = now[~ever_selected]
    return z_full, log_rows


def three_view_setup(n=40):
    rng = np.random.default_rng(5)
    ds = MultiViewDataset([rng.normal(size=(n, d)) for d in (5, 4, 3)])
    return ds, rng.uniform(0.2, 1.0, size=n)


def test_open_gate_cache_matches_reencoding_loop():
    ds, probs = three_view_setup()
    sched = PaceSchedule(max_epochs=4)
    dims = [v.shape[1] for v in ds.views]
    model = build_model(dims, 3, np.random.default_rng(0), hidden=(6,))
    ref = build_model(dims, 3, np.random.default_rng(0), hidden=(6,))
    result = train(model, ds, probs, sched, batch_size=16,
                   learning_rate=1e-3, seed=2, force_gate_open=True)
    ref_z, ref_rows = _ref_train_open(ref, ds, probs, sched,
                                      batch_size=16, lr=1e-3, seed=2)
    assert result.gate_opened_epoch == 0
    assert result.z.tobytes() == ref_z.tobytes()
    assert result.log_rows == ref_rows
    for vn, ref_vn in zip(model.views, ref.views):
        for net, ref_net in ((vn.encoder, ref_vn.encoder),
                             (vn.generator, ref_vn.generator),
                             (vn.discriminator, ref_vn.discriminator)):
            assert net.params.flat.tobytes() == ref_net.params.flat.tobytes()


def test_open_batch_encodes_each_view_twice():
    ds, _ = three_view_setup()
    model = build_model([v.shape[1] for v in ds.views], 3,
                        np.random.default_rng(0), hidden=(6,))
    calls = []

    def counted(v, forward):
        def wrapper(x):
            calls.append(v)
            return forward(x)
        return wrapper

    for v, vn in enumerate(model.views):
        vn.encoder.forward = counted(v, vn.encoder.forward)
    probs = np.ones(ds.n)
    for unselected in (0, 5):
        probs[:unselected] = 0.5                # below the pace of 1.0
        calls.clear()
        result = train(model, ds, probs, PaceSchedule(max_epochs=1),
                       batch_size=16, seed=0, force_gate_open=True)
        n_views = ds.n_views
        assert result.log_rows[0]["mask_size"] == ds.n - unselected
        batches = -(-result.log_rows[0]["mask_size"] // 16)
        assert batches == 3
        # one fusion of the selected set per view and 2V encoder passes per
        # open batch (every view up front, in view order, whose result its
        # update reuses, and every view again after its update); the
        # export-time encode of every row, once per view, runs only when
        # some rows were never selected
        export = n_views if unselected else 0
        assert len(calls) == n_views + batches * 2 * n_views + export
        views = list(range(n_views))
        for b in range(batches):
            first = n_views + b * 2 * n_views
            assert calls[first:first + 2 * n_views] == views + views
        fused = fuse_subspace([vn.encoder.forward(view)[0]
                               for vn, view in zip(model.views, ds.views)])
        assert result.z[:unselected].tobytes() == fused[:unselected].tobytes()


def test_train_whose_gate_never_opens_exports_the_final_fusion(caplog):
    ds, _ = three_view_setup()
    probs = np.full(ds.n, 0.01)
    probs[:10] = 1.0        # the pace stays above 0.01 for all 3 epochs
    model = build_model([v.shape[1] for v in ds.views], 3,
                        np.random.default_rng(0), hidden=(6,))
    with caplog.at_level(logging.WARNING, logger="mvclust.network"):
        result = train(model, ds, probs, PaceSchedule(max_epochs=3),
                       batch_size=4, learning_rate=1e-3, seed=0)
    assert [(r["mask_size"], r["gate"]) for r in result.log_rows] == [(10, 0)] * 3
    assert result.gate_opened_epoch == -1
    assert [r.getMessage() for r in caplog.records] == [
        "gate never opened; emitting the fused per-view latents"]
    # every row, selected ones too, holds the final encoders' fusion
    fused = fuse_subspace([vn.encoder.forward(view)[0]
                           for vn, view in zip(model.views, ds.views)])
    assert result.z.tobytes() == fused.tobytes()


def test_checkpoint_holds_every_parameter_exactly(tmp_path, rng):
    model = build_model([5, 7, 4], 3, rng, hidden=(6, 4), disc_hidden=(5, 3))
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(model, str(path))
    with np.load(path) as ckpt:
        assert ckpt["version"].tolist() == [2]
        assert ckpt["latent_width"].tolist() == [3]
        assert ckpt["n_views"].tolist() == [3]
        expected = {"version", "latent_width", "n_views"}
        for i, vn in enumerate(model.views):
            for name, net in (("enc", vn.encoder), ("gen", vn.generator),
                              ("disc", vn.discriminator)):
                key = f"v{i}_{name}"
                expected |= {key, f"{key}_widths"}
                assert ckpt[key].dtype == net.params.flat.dtype
                assert ckpt[key].tobytes() == net.params.flat.tobytes()
                assert tuple(ckpt[f"{key}_widths"].tolist()) == net.spec.widths
        assert set(ckpt.files) == expected
