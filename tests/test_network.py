import numpy as np
import pytest

from mvclust.data import MultiViewDataset, make_synthetic, load_manifest
from mvclust.errors import ShapeError
from mvclust.nets import MlpParams, MlpSpec, Net, adam_step
from mvclust.network import (GOLDEN_SECTION, ViewNets, _ViewOptimizers,
                             _gan_round, adversarial_losses, ae_loss_closed,
                             ae_loss_open, build_model, fuse_subspace, gate,
                             train)
from mvclust.sampling import PaceSchedule, pace_value, selection_mask

from conftest import assert_grads_close, numerical_grads, rel_err


def identity_view(width):
    ident = Net(MlpSpec((width, width), ("identity",)),
                MlpParams([np.eye(width)], [np.zeros(width)]))
    ident2 = Net(MlpSpec((width, width), ("identity",)),
                 MlpParams([np.eye(width)], [np.zeros(width)]))
    disc = Net(MlpSpec((width, 1), ("sigmoid",)),
               MlpParams([np.zeros((width, 1))], [np.zeros(1)]))
    return ViewNets(ident, ident2, disc)


def test_golden_section_value():
    assert abs(GOLDEN_SECTION - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-15


def test_gate_hand_values():
    assert gate(62, 100).open          # 62 > 61.8
    assert not gate(61, 100).open
    assert not gate(0, 100).open


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
            assert gate(above, n).open
        if above - 1 >= 0:
            assert not gate(above - 1, n).open


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
    blocks = vn.encoder.blocks() + vn.generator.blocks()
    analytic = g_enc.blocks() + g_gen.blocks()
    assert_grads_close(analytic, numerical_grads(loss, blocks))


def test_ae_open_reduces_to_closed_when_z_matches(rng):
    model = build_model([5], 3, rng, hidden=(6,))
    vn = model.views[0]
    x = rng.normal(size=(4, 5))
    z_i, _ = vn.encoder.forward(x)
    closed, _, _ = ae_loss_closed(vn, x)
    x_hat, _ = vn.generator.forward(z_i)
    recon = float(((x - x_hat) ** 2).sum() / len(x))
    open_loss, _, _ = ae_loss_open(vn, x, z_i, n_views=2)
    assert abs(open_loss - (closed + 0.5 * recon)) < 1e-10


def test_ae_open_matches_straightline(rng):
    model = build_model([4], 3, rng, hidden=(5,))
    vn = model.views[0]
    x = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 3))
    v = 2
    loss, _, _ = ae_loss_open(vn, x, z, n_views=v)
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

    def loss():
        return ae_loss_open(vn, x, z, n_views=2)[0]

    _, g_enc, g_gen = ae_loss_open(vn, x, z, n_views=2)
    blocks = vn.encoder.blocks() + vn.generator.blocks()
    analytic = g_enc.blocks() + g_gen.blocks()
    assert_grads_close(analytic, numerical_grads(loss, blocks))


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
    assert_grads_close(disc_grads.blocks(),
                       numerical_grads(neg_disc_value, vn.discriminator.blocks()))


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
    assert_grads_close(g_gen.blocks(),
                       numerical_grads(gen_value, vn.generator.blocks()))


def test_fuse_subspace():
    a = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(fuse_subspace([a, a]), a)
    np.testing.assert_array_equal(fuse_subspace([np.zeros_like(a), 2 * a]), a)
    np.testing.assert_array_equal(fuse_subspace([a, 2 * a, 3 * a]),
                                  fuse_subspace([3 * a, a, 2 * a]))
    with pytest.raises(ShapeError):
        fuse_subspace([a, np.zeros((2, 2))])


def blob_dataset(tmp_path, n=200, noise=0.1, seed=0):
    man = make_synthetic(str(tmp_path), 3, n, views=2, noise=noise, seed=seed)
    return load_manifest(man)


def test_train_lr_zero_keeps_parameters(tmp_path, rng):
    ds = blob_dataset(tmp_path)
    model = build_model([v.shape[1] for v in ds.views], 4, rng, hidden=(8,))
    before = [b.copy() for vn in model.views
              for b in vn.encoder.blocks() + vn.generator.blocks()
              + vn.discriminator.blocks()]
    sched = PaceSchedule(max_epochs=5)
    train(model, ds, np.ones(ds.n), sched, epochs=5, learning_rate=0.0, seed=0)
    after = [b for vn in model.views
             for b in vn.encoder.blocks() + vn.generator.blocks()
             + vn.discriminator.blocks()]
    for a, b in zip(after, before):
        np.testing.assert_array_equal(a, b)


def test_train_loss_decreases_and_gate_opens(tmp_path, rng):
    ds = blob_dataset(tmp_path, n=300)
    model = build_model([v.shape[1] for v in ds.views], 8, rng, hidden=(32, 16))
    probs = rng.uniform(0.2, 1.0, size=ds.n)
    sched = PaceSchedule(max_epochs=150)
    result = train(model, ds, probs, sched, epochs=150, learning_rate=1e-3,
                   seed=0)
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
    assert result.subspace.z.shape == (ds.n, 8)
    assert np.all(np.isfinite(result.subspace.z))


def test_training_log_written(tmp_path, rng):
    ds = blob_dataset(tmp_path, n=100)
    model = build_model([v.shape[1] for v in ds.views], 4, rng, hidden=(8,))
    sched = PaceSchedule(max_epochs=3)
    log_path = tmp_path / "log.csv"
    train(model, ds, np.ones(ds.n), sched, epochs=3, seed=0,
          log_path=str(log_path))
    lines = log_path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("epoch,lambda,mask_size,gate")


# --- open-gate latent cache against a loop that re-encodes every view ---------

def _ref_train_open(model, ds, probs, sched, epochs, batch_size, lr, seed):
    """``train`` with the gate forced open, written as a loop that encodes
    every view again for each view's common-subspace round. Returns the
    common subspace and the log rows."""
    rng = np.random.default_rng(seed)
    opts = [_ViewOptimizers(vn, lr) for vn in model.views]
    n_views = ds.n_views

    def fused(rows):
        return fuse_subspace([model.views[v].encoder.forward(ds.views[v][rows])[0]
                              for v in range(n_views)])

    z_full = np.zeros((ds.n, model.latent_width))
    ever_selected = np.zeros(ds.n, dtype=bool)
    log_rows = []
    for epoch in range(epochs):
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
                loss, g_enc, g_gen = ae_loss_open(vn, x, z_full[idx], n_views)
                adam_step(opt.encoder, vn.encoder.params.flat, g_enc.flat)
                adam_step(opt.generator, vn.generator.params.flat, g_gen.flat)
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
    result = train(model, ds, probs, sched, epochs=4, batch_size=16,
                   learning_rate=1e-3, seed=2, force_gate_open=True)
    ref_z, ref_rows = _ref_train_open(ref, ds, probs, sched, epochs=4,
                                      batch_size=16, lr=1e-3, seed=2)
    assert result.gate_opened_epoch == 0
    assert result.subspace.z.tobytes() == ref_z.tobytes()
    assert result.log_rows == ref_rows
    for vn, ref_vn in zip(model.views, ref.views):
        for net, ref_net in ((vn.encoder, ref_vn.encoder),
                             (vn.generator, ref_vn.generator),
                             (vn.discriminator, ref_vn.discriminator)):
            assert net.params.flat.tobytes() == ref_net.params.flat.tobytes()


def test_open_batch_encodes_each_view_three_times_less_one():
    ds, probs = three_view_setup()
    model = build_model([v.shape[1] for v in ds.views], 3,
                        np.random.default_rng(0), hidden=(6,))
    calls = []

    def counted(forward):
        def wrapper(x):
            calls.append(len(x))
            return forward(x)
        return wrapper

    for vn in model.views:
        vn.encoder.forward = counted(vn.encoder.forward)
    result = train(model, ds, np.ones(ds.n), PaceSchedule(max_epochs=1),
                   epochs=1, batch_size=16, seed=0, force_gate_open=True)
    n_views, batches = ds.n_views, -(-result.log_rows[0]["mask_size"] // 16)
    assert batches == 3
    # one fusion of the selected set and one export-time encode per view,
    # and 3V - 1 encoder passes per open batch
    assert len(calls) == 2 * n_views + batches * (3 * n_views - 1)
