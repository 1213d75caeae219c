"""Per-view autoencoder/GAN training of a common latent subspace.

Each view owns an encoder, a mirrored generator and a 3-layer discriminator.
A gate compares the number of currently selected samples against the golden
section of the dataset: while closed, each view trains its own autoencoder
and GAN; once open, the views are additionally tied together through a fused
common subspace (the mean of the per-view latents).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .files import replacing
from .nets import AdamState, Net, adam_step, binary_log_likelihood, make_net
from .sampling import pace_value, selection_mask

log = logging.getLogger(__name__)

GOLDEN_SECTION = (math.sqrt(5.0) - 1.0) / 2.0


def gate(selected_count, total):
    """Open iff strictly more than the golden section of ``total`` samples
    are selected."""
    if total < 1:
        raise ShapeError(f"total must be >= 1, got {total}")
    if not 0 <= selected_count <= total:
        raise ShapeError(f"selected_count {selected_count} out of [0, {total}]")
    return selected_count > GOLDEN_SECTION * total


@dataclass
class ViewNets:
    encoder: Net
    generator: Net
    discriminator: Net


@dataclass
class MultiViewModel:
    views: list            # one ViewNets per view
    latent_width: int

    @property
    def n_views(self):
        return len(self.views)


def build_model(view_dims, latent_width, rng, hidden=(128, 64), disc_hidden=(64, 32)):
    """Encoders d_i -> hidden -> latent, generators mirrored, 3-layer sigmoid
    discriminators."""
    views = []
    for d in view_dims:
        enc_widths = [d, *hidden, latent_width]
        gen_widths = list(reversed(enc_widths))
        enc_acts = ["relu"] * len(hidden) + ["identity"]
        views.append(ViewNets(
            encoder=make_net(enc_widths, enc_acts, rng),
            generator=make_net(gen_widths, enc_acts, rng),
            discriminator=make_net([d, *disc_hidden, 1], ["relu", "relu", "sigmoid"], rng),
        ))
    return MultiViewModel(views, latent_width)


def ae_loss_closed(view_nets, x):
    """Reconstruction loss ||x - G(E(x))||^2, batch mean; with gradients for
    encoder and generator."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b = x.shape[0]
    z, cache_e = view_nets.encoder.forward(x)
    x_hat, cache_g = view_nets.generator.forward(z)
    resid = x_hat - x
    loss = float(np.add.reduce(resid ** 2, None) / b)
    d_xhat = 2.0 * resid / b
    g_gen, d_z = view_nets.generator.backward(cache_g, d_xhat)
    g_enc, _ = view_nets.encoder.backward(cache_e, d_z, input_grad=False)
    return loss, g_enc, g_gen


def ae_loss_open(view_nets, x, z_common, n_views, encoded):
    """Open-state reconstruction: the view reconstructs itself, reconstructs
    from the common subspace, and keeps its latent near the common one.

    ||x - G(E(x))||^2 + (1/V)(||x - G(Z)||^2 + ||E(x) - Z||^2), batch mean.
    Z rows are treated as constants for this step. ``encoded`` is the
    encoder's (output, cache) on ``x``, the caller's encoder pass.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z_common = np.atleast_2d(np.asarray(z_common, dtype=float))
    if z_common.shape[0] != x.shape[0]:
        raise ShapeError("common-subspace rows do not match the batch")
    b = x.shape[0]
    lam = 1.0 / n_views
    z_i, cache_e = encoded
    x_hat, cache_g1 = view_nets.generator.forward(z_i)
    x_tilde, cache_g2 = view_nets.generator.forward(z_common)
    r_hat = x_hat - x
    r_tilde = x_tilde - x
    r_z = z_i - z_common
    loss = float((np.add.reduce(r_hat ** 2, None)
                  + lam * (np.add.reduce(r_tilde ** 2, None)
                           + np.add.reduce(r_z ** 2, None))) / b)
    g_gen, d_z = view_nets.generator.backward(cache_g1, 2.0 * r_hat / b)
    g_gen += view_nets.generator.backward(cache_g2, 2.0 * lam * r_tilde / b,
                                          input_grad=False)[0]
    g_enc, _ = view_nets.encoder.backward(cache_e, d_z + 2.0 * lam * r_z / b,
                                          input_grad=False)
    return loss, g_enc, g_gen


def adversarial_losses(view_nets, x, fake):
    """GAN objectives for one view and one batch of fakes.

    Discriminator value: mean log D(x) + mean log(1 - D(fake)) (to ascend).
    Generator value: mean log(1 - D(fake)) (to descend, generator params only).
    Returns (disc value, disc gradients of the NEGATED value, gen value,
    gradient w.r.t. the fake batch).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    fake = np.atleast_2d(np.asarray(fake, dtype=float))
    b_real = x.shape[0]
    b_fake = fake.shape[0]
    if b_real == 0 or b_fake == 0:
        raise ShapeError("empty batch")
    disc = view_nets.discriminator
    p_real, cache_real = disc.forward(x)
    p_fake, cache_fake = disc.forward(fake)
    s_real, s_fake, d_real, d_fake = binary_log_likelihood(p_real, p_fake, 1.0)
    # the means as ndarray.mean takes them, without its wrapper
    mean_fake = s_fake / b_fake
    disc_value = float(s_real / b_real + mean_fake)
    gen_value = float(mean_fake)
    # descend -disc_value
    disc_grads, _ = disc.backward(cache_real, d_real / b_real, input_grad=False)
    d_fake /= b_fake
    disc_grads += disc.backward(cache_fake, d_fake, input_grad=False)[0]
    # generator descends gen_value => gradient w.r.t. fake inputs; negating
    # the fake rows' output gradient is exact
    _, d_fake_for_gen = disc.backward(cache_fake, -d_fake, param_grad=False)
    return disc_value, disc_grads, gen_value, d_fake_for_gen


def fuse_subspace(per_view_z):
    """Element-wise mean of the per-view latents: their sum in view order,
    divided by the view count, which is how ``np.mean`` over a stack of
    them adds and divides."""
    shapes = {z.shape for z in per_view_z}
    if len(shapes) != 1:
        raise ShapeError(f"latent shapes differ across views: {sorted(shapes)}")
    return sum(per_view_z[1:], per_view_z[0]) / len(per_view_z)


@dataclass
class TrainResult:
    z: np.ndarray           # (n, p) common subspace, one fused latent per sample
    log_rows: list          # per-epoch dicts
    gate_opened_epoch: int  # -1 if the gate never opened


class _ViewOptimizers:
    def __init__(self, learning_rate):
        self.encoder = AdamState(learning_rate=learning_rate)
        self.generator = AdamState(learning_rate=learning_rate)
        self.discriminator = AdamState(learning_rate=learning_rate)


def _check_finite(value, what, epoch, batch):
    if not math.isfinite(value):
        raise NumericalError(f"non-finite {what} at epoch {epoch}, batch {batch}")


def _gan_round(vn, opt, x, z, epoch, batch):
    """One adversarial round of a view on real rows ``x`` against G(z): a
    discriminator step, then a generator step. Returns (discriminator value,
    generator value) as an array."""
    fake, cache_g = vn.generator.forward(z)
    d_val, d_grads, g_val, d_fake = adversarial_losses(vn, x, fake)
    _check_finite(d_val, "discriminator value", epoch, batch)
    adam_step(opt.discriminator, vn.discriminator.params.flat, d_grads)
    g_gen, _ = vn.generator.backward(cache_g, d_fake, input_grad=False)
    adam_step(opt.generator, vn.generator.params.flat, g_gen)
    return np.array([d_val, g_val])


def train(model, dataset, averaged_probs, schedule, batch_size=64,
          learning_rate=1e-4, seed=0, force_gate_open=False):
    """The progressive training loop, ``schedule.max_epochs`` epochs long.

    Per epoch: refresh the pace and selection mask, evaluate the gate, then run
    the closed-state (per-view autoencoder + GAN) or open-state (adds common
    subspace fusion and its reconstruction/adversarial terms) updates over the
    selected samples only. Writes no file (``write_training_log`` does).
    """
    n = dataset.n
    n_views = dataset.n_views
    rng = np.random.default_rng(seed)
    opts = [_ViewOptimizers(learning_rate) for _ in model.views]
    z_full = np.zeros((n, model.latent_width))
    gate_opened_epoch = -1
    rows = []

    def fused(xs):      # one block of rows, xs[v] in view v, encoded and fused
        return fuse_subspace([vn.encoder.forward(x)[0]
                              for vn, x in zip(model.views, xs)])

    for epoch in range(schedule.max_epochs):
        lam = pace_value(schedule, epoch, averaged_probs)
        mask = selection_mask(averaged_probs, lam)
        selected = np.nonzero(mask)[0]
        gate_open = gate(len(selected), n) or force_gate_open
        if gate_open and gate_opened_epoch < 0:
            gate_opened_epoch = epoch

        if gate_open:
            # fuse the whole selected set before the batch sweep: view 0's
            # reconstruction reads it (the batch's own fusion fails criterion 8)
            z_full[selected] = fused([view[selected] for view in dataset.views])

        order = rng.permutation(len(selected))
        # per view: reconstruction loss, discriminator value, generator value
        sums = np.zeros((n_views, 3))
        starts = range(0, len(selected), batch_size)   # no batch is empty
        for batch, start in enumerate(starts, 1):
            idx = selected[order[start:start + batch_size]]
            xs = [view[idx] for view in dataset.views]
            if gate_open:
                # encoder v changes only in view v's own update below, so
                # every view is encoded once up front, for the fusion and for
                # its own update, and again right after its update: 2V
                # encoder passes per batch
                encoded = [vn.encoder.forward(x) for vn, x in zip(model.views, xs)]
                z_batch = [z for z, _ in encoded]
                z_common = z_full[idx]      # epoch-start rows, for view 0
            for i in range(n_views):
                vn = model.views[i]
                opt = opts[i]
                x = xs[i]
                if gate_open:
                    loss, g_enc, g_gen = ae_loss_open(vn, x, z_common,
                                                      n_views, encoded[i])
                else:
                    loss, g_enc, g_gen = ae_loss_closed(vn, x)
                _check_finite(loss, "reconstruction loss", epoch, batch)
                adam_step(opt.encoder, vn.encoder.params.flat, g_enc)
                adam_step(opt.generator, vn.generator.params.flat, g_gen)
                sums[i, 0] += loss

                # discriminator vs self-reconstruction; once the gate is
                # open, fuse the batch again, for this view's common-subspace
                # round and the next view's reconstruction
                z_i = vn.encoder.forward(x)[0]
                sums[i, 1:] += _gan_round(vn, opt, x, z_i, epoch, batch)
                if gate_open:
                    z_batch[i] = z_i
                    z_common = fuse_subspace(z_batch)
                    sums[i, 1:] += _gan_round(vn, opt, x, z_common, epoch, batch)
            if gate_open:
                z_full[idx] = z_common

        means = sums / max(len(starts), 1)
        rows.append({
            "epoch": epoch,
            "lambda": lam,
            "mask_size": int(len(selected)),
            "gate": int(gate_open),
            "ae_loss": means[:, 0].tolist(),
            "disc_value": means[:, 1].tolist(),
            "gen_value": means[:, 2].tolist(),
        })

    if gate_opened_epoch < 0:
        log.warning("gate never opened; emitting the fused per-view latents")

    # export-time fill of the rows no open epoch fused: the pace never rises,
    # so the last epoch's selection holds every earlier one
    unfused = (mask == 0) | (gate_opened_epoch < 0)
    if unfused.any():
        z_full[unfused] = fused(dataset.views)[unfused]

    return TrainResult(z_full, rows, gate_opened_epoch)


def write_training_log(rows, path):
    """Per-epoch CSV: epoch, pace, mask size, gate, per-view losses."""
    if not rows:
        return
    series = ("ae_loss", "disc_value", "gen_value")
    n_views = len(rows[0]["ae_loss"])
    cols = ["epoch", "lambda", "mask_size", "gate"]
    cols += [f"{name}_v{i}" for name in series for i in range(n_views)]
    with replacing(path) as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            cells = [str(r["epoch"]), f"{r['lambda']:.12g}",
                     str(r["mask_size"]), str(r["gate"])]
            cells += [f"{v:.12g}" for name in series for v in r[name]]
            fh.write(",".join(cells) + "\n")


# --- checkpointing -----------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(model, path):
    """Exact (lossless float64) dump of all network parameters: per view and
    net, ``params.flat`` and the layer widths it is laid out by."""
    arrays = {"version": np.array([CHECKPOINT_VERSION]),
              "latent_width": np.array([model.latent_width]),
              "n_views": np.array([model.n_views])}
    for i, vn in enumerate(model.views):
        for name, net in (("enc", vn.encoder), ("gen", vn.generator),
                          ("disc", vn.discriminator)):
            arrays[f"v{i}_{name}"] = net.params.flat
            arrays[f"v{i}_{name}_widths"] = np.array(net.spec.widths)
    with replacing(path, "wb") as fh:
        np.savez(fh, **arrays)
