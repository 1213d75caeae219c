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
from .nets import AdamState, Net, adam_step, clamp_prob_masked, make_net
from .sampling import pace_value, selection_mask

log = logging.getLogger(__name__)

GOLDEN_SECTION = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GateState:
    open: bool
    sigma: float
    selected_count: int
    total_count: int


def gate(selected_count, total, sigma=GOLDEN_SECTION):
    """Open iff strictly more than sigma * total samples are selected."""
    if total < 1:
        raise ShapeError(f"total must be >= 1, got {total}")
    if not 0 <= selected_count <= total:
        raise ShapeError(f"selected_count {selected_count} out of [0, {total}]")
    return GateState(selected_count > sigma * total, sigma, selected_count, total)


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
    loss = float((resid ** 2).sum() / b)
    d_xhat = 2.0 * resid / b
    g_gen, d_z = view_nets.generator.backward(cache_g, d_xhat)
    g_enc, _ = view_nets.encoder.backward(cache_e, d_z)
    return loss, g_enc, g_gen


def ae_loss_open(view_nets, x, z_common, n_views):
    """Open-state reconstruction: the view reconstructs itself, reconstructs
    from the common subspace, and keeps its latent near the common one.

    ||x - G(E(x))||^2 + (1/V)(||x - G(Z)||^2 + ||E(x) - Z||^2), batch mean.
    Z rows are treated as constants for this step.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z_common = np.atleast_2d(np.asarray(z_common, dtype=float))
    if z_common.shape[0] != x.shape[0]:
        raise ShapeError("common-subspace rows do not match the batch")
    b = x.shape[0]
    lam = 1.0 / n_views
    z_i, cache_e = view_nets.encoder.forward(x)
    x_hat, cache_g1 = view_nets.generator.forward(z_i)
    x_tilde, cache_g2 = view_nets.generator.forward(z_common)
    r_hat = x_hat - x
    r_tilde = x_tilde - x
    r_z = z_i - z_common
    loss = float(((r_hat ** 2).sum()
                  + lam * ((r_tilde ** 2).sum() + (r_z ** 2).sum())) / b)
    g_gen, d_z = view_nets.generator.backward(cache_g1, 2.0 * r_hat / b)
    view_nets.generator.backward(cache_g2, 2.0 * lam * r_tilde / b, g_gen.flat)
    g_enc, _ = view_nets.encoder.backward(cache_e, d_z + 2.0 * lam * r_z / b)
    return loss, g_enc, g_gen


def _log_d(view_nets, x):
    p_raw, cache = view_nets.discriminator.forward(x)
    return (*clamp_prob_masked(p_raw), cache)


def adversarial_losses(view_nets, x, fake):
    """GAN objectives for one view and one batch of fakes.

    Discriminator value: mean log D(x) + mean log(1 - D(fake)) (to ascend).
    Generator value: mean log(1 - D(fake)) (to descend, generator params only).
    Returns (disc value, disc gradients of the NEGATED value, gen value,
    gradient w.r.t. the fake batch).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    fake = np.atleast_2d(np.asarray(fake, dtype=float))
    if x.shape[0] == 0:
        raise ShapeError("empty batch")
    b_real = x.shape[0]
    b_fake = fake.shape[0]
    p_real, in_real, cache_real = _log_d(view_nets, x)
    p_fake, in_fake, cache_fake = _log_d(view_nets, fake)
    disc_value = float(np.log(p_real).mean() + np.log(1.0 - p_fake).mean())
    gen_value = float(np.log(1.0 - p_fake).mean())
    # descend -disc_value
    disc_grads, _ = view_nets.discriminator.backward(
        cache_real, -in_real / p_real / b_real
    )
    view_nets.discriminator.backward(
        cache_fake, in_fake / (1.0 - p_fake) / b_fake, disc_grads.flat
    )
    # generator descends gen_value => gradient w.r.t. fake inputs
    _, d_fake_for_gen = view_nets.discriminator.backward(
        cache_fake, -in_fake / (1.0 - p_fake) / b_fake
    )
    return disc_value, disc_grads, gen_value, d_fake_for_gen


def fuse_subspace(per_view_z):
    """Element-wise mean of the per-view latents."""
    shapes = {z.shape for z in per_view_z}
    if len(shapes) != 1:
        raise ShapeError(f"latent shapes differ across views: {sorted(shapes)}")
    return np.mean(np.stack(list(per_view_z)), axis=0)


@dataclass
class CommonSubspace:
    z: np.ndarray          # (n, p) fused latents
    per_view: list         # per-view (n, p) latents


@dataclass
class TrainResult:
    model: MultiViewModel
    subspace: CommonSubspace
    log_rows: list         # per-epoch dicts
    gate_opened_epoch: int  # -1 if the gate never opened


class _ViewOptimizers:
    def __init__(self, view_nets, learning_rate):
        self.encoder = AdamState(learning_rate=learning_rate)
        self.generator = AdamState(learning_rate=learning_rate)
        self.discriminator = AdamState(learning_rate=learning_rate)


def _check_finite(value, what, epoch, batch):
    if not np.isfinite(value):
        raise NumericalError(f"non-finite {what} at epoch {epoch}, batch {batch}")


def _gan_round(vn, opt, x, z, epoch, batch):
    """One adversarial round of a view on real rows ``x`` against G(z): a
    discriminator step, then a generator step. Returns (discriminator value,
    generator value) as an array."""
    fake, cache_g = vn.generator.forward(z)
    d_val, d_grads, g_val, d_fake = adversarial_losses(vn, x, fake)
    _check_finite(d_val, "discriminator value", epoch, batch)
    adam_step(opt.discriminator, vn.discriminator.params.flat, d_grads.flat)
    g_gen, _ = vn.generator.backward(cache_g, d_fake)
    adam_step(opt.generator, vn.generator.params.flat, g_gen.flat)
    return np.array([d_val, g_val])


def train(model, dataset, averaged_probs, schedule, epochs, batch_size=64,
          learning_rate=1e-4, seed=0, force_gate_open=False, sigma=GOLDEN_SECTION,
          log_path=None):
    """The progressive training loop.

    Per epoch: refresh the pace and selection mask, evaluate the gate, then run
    the closed-state (per-view autoencoder + GAN) or open-state (adds common
    subspace fusion and its reconstruction/adversarial terms) updates over the
    selected samples only.
    """
    n = dataset.n
    n_views = dataset.n_views
    rng = np.random.default_rng(seed)
    opts = [_ViewOptimizers(vn, learning_rate) for vn in model.views]
    z_full = np.zeros((n, model.latent_width))
    ever_selected = np.zeros(n, dtype=bool)
    gate_opened_epoch = -1
    rows = []

    for epoch in range(epochs):
        lam = pace_value(schedule, epoch, averaged_probs)
        mask = selection_mask(averaged_probs, lam)
        selected = np.nonzero(mask)[0]
        ever_selected[selected] = True
        g = gate(len(selected), n, sigma)
        gate_open = force_gate_open or g.open
        if gate_open and gate_opened_epoch < 0:
            gate_opened_epoch = epoch

        if gate_open:
            # fuse the whole selected set before the batch sweep
            z_views = [model.views[i].encoder.forward(dataset.views[i][selected])[0]
                       for i in range(n_views)]
            z_full[selected] = fuse_subspace(z_views)

        order = rng.permutation(len(selected))
        ae_sums = np.zeros(n_views)
        adv_sums = np.zeros((n_views, 2))   # discriminator value, generator value
        n_batches = 0
        for start in range(0, len(selected), batch_size):
            idx = selected[order[start:start + batch_size]]
            if idx.size == 0:
                continue
            n_batches += 1
            xs = [view[idx] for view in dataset.views]
            if gate_open:
                # encoder v changes only in view v's own update below, so
                # each view is encoded once per batch: views after the first
                # up front, every view again right after its update
                z_batch = [None] + [model.views[v].encoder.forward(xs[v])[0]
                                    for v in range(1, n_views)]
            for i in range(n_views):
                vn = model.views[i]
                opt = opts[i]
                x = xs[i]
                if gate_open:
                    loss, g_enc, g_gen = ae_loss_open(vn, x, z_full[idx], n_views)
                else:
                    loss, g_enc, g_gen = ae_loss_closed(vn, x)
                _check_finite(loss, "reconstruction loss", epoch, n_batches)
                adam_step(opt.encoder, vn.encoder.params.flat, g_enc.flat)
                adam_step(opt.generator, vn.generator.params.flat, g_gen.flat)
                ae_sums[i] += loss

                # discriminator vs self-reconstruction; once the gate is
                # open, refresh the fused rows for this batch and play the
                # common-subspace round as well
                z_i = vn.encoder.forward(x)[0]
                adv_sums[i] += _gan_round(vn, opt, x, z_i, epoch, n_batches)
                if gate_open:
                    z_batch[i] = z_i
                    z_full[idx] = fuse_subspace(z_batch)
                    adv_sums[i] += _gan_round(vn, opt, x, z_full[idx],
                                              epoch, n_batches)

        denom = max(n_batches, 1)
        rows.append({
            "epoch": epoch,
            "lambda": lam,
            "mask_size": int(len(selected)),
            "gate": int(gate_open),
            "ae_loss": (ae_sums / denom).tolist(),
            "disc_value": (adv_sums[:, 0] / denom).tolist(),
            "gen_value": (adv_sums[:, 1] / denom).tolist(),
        })

    if gate_opened_epoch < 0:
        log.warning("gate never opened; emitting the fused per-view latents")

    # export-time fill: every row gets the current fused encoding
    per_view = [model.views[i].encoder.forward(dataset.views[i])[0]
                for i in range(n_views)]
    fused_now = fuse_subspace(per_view)
    if gate_opened_epoch < 0:
        z_full = fused_now
    else:
        z_full[~ever_selected] = fused_now[~ever_selected]

    if log_path:
        write_training_log(rows, log_path)
    return TrainResult(model, CommonSubspace(z_full, per_view), rows,
                       gate_opened_epoch)


def write_training_log(rows, path):
    """Per-epoch CSV: epoch, pace, mask size, gate, per-view losses."""
    if not rows:
        return
    n_views = len(rows[0]["ae_loss"])
    cols = ["epoch", "lambda", "mask_size", "gate"]
    cols += [f"ae_loss_v{i}" for i in range(n_views)]
    cols += [f"disc_value_v{i}" for i in range(n_views)]
    cols += [f"gen_value_v{i}" for i in range(n_views)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            cells = [str(r["epoch"]), f"{r['lambda']:.12g}",
                     str(r["mask_size"]), str(r["gate"])]
            cells += [f"{v:.12g}" for v in r["ae_loss"]]
            cells += [f"{v:.12g}" for v in r["disc_value"]]
            cells += [f"{v:.12g}" for v in r["gen_value"]]
            fh.write(",".join(cells) + "\n")


# --- checkpointing -----------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(model, path):
    """Exact (lossless float64) dump of all network parameters."""
    arrays = {"version": np.array([CHECKPOINT_VERSION]),
              "latent_width": np.array([model.latent_width]),
              "n_views": np.array([model.n_views])}
    for i, vn in enumerate(model.views):
        for name, net in (("enc", vn.encoder), ("gen", vn.generator),
                          ("disc", vn.discriminator)):
            for l, (w, b) in enumerate(zip(net.params.weights, net.params.biases)):
                arrays[f"v{i}_{name}_w{l}"] = w
                arrays[f"v{i}_{name}_b{l}"] = b
    np.savez(path, **arrays)
