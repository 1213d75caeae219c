"""Easy-to-difficult sampling: probabilities, pace schedule, selection mask.

Easy samples get a probability tied to how unambiguous their anchor distance
is; difficult samples get a (provably smaller) probability tied to how close
they sit to the median difficult distance. A decreasing pace value thresholds
the cross-view average so easy samples enter training first.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

log = logging.getLogger(__name__)


def compute_probabilities(labels, partitions):
    """Probabilities for every sample in every view: the (V, n) matrix.

    Each view's row reads only that view's row of the (V, n) labels and its
    partition. An easy sample gets d / d_max in the negative set (farther is
    easier) and 1 - d / d_max in the positive set (closer is easier), d_max
    being the largest anchor distance over the negative set. A difficult
    sample gets |d - median| / sum over the view's difficult distances, and
    the anchor gets 1. If a view's geometry leaves some difficult probability
    at or above the smallest easy probability, those values are clamped just
    below it so easy-first ordering survives.
    """
    per_view = np.zeros(labels.shape)
    for v, part in enumerate(partitions):
        probs = per_view[v]
        dist = part.anchor_distances
        if len(part.negative) == 0:
            raise NumericalError(f"view {v}: empty negative set")
        d_max = dist[part.negative].max()
        if d_max <= 0.0:
            raise NumericalError(f"view {v}: all negative samples at distance 0")
        easy = labels[v] == 0
        hard = labels[v] == 1
        hard[part.anchor_index] = False
        hard_idx = np.flatnonzero(hard)   # ascending, as the median and sum read them
        positive = np.zeros(part.n, dtype=bool)
        positive[part.positive] = True
        ratio = dist[easy] / d_max
        probs[easy] = np.where(positive[easy], 1.0 - ratio, ratio)
        if hard_idx.size:
            hard_d = dist[hard_idx]
            d_med = float(np.median(hard_d))
            sum_d = float(hard_d.sum())
            if sum_d <= 0.0:
                raise NumericalError(
                    f"view {v}: difficult samples all at distance 0"
                )
            probs[hard_idx] = abs(hard_d - d_med) / sum_d
        probs[part.anchor_index] = 1.0  # the anchor is maximally unambiguous
        if easy.any() and hard_idx.size:
            min_easy = probs[easy].min()
            ceiling = max(min_easy - 1e-9, 0.0)
            too_big = probs[hard_idx] >= min_easy
            if too_big.any():
                log.info(
                    "view %d: clamping %d difficult probabilities below %g",
                    v, int(too_big.sum()), min_easy,
                )
                probs[hard_idx[too_big]] = ceiling
    return per_view


@dataclass
class PaceSchedule:
    """Start by selecting ~initial_fraction of the samples. The pace falls
    to 0, which selects all of them, at epoch full_inclusion_epoch_fraction *
    max_epochs. Epochs run 0 ... max_epochs - 1, so when that epoch is later
    (a fraction of 1, or max_epochs <= 4 at 0.8) none reaches 0 (ROADMAP 13)."""

    max_epochs: int
    initial_fraction: float = 0.05
    full_inclusion_epoch_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.initial_fraction <= 1.0:
            raise DataError(f"initial_fraction out of (0, 1]: {self.initial_fraction}")
        if not 0.0 < self.full_inclusion_epoch_fraction <= 1.0:
            raise DataError(
                "full_inclusion_epoch_fraction out of (0, 1]: "
                f"{self.full_inclusion_epoch_fraction}"
            )
        if self.max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {self.max_epochs}")


def pace_value(schedule, epoch, averaged_probs):
    """Pace at a given epoch: starts at the probability of the sample ranked
    ceil(initial_fraction * n) (descending), decays linearly to 0 at
    full_inclusion_epoch_fraction * max_epochs, then stays 0."""
    if epoch >= schedule.max_epochs:
        raise DataError(f"epoch {epoch} >= max_epochs {schedule.max_epochs}")
    p = np.sort(np.asarray(averaged_probs, dtype=float))[::-1]
    rank = int(np.ceil(schedule.initial_fraction * len(p)))
    rank = max(1, min(rank, len(p)))
    lam0 = p[rank - 1]
    t_full = schedule.full_inclusion_epoch_fraction * schedule.max_epochs
    return float(lam0 * max(0.0, 1.0 - epoch / t_full))


def selection_mask(averaged_probs, lam):
    """One shared mask for all views: selected iff pace <= averaged probability."""
    return (lam <= np.asarray(averaged_probs, dtype=float)).astype(int)
