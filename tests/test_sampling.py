import numpy as np
import pytest

from mvclust.data import NeighborPartition
from mvclust.difficulty import assignment_from_partitions
from mvclust.errors import DataError, NumericalError
from mvclust.sampling import (PaceSchedule, compute_probabilities, pace_value,
                              selection_mask)

from test_difficulty import (partition_from_distances, random_geometry,
                             toy_inconsistent_setup)


def hand_partition(positive, negative):
    """The anchor (sample 0) at distance 0, then the positive and the
    negative samples at the given anchor distances."""
    dist = np.array([0.0, *positive, *negative])
    k = len(positive)
    return NeighborPartition(0, np.arange(1, k + 1), np.arange(k + 1, len(dist)),
                             dist)


def test_easy_prob_hand_values():
    # every sample easy; d_max = 10 over N
    part = hand_partition([2.0], [8.0, 10.0])
    probs = compute_probabilities(np.zeros((1, 4), dtype=int), [part])[0]
    assert abs(probs[1] - 0.8) < 1e-12    # P: 1 - 2/10
    assert abs(probs[2] - 0.8) < 1e-12    # N: 8/10
    assert probs[3] == 1.0                # N: 10/10


def test_easy_prob_degenerate_rejected():
    # view 1: every negative (and so every sample) at distance 0
    parts = [hand_partition([1.0], [2.0, 3.0]), hand_partition([0.0], [0.0, 0.0])]
    with pytest.raises(NumericalError,
                       match="^view 1: all negative samples at distance 0$"):
        compute_probabilities(np.zeros((2, 4), dtype=int), parts)


def test_hard_prob_hand_values():
    # difficult distances {3,4,5}: median 4, sum 12; the easy N sample at 10
    # has probability 1, so none of them is clamped
    part = hand_partition([3.0, 4.0, 5.0], [10.0])
    probs = compute_probabilities(np.array([[0, 1, 1, 1, 0]]), [part])[0]
    assert abs(probs[1] - 1.0 / 12.0) < 1e-12
    assert probs[2] == 0.0
    assert abs(probs[3] - 1.0 / 12.0) < 1e-12


def test_hard_prob_degenerate_rejected():
    # view 1: both difficult samples at distance 0, its easy negative at 1
    parts = [hand_partition([1.0, 2.0], [3.0]), hand_partition([0.0, 0.0], [1.0])]
    labels = np.array([[0, 1, 1, 0], [0, 1, 1, 0]])
    with pytest.raises(NumericalError,
                       match="^view 1: difficult samples all at distance 0$"):
        compute_probabilities(labels, parts)


def random_premise_partition(rng):
    """Random geometry that satisfies the ordering theorem's premise."""
    while True:
        n = int(rng.integers(20, 60))
        dist = np.sort(rng.uniform(0.05, 5.0, size=n - 1))
        k = int(rng.integers(2, n - 2))
        part = partition_from_distances(dist, k=k)
        labels = assignment_from_partitions([part, part], 0.618)
        d = part.anchor_distances
        hard = [s for s in range(part.n)
                if labels[0, s] == 1 and s != part.anchor_index]
        easy = [s for s in range(part.n)
                if labels[0, s] == 0 and s != part.anchor_index]
        if not hard or not easy:
            continue
        d_max_n = d[part.negative].max()
        if d[hard].sum() > d_max_n:  # the premise
            return part, labels, np.array(easy), np.array(hard)


def probs_for_view(part, labels, view=0):
    return compute_probabilities(labels, [part, part])[view]


def test_theorem_ordering_sample(rng):
    # larger seeded sweep lives in the acceptance suite
    for _ in range(50):
        part, labels, easy, hard = random_premise_partition(rng)
        p = probs_for_view(part, labels)
        assert p[easy].min() > p[hard].max()


def test_probabilities_in_range(rng):
    ds, parts, labels, _ = toy_inconsistent_setup()
    # make labels consistent by copying view 0
    labels[1] = labels[0]
    probs = compute_probabilities(labels, parts)
    assert np.all(probs >= 0.0)
    easy = labels[0] == 0
    assert np.all(probs[0][easy] <= 1.0 + 1e-12)


def _ref_compute_probabilities(labels, partitions):
    """Per-view probabilities one sample at a time, as the package once wrote
    them. Returns the (V, n) matrix and how many values were clamped."""
    per_view = np.zeros(labels.shape)
    clamped = 0
    for v, part in enumerate(partitions):
        dist = part.anchor_distances
        d_max = dist[part.negative].max()
        hard_idx = np.array([k for k in range(part.n)
                             if labels[v, k] == 1 and k != part.anchor_index],
                            dtype=int)
        if hard_idx.size:
            hard_d = dist[hard_idx]
            d_med = float(np.median(hard_d))
            sum_d = float(hard_d.sum())
        for k in range(part.n):
            if k == part.anchor_index:
                per_view[v, k] = 1.0
            elif labels[v, k] == 0:
                per_view[v, k] = (1.0 - dist[k] / d_max if k in part.positive
                                  else dist[k] / d_max)
            else:
                per_view[v, k] = abs(dist[k] - d_med) / sum_d
        easy_mask = labels[v] == 0
        if easy_mask.any() and hard_idx.size:
            min_easy = per_view[v, easy_mask].min()
            ceiling = max(min_easy - 1e-9, 0.0)
            too_big = per_view[v, hard_idx] >= min_easy
            per_view[v, hard_idx[too_big]] = ceiling
            clamped += int(too_big.sum())
    return per_view, clamped


@pytest.mark.parametrize("n_views", [2, 3])
def test_probabilities_match_per_sample_reference_bytewise(n_views):
    # raw labels of random geometries, and the same labels with random flips
    # (which can make the anchor difficult)
    rng = np.random.default_rng(70 + n_views)
    clamped = anchor_difficult = 0
    for _ in range(100):
        parts = random_geometry(rng, n_views)
        labels = assignment_from_partitions(parts, float(rng.uniform(0.1, 0.9)))
        flipped = labels ^ (rng.uniform(size=labels.shape) < 0.2)
        for lab in (labels, flipped):
            ref, count = _ref_compute_probabilities(lab, parts)
            assert compute_probabilities(lab, parts).tobytes() == ref.tobytes()
            clamped += count
        anchor_difficult += int(flipped[:, parts[0].anchor_index].any())
    assert clamped > 0, "the sweep must reach the clamp"
    assert anchor_difficult > 0, "the sweep must label the anchor difficult"


def test_pace_schedule_validation():
    with pytest.raises(DataError):
        PaceSchedule(max_epochs=10, initial_fraction=0.0)
    with pytest.raises(DataError):
        PaceSchedule(max_epochs=10, full_inclusion_epoch_fraction=1.5)


def test_pace_reaches_zero_at_full_inclusion(rng):
    sched = PaceSchedule(max_epochs=100)
    probs = rng.uniform(0.0, 1.0, size=50)
    assert pace_value(sched, 80, probs) == 0.0
    assert pace_value(sched, 99, probs) == 0.0
    assert np.all(selection_mask(probs, 0.0) == 1)


def test_pace_initial_rank_selects_five_percent(rng):
    sched = PaceSchedule(max_epochs=100, initial_fraction=0.05)
    probs = rng.permutation(np.linspace(0.01, 0.99, 100))
    lam0 = pace_value(sched, 0, probs)
    mask = selection_mask(probs, lam0)
    assert mask.sum() == 5
    top5 = np.argsort(probs)[::-1][:5]
    assert set(np.nonzero(mask)[0]) == set(top5)


def test_pace_monotone_nonincreasing(rng):
    sched = PaceSchedule(max_epochs=50)
    probs = rng.uniform(size=30)
    values = [pace_value(sched, e, probs) for e in range(50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_selection_mask_hand_values():
    np.testing.assert_array_equal(selection_mask([0.8, 0.4], 0.5), [1, 0])
    np.testing.assert_array_equal(selection_mask([0.8, 0.4], 0.0), [1, 1])
    np.testing.assert_array_equal(selection_mask([0.8, 0.4], 0.9), [0, 0])


def test_mask_monotone_in_pace(rng):
    probs = rng.uniform(size=100)
    for _ in range(20):
        lam1, lam2 = sorted(rng.uniform(size=2), reverse=True)
        m1 = selection_mask(probs, lam1)
        m2 = selection_mask(probs, lam2)
        assert np.all(m1 <= m2)  # higher pace selects a subset


def test_first_epoch_selects_only_easy(rng):
    for _ in range(20):
        part, labels, easy, hard = random_premise_partition(rng)
        p = probs_for_view(part, labels)
        sched = PaceSchedule(max_epochs=100, initial_fraction=0.05)
        if int(np.ceil(0.05 * len(p))) > len(easy):
            continue
        lam0 = pace_value(sched, 0, p)
        selected = np.nonzero(selection_mask(p, lam0))[0]
        for s in selected:
            assert labels[0, s] == 0


def test_masks_deterministic(rng):
    probs = rng.uniform(size=40)
    sched = PaceSchedule(max_epochs=30)
    a = [selection_mask(probs, pace_value(sched, e, probs)) for e in range(30)]
    b = [selection_mask(probs, pace_value(sched, e, probs)) for e in range(30)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
