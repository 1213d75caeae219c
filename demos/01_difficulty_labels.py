"""Difficulty labels, view by view.

Builds a small 2-view synthetic dataset, partitions each view around a shared
anchor with K-NN, and applies the golden-section boundary rule: a negative-set
sample is easy when it sits clearly far from the anchor, a positive-set sample
when it sits clearly close. Views disagree about some samples -- that
disagreement is what the reconciler (demo 02) settles.
"""

import tempfile

import numpy as np

from mvclust import (assignment_from_partitions, build_partition,
                     collect_inconsistent, load_manifest, make_synthetic)
from mvclust.network import GOLDEN_SECTION

with tempfile.TemporaryDirectory() as tmp:
    manifest = make_synthetic(tmp, clusters=3, samples=60, views=2,
                              noise=0.4, seed=1)
    dataset = load_manifest(manifest)

n = dataset.n
anchor = int(np.random.default_rng(0).integers(n))
print(f"{n} samples, {dataset.n_views} views, anchor sample {anchor}")

partitions = [build_partition(dataset, v, anchor, n // 2)
              for v in range(dataset.n_views)]
labels = assignment_from_partitions(partitions, GOLDEN_SECTION)  # (V, n)

for v, part in enumerate(partitions):
    d = part.anchor_distances
    print(f"\nview {v}: |P| = {len(part.positive)}, |N| = {len(part.negative)}")
    print(f"  boundary distances: mu*d_max(P) = "
          f"{GOLDEN_SECTION * d[part.positive].max():.3f}, "
          f"mu*d_max(N) = {GOLDEN_SECTION * d[part.negative].max():.3f}")
    print(f"  easy: {int((labels[v] == 0).sum())}, "
          f"difficult: {int((labels[v] == 1).sum())}")

pairs = collect_inconsistent(labels)
print(f"\ncross-view disagreements: {len(pairs)} sample/view pairs")
print("first few (sample, view_i, view_j):", pairs[:5].tolist())
