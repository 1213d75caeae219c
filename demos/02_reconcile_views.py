"""The minimax reconciliation game.

The classifier tries to tell the two members of each inconsistent cross-view
pair apart; the embedder tries to make them indistinguishable while pulling
their concatenated fusion toward the first member. When the game settles, the
classifier's verdict on the fused sample becomes the shared difficulty label.

Watch the agreement rate: after a classifier-only warm-up the two members of
most pairs get opposite verdicts; the minimax game drives them together.
"""

import numpy as np

from mvclust import MultiViewDataset, build_partition
from mvclust.difficulty import (assignment_from_partitions, build_reconciler,
                                classifier_agreement_rate, collect_inconsistent,
                                embed_pairs, resolve_labels, train_reconciler)

rng = np.random.default_rng(3)
views = [rng.normal(size=(40, 6)), rng.normal(size=(40, 4))]
dataset = MultiViewDataset(views)
partitions = [build_partition(dataset, v, 0, 20) for v in range(2)]
labels = assignment_from_partitions(partitions, 0.618)   # (V, n)
pairs = collect_inconsistent(labels)
print(f"{len(pairs)} inconsistent pairs out of {dataset.n} samples")

model = build_reconciler([6, 4], np.random.default_rng(0), learning_rate=3e-3)

# warm-up: classifier only (no embedder steps) -- it learns to separate
train_reconciler(model, dataset, pairs, epochs=60, batch_size=16, t_steps=0,
                 seed=7)
embedded = embed_pairs(model, dataset, pairs)   # one embedder pass over all pairs
print(f"agreement after classifier-only warm-up: "
      f"{classifier_agreement_rate(model, embedded):.3f}")

# the full game: 3 embedder steps per classifier step
history = train_reconciler(model, dataset, pairs, epochs=200, batch_size=16,
                           t_steps=3, seed=8)
embedded = embed_pairs(model, dataset, pairs)
print(f"agreement after 200 minimax epochs:      "
      f"{classifier_agreement_rate(model, embedded):.3f}")
print(f"final losses: sim = {history[-1]['sim']:.4f}, "
      f"adv = {history[-1]['adv']:.4f}")

resolved = resolve_labels(model, labels, embedded)
assert len(collect_inconsistent(resolved)) == 0
changed = int((resolved != labels).sum())
print(f"resolution flipped {changed} labels; views now fully agree")
