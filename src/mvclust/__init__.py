"""Multi-view progressive subspace clustering.

Pipeline: per-view difficulty labels around an anchor, adversarial
reconciliation of cross-view label disagreements, easy-to-difficult
cognitive sampling, golden-section-gated autoencoder/GAN training of a
common subspace, and k-means with ACC/NMI/Purity evaluation.
"""

from .cluster import ClusterModel, MetricReport, accuracy, evaluate, kmeans, nmi, purity
from .data import (MultiViewDataset, NeighborPartition, build_partition,
                   load_manifest, load_views, make_synthetic, normalize_view)
from .difficulty import (PairEmbedding, ReconcilerModel, assign_difficulty,
                         assignment_from_partitions, build_reconciler, collect_inconsistent,
                         embed_pairs, resolve_labels, train_reconciler)
from .errors import (ConfigError, DataError, MvclustError, NumericalError,
                     ShapeError)
from .nets import (AdamState, MlpParams, MlpSpec, adam_step, init_mlp,
                   mlp_backward, mlp_forward)
from .network import (GOLDEN_SECTION, MultiViewModel,
                      ae_loss_closed, ae_loss_open, adversarial_losses,
                      build_model, fuse_subspace, gate, train)
from .pipeline import ExperimentConfig, RunReport, ablate, export_embeddings, load_config, run
from .sampling import (PaceSchedule, compute_probabilities, pace_value,
                       selection_mask)

__version__ = "0.1.0"
