"""Multi-view dataset loading, normalization, distances and anchor partitions."""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .files import replacing, writing


@dataclass
class MultiViewDataset:
    """n samples observed under V views; each view is an (n, d_i) matrix."""

    views: list
    labels: np.ndarray = None  # optional integer class ids, evaluation only

    def __post_init__(self):
        if len(self.views) < 2:
            raise DataError(f"need at least 2 views, got {len(self.views)}")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise DataError(f"view {i} is not a 2-D matrix")
            if v.shape[0] != n:
                raise DataError(
                    f"row-count mismatch: view 0 has {n} rows, view {i} has {v.shape[0]}"
                )
            if not np.all(np.isfinite(v)):
                raise DataError(f"view {i} contains non-finite values")
        if self.labels is not None and len(self.labels) != n:
            raise DataError(
                f"{len(self.labels)} labels for {n} samples"
            )

    @property
    def n(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)


@dataclass
class NeighborPartition:
    """Positive/negative split of one view around an anchor sample.

    P holds the k nearest samples to the anchor, N the remaining non-anchor
    samples. ``anchor_distances`` has one entry per sample (anchor itself 0).
    """

    anchor_index: int
    positive: np.ndarray
    negative: np.ndarray
    anchor_distances: np.ndarray

    @property
    def n(self):
        return len(self.anchor_distances)


def _read_text(path):
    """A text file's contents; one that cannot be opened or decoded is a DataError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not {exc.encoding} text") from None


def _read_table(path):
    """Read a headerless numeric table; returns it with the file's lines.

    ``;`` and ``,`` both separate cells, and blank or whitespace-only lines are
    skipped. Numpy parses the table in one call; only when that fails are the
    lines walked again, to name the fault by its 1-based line and column.
    """
    lines = _read_text(path).replace(";", ",").split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise DataError(f"{path}: empty file")
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=2, comments=None), lines
    except ValueError:
        raise DataError(_first_fault(path, lines)) from None


def _is_number(cell):
    # numpy's float parser is float() without digit underscores or non-ASCII digits
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.strip().isascii()


def _first_fault(path, lines):
    """The first line numpy refused, in words with 1-based line and column."""
    width = None
    for r, line in enumerate(lines, 1):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        for c, cell in enumerate(cells, 1):
            if not _is_number(cell):
                return f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}"
        width = width or len(cells)
        if len(cells) != width:
            return f"{path}: row {r} has {len(cells)} cells, expected {width}"
    return f"{path}: not a numeric table"


def read_labels(path):
    """Read a label file: one integer per line, blank lines skipped."""
    table, lines = _read_table(path)
    if table.shape[1] != 1:
        raise DataError(f"{path}: {table.shape[1]} cells per row, expected one "
                        "integer label per line")
    labels = table[:, 0]
    # nan, inf and |x| >= 2**53 fail too: past 2**53 a float is no exact integer
    bad = ~((np.floor(labels) == labels) & (np.abs(labels) < 2**53))
    if bad.any():
        r = [r for r, line in enumerate(lines, 1) if line.strip()][np.argmax(bad)]
        raise DataError(f"{path}: label at row {r} is not an integer below 2**53: "
                        f"{lines[r - 1].strip()!r}")
    return labels.astype(int)


def load_views(paths, label_path=None):
    """Load one CSV per view (rows = samples, no header) into a dataset."""
    if len(paths) < 2:
        raise DataError(f"need at least 2 view files, got {len(paths)}")
    views = [_read_table(p)[0] for p in paths]
    n0 = views[0].shape[0]
    for p, v in zip(paths[1:], views[1:]):
        if v.shape[0] != n0:
            raise DataError(
                f"row-count mismatch: {paths[0]} has {n0} rows, {p} has {v.shape[0]}"
            )
    labels = read_labels(label_path) if label_path else None
    return MultiViewDataset(views, labels)


def normalize_view(view, mode="zscore"):
    """Column-wise z-score or min-max normalization; constant columns go to 0.

    A view whose column means, standard deviations or ranges overflow float64
    is a DataError; no overflowed width is taken for a constant column.
    """
    view = np.asarray(view, dtype=float)
    if view.size == 0:
        raise DataError("cannot normalize an empty view")
    if mode == "none":
        return view.copy()
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        if mode == "zscore":
            shift, width = view.mean(axis=0), view.std(axis=0)
        elif mode == "minmax":
            shift = view.min(axis=0)
            width = view.max(axis=0) - shift
        else:
            raise DataError(f"unknown normalization mode {mode!r}")
    if not (np.isfinite(shift).all() and np.isfinite(width).all()):
        raise DataError(f"{mode} normalization overflows float64 "
                        f"(largest |value| {np.abs(view).max():.3g})")
    return (view - shift) / np.where(width > 0.0, width, 1.0)


def build_partition(dataset, view_index, anchor_index, k_neighbors):
    """K-NN split of one view around the anchor: P = k nearest, N = the rest.

    Ties at the k-th distance break by ascending sample index. A view whose
    distances to the anchor overflow float64 is a DataError.
    """
    n = dataset.n
    if not 0 <= anchor_index < n:
        raise DataError(f"anchor index {anchor_index} out of range for n={n}")
    if not 1 <= k_neighbors <= n - 1:
        raise DataError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    view = dataset.views[view_index]
    with np.errstate(over="ignore"):
        diff = view - view[anchor_index]
        dist = np.sqrt((diff * diff).sum(axis=1))
    if not np.all(np.isfinite(dist)):
        raise DataError(f"view {view_index}: squared distances to the anchor "
                        "overflow float64")
    others = np.delete(np.arange(n), anchor_index)
    # stable sort on distance => index breaks ties
    order = others[np.argsort(dist[others], kind="stable")]
    positive = np.sort(order[:k_neighbors])
    negative = np.sort(order[k_neighbors:])
    return NeighborPartition(anchor_index, positive, negative, dist)


# --- dataset manifests -------------------------------------------------------

def read_manifest(path):
    """Key-value manifest naming view files, optional labels and normalization.

    Format, one entry per line::

        view = digits_fourier.csv
        view = digits_profile.csv
        labels = digits_labels.csv
        normalize = zscore

    Paths are resolved relative to the manifest location. ``view`` may repeat;
    ``labels`` and ``normalize`` may appear once each.
    """
    base = os.path.dirname(os.path.abspath(path))
    views, labels, normalize = [], None, "zscore"
    seen = set()
    for r, line in enumerate(_read_text(path).split("\n")):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {r + 1} is not 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key != "view" and key in seen:
            raise DataError(f"{path}: line {r + 1} repeats the {key!r} key")
        seen.add(key)
        if key == "view":
            views.append(os.path.join(base, value))
        elif key == "labels":
            labels = os.path.join(base, value)
        elif key == "normalize":
            if value not in ("zscore", "minmax", "none"):
                raise DataError(f"{path}: unknown normalize mode {value!r}")
            normalize = value
        else:
            raise DataError(f"{path}: unknown manifest key {key!r}")
    if len(views) < 2:
        raise DataError(f"{path}: a manifest needs at least 2 'view' entries")
    return {"views": views, "labels": labels, "normalize": normalize}


def load_manifest(path):
    """Load and normalize the dataset a manifest describes."""
    spec = read_manifest(path)
    ds = load_views(spec["views"], spec["labels"])
    views = []
    for view_path, view in zip(spec["views"], ds.views):
        try:
            views.append(normalize_view(view, spec["normalize"]))
        except DataError as exc:
            raise DataError(f"{view_path}: {exc}") from None
    return MultiViewDataset(views, ds.labels)


# --- synthetic benchmark -----------------------------------------------------

SYNTH_LATENT_DIM = 4   # width of the blob space every view is projected from


def make_synthetic(out_dir, clusters, samples, views=2, noise=0.1, seed=0,
                   view_dims=None, outlier_fraction=0.0, outlier_scale=1.0):
    """Write a Gaussian-blob benchmark: per-view random linear maps plus noise.

    ``outlier_fraction`` of the samples can be contaminated: moved halfway
    toward another cluster's center and given ``outlier_scale`` times the
    noise, which makes their membership genuinely ambiguous. Returns the
    manifest path. The same seed reproduces the files byte for byte.
    """
    if clusters < 2:
        raise DataError("need at least 2 clusters")
    if samples < clusters * 10:
        raise DataError(f"need at least {clusters * 10} samples for {clusters} clusters")
    if views < 2:
        raise DataError(f"need at least 2 views, got {views}")
    for name, value in (("noise", noise), ("outlier_scale", outlier_scale)):
        if not 0 <= value < np.inf:
            raise DataError(f"{name} must be finite and >= 0, got {value}")
    if not 0 <= outlier_fraction <= 1:
        raise DataError(f"outlier_fraction must be in [0, 1], got {outlier_fraction}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if view_dims is None:
        view_dims = [SYNTH_LATENT_DIM * 3 + 2 * i for i in range(views)]
    try:
        centers = rng.normal(0.0, 2.0, size=(clusters, SYNTH_LATENT_DIM))
        labels = rng.integers(0, clusters, size=samples)
        latent = centers[labels] + rng.normal(0.0, 0.25, size=(samples, SYNTH_LATENT_DIM))
        noise_scale = np.full(samples, noise)
        n_bad = int(outlier_fraction * samples)
        if n_bad > 0:
            bad = rng.choice(samples, size=n_bad, replace=False)
            other = (labels[bad] + rng.integers(1, clusters, size=n_bad)) % clusters
            latent[bad] = 0.5 * (centers[labels[bad]] + centers[other]) \
                + rng.normal(0.0, 0.25, size=(n_bad, SYNTH_LATENT_DIM))
            noise_scale[bad] = noise * outlier_scale
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            # per view, the projection is drawn first and then the noise
            tables = [latent @ rng.normal(0.0, 1.0, size=(SYNTH_LATENT_DIM, d))
                      + noise_scale[:, None] * rng.normal(0.0, 1.0, size=(samples, d))
                      for d in view_dims]
    except (MemoryError, ValueError) as exc:
        # numpy refusing an allocation: more memory than there is, or more
        # elements than an array may hold
        raise DataError(f"samples ({samples}) or views ({views}) too large "
                        f"to allocate: {exc}") from None
    if not all(np.isfinite(data).all() for data in tables):
        raise DataError(f"noise {noise} with outlier_scale {outlier_scale} "
                        "overflows the views")
    view_files = [f"view{v}.csv" for v in range(len(tables))]
    manifest = os.path.join(out_dir, "manifest.txt")
    with writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for fname, data in zip(view_files, tables):
            with replacing(os.path.join(out_dir, fname)) as fh:
                np.savetxt(fh, data, delimiter=",", fmt="%.10f")
        with replacing(os.path.join(out_dir, "labels.csv")) as fh:
            np.savetxt(fh, labels, fmt="%d")
        with replacing(manifest) as fh:
            for fname in view_files:
                fh.write(f"view = {fname}\n")
            fh.write("labels = labels.csv\n")
            fh.write("normalize = zscore\n")
    return manifest
