"""K-means on the common subspace plus the standard evaluation metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ShapeError
from .files import replacing


@dataclass
class ClusterModel:
    centers: np.ndarray      # (c, p)
    assignments: np.ndarray  # (n,) cluster ids
    objective: float         # sum of squared distances to assigned centers


def _objective(z, centers, assign):
    return float(((z - centers[assign]) ** 2).sum())


def _kmeans_pp_init(z, c, rng):
    n = z.shape[0]
    centers = np.empty((c, z.shape[1]))
    first = int(rng.integers(n))
    centers[0] = z[first]
    d2 = ((z - centers[0]) ** 2).sum(axis=1)
    for q in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[q] = z[idx]
        d2 = np.minimum(d2, ((z - centers[q]) ** 2).sum(axis=1))
    return centers


def _nearest(z, zz, centers):
    """Index of each row's nearest center (ties to the lower index), from
    ``|z|^2 - 2 z c^T + |c|^2`` with ``zz`` the rows' squared norms."""
    d2 = z @ centers.T
    d2 *= -2.0
    d2 += zz
    d2 += np.einsum("ij,ij->i", centers, centers)
    return d2.argmin(axis=1)


def _member_sums(columns, assign, c):
    """Row count and coordinate sums per cluster from ``columns = z.T``,
    members added in index order, so ``sums[q] / counts[q]`` is
    ``z[assign == q].mean(axis=0)`` bit for bit when z has two or more
    columns."""
    counts = np.bincount(assign, minlength=c)
    sums = np.stack([np.bincount(assign, weights=col, minlength=c)
                     for col in columns], axis=1)
    return counts, sums


def _lloyd(z, zz, centers, max_iter):
    c = centers.shape[0]
    columns = np.ascontiguousarray(z.T)  # bincount reads contiguous weights
    assign = None
    for _ in range(max_iter):
        new_assign = _nearest(z, zz, centers)
        if assign is not None and np.array_equal(new_assign, assign):
            return centers, new_assign  # converged: the centers did not move
        assign = new_assign
        counts, sums = _member_sums(columns, assign, c)
        for q in range(c):
            if counts[q]:
                centers[q] = sums[q] / counts[q]
            else:
                # re-seed an empty cluster to the point farthest from its center
                far = ((z - centers[assign]) ** 2).sum(axis=1).argmax()
                centers[q] = z[far]
                assign[far] = q
                # the cluster that gave up the point has one member fewer
                counts, sums = _member_sums(columns, assign, c)
    # max_iter ran out: assign to the centers the last update left
    return centers, _nearest(z, zz, centers)


def kmeans(z, c, max_iter=100, seed=0, restarts=20):
    """Lloyd's algorithm from k-means++ seeding; keeps the best of ``restarts``
    runs (ties by restart index). A z that is not finite, or whose squared
    distances could overflow float64, is a NumericalError."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = z.shape[0]
    if c < 1:
        raise DataError(f"cluster count must be >= 1, got {c}")
    if c > n:
        raise DataError(f"cannot form {c} clusters from {n} samples")
    zz = np.einsum("ij,ij->i", z, z)[:, None]
    # a squared distance to a center in the rows' hull is <= 4 max |z|^2, and
    # the seeding and the objective add up n of them
    if not zz.max() <= np.finfo(float).max / (4 * n):
        raise NumericalError("k-means input is not finite or its squared "
                             "distances overflow float64")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = _kmeans_pp_init(z, c, rng)
        centers, assign = _lloyd(z, zz, centers.copy(), max_iter)
        obj = _objective(z, centers, assign)
        if best is None or obj < best.objective:
            best = ClusterModel(centers, assign, obj)
    return best


def _contingency(pred, truth):
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.size == 0:
        raise DataError("empty label vectors")
    if pred.shape != truth.shape:
        raise ShapeError(f"label lengths differ: {pred.shape} vs {truth.shape}")
    pred_ids, p = np.unique(pred, return_inverse=True)
    truth_ids, t = np.unique(truth, return_inverse=True)
    shape = (len(pred_ids), len(truth_ids))
    cells = np.ravel_multi_index((p.ravel(), t.ravel()), shape)
    return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)


def _max_matching(table):
    """Largest sum of entries with at most one per row and per column.

    The Hungarian method with row and column potentials (Kuhn 1955), one
    numpy pass over the columns per augmenting step, minimising ``-table``
    (transposed if it has more rows than columns, so every row is matched).
    Column 0 of the potentials is a virtual start column. On integer counts
    every potential stays an integer, so the sum is exact, and every optimal
    matching has it.
    """
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows, cols = table.shape
    cost = np.zeros((rows + 1, cols + 1))
    cost[1:, 1:] = -table
    u = np.zeros(rows + 1)
    v = np.zeros(cols + 1)
    match = np.zeros(cols + 1, dtype=int)  # row on each column, 0 for none
    way = np.zeros(cols + 1, dtype=int)    # previous column on the path
    for i in range(1, rows + 1):
        match[0] = i
        j0 = 0
        slack = np.full(cols + 1, np.inf)
        used = np.zeros(cols + 1, dtype=bool)
        while match[j0]:
            # grow the alternating tree from row i by its tightest column
            used[j0] = True
            i0 = match[j0]
            reduced = cost[i0] - u[i0] - v
            tighter = ~used & (reduced < slack)
            slack[tighter] = reduced[tighter]
            way[tighter] = j0
            j1 = int(np.where(used, np.inf, slack).argmin())
            delta = slack[j1]
            u[match[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:  # augment along the path back to the virtual column
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    on = match[1:] > 0
    return table[match[1:][on] - 1, np.flatnonzero(on)].sum()


def _acc(table):
    return float(_max_matching(table) / table.sum())


def _nmi(table):
    if 1 in table.shape:
        # degenerate partitions: the table's rows and columns are the labels
        # that occur, so one row or one column is a zero-entropy partition
        # (whose entropy in floats may round to either side of 0), and the
        # two are identical iff the table is a single cell
        return 1.0 if table.shape == (1, 1) else 0.0
    p_ij = table / table.sum()
    p_i = p_ij.sum(axis=1)
    p_j = p_ij.sum(axis=0)
    h_i = -np.sum(p_i[p_i > 0] * np.log(p_i[p_i > 0]))
    h_j = -np.sum(p_j[p_j > 0] * np.log(p_j[p_j > 0]))
    mask = p_ij > 0
    mi = np.sum(p_ij[mask] * np.log(
        p_ij[mask] / (np.outer(p_i, p_j)[mask])
    ))
    return float(mi / np.sqrt(h_i * h_j))


def _purity(table):
    return float(table.max(axis=1).sum() / table.sum())


def accuracy(pred, truth):
    """Clustering accuracy under the optimal one-to-one cluster/class match."""
    return _acc(_contingency(pred, truth))


def nmi(pred, truth):
    """Normalized mutual information with geometric-mean normalization.

    Identical partitions give 1 (including the single-cluster case); if either
    partition has zero entropy and they differ, the value is 0.
    """
    return _nmi(_contingency(pred, truth))


def purity(pred, truth):
    """Mean within-cluster majority fraction."""
    return _purity(_contingency(pred, truth))


@dataclass
class MetricReport:
    acc: float
    nmi: float
    purity: float


def evaluate(pred, truth):
    table = _contingency(pred, truth)
    return MetricReport(acc=_acc(table), nmi=_nmi(table), purity=_purity(table))


def format_report(report):
    """Human-readable metric table."""
    lines = [
        "metric   value",
        f"ACC      {report.acc:.4f}",
        f"NMI      {report.nmi:.4f}",
        f"Purity   {report.purity:.4f}",
    ]
    return "\n".join(lines)


def write_report(report, path):
    """Machine-readable key-value file (deterministic for identical inputs)."""
    with replacing(path) as fh:
        fh.write(f"acc = {report.acc:.12f}\n")
        fh.write(f"nmi = {report.nmi:.12f}\n")
        fh.write(f"purity = {report.purity:.12f}\n")
