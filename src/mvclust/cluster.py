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


def _sq_dists(z, centers):
    """(R, n) squared distances of the rows to one center per restart."""
    diff = z - centers[:, None, :]
    diff *= diff
    return diff.sum(axis=2)


def _kmeans_pp_lockstep(z, c, restarts, rng):
    """k-means++ centers (R, c, p) of every restart at once, from the draws
    that seeding the restarts one after another makes: per restart, one
    integer for the first center and one uniform per further pick.

    Each pick is ``rng.choice(n, p=w / w.sum())`` with ``w`` the squared
    distances to the nearest center so far, or all ones for a restart whose
    rows all sit on centers (fewer distinct rows than ``c``). That is the
    inverse CDF of one uniform draw: the count of ``cdf <= u``, with ``cdf``
    the cumulative sum of ``p`` divided by its last entry."""
    n = z.shape[0]
    first = np.empty(restarts, dtype=int)
    u = np.empty((restarts, c - 1))
    for r in range(restarts):
        first[r] = rng.integers(n)
        u[r] = rng.random(c - 1)
    centers = np.empty((restarts, c, z.shape[1]))
    centers[:, 0] = z[first]
    for q in range(1, c):
        # squared distances to the nearest center picked so far; none are
        # needed after the last pick
        near = _sq_dists(z, centers[:, q - 1])
        d2 = near if q == 1 else np.minimum(d2, near, out=d2)
        w = d2
        total = d2.sum(axis=1, keepdims=True)
        zero = total <= 0.0
        if zero.any():
            # every row of such a restart is on a center: weight each row 1
            w = np.where(zero, 1.0, d2)
            total = w.sum(axis=1, keepdims=True)
        cdf = np.cumsum(w / total, axis=1)
        cdf /= cdf[:, -1:]
        centers[:, q] = z[(cdf <= u[:, q - 1, None]).sum(axis=1)]
    return centers


def _nearest(z, zz, centers):
    """(R, n) index of each row's nearest center in each restart's (c, p)
    centers (ties to the lower index), from ``|z|^2 - 2 z c^T + |c|^2`` with
    ``zz`` the rows' squared norms, (n, 1) or repeated to (n, c). One product
    per restart, bit for bit: the stacked ``z @ c^T`` runs one GEMM per
    restart."""
    d2 = np.matmul(z, centers.transpose(0, 2, 1))
    d2 *= -2.0
    d2 += zz
    d2 += np.einsum("rij,rij->ri", centers, centers)[:, None, :]
    return d2.argmin(axis=2)


def _member_sums(weights, assign, c):
    """Row counts (R, c) and coordinate sums (R, c, p) per restart and
    cluster, from ``assign`` (R, n) and ``weights``, ``z.T`` tiled at least
    R times along its rows. One bincount per column over ``r·c + assign``
    adds each cluster's members in index order, so ``sums[r, q] /
    counts[r, q]`` is ``z[assign[r] == q].mean(axis=0)`` bit for bit when
    z has two or more columns."""
    restarts, n = assign.shape
    bins = (assign + c * np.arange(restarts)[:, None]).ravel()
    size = restarts * c
    counts = np.bincount(bins, minlength=size).reshape(restarts, c)
    sums = np.stack([np.bincount(bins, weights=w[:bins.size], minlength=size)
                     for w in weights], axis=1)
    return counts, sums.reshape(restarts, c, -1)


def _update_with_empty(z, weights, centers, assign, counts, sums):
    """One restart's center update, in place, when a cluster is empty."""
    c = centers.shape[0]
    for q in range(c):
        if counts[q]:
            centers[q] = sums[q] / counts[q]
        else:
            # re-seed an empty cluster to the point farthest from its center
            far = ((z - centers[assign]) ** 2).sum(axis=1).argmax()
            centers[q] = z[far]
            assign[far] = q
            # the cluster that gave up the point has one member fewer
            counts, sums = _member_sums(weights, assign[None], c)
            counts, sums = counts[0], sums[0]


def _lloyd(z, zz, centers, max_iter):
    """Lloyd's algorithm on every restart's centers (R, c, p) in lockstep,
    in place; returns the (R, n) assignments. A restart stops at the step
    whose assignment repeats its last; after ``max_iter`` updates the rows
    go to the centers the last update left."""
    restarts, c, _ = centers.shape
    weights = np.tile(z.T, (1, restarts))  # contiguous rows for bincount
    zz = np.repeat(zz, c, axis=1)  # (n, c), so its add runs over whole rows
    assign = np.empty((restarts, z.shape[0]), dtype=np.intp)
    # the restarts still stepping, their centers and their last assignments
    active, cur, last = np.arange(restarts), centers, None
    for step in range(max_iter + 1):
        new_assign = _nearest(z, zz, cur)
        if step == max_iter:
            # max_iter ran out: assign to the centers the last update left
            last = new_assign
            break
        if step:
            # a restart whose assignment repeats has converged: its centers
            # did not move
            moved = (new_assign != last).any(axis=1)
            if not moved.all():
                centers[active[~moved]] = cur[~moved]
                assign[active[~moved]] = last[~moved]
                active, cur = active[moved], cur[moved]
                new_assign = new_assign[moved]
                if not active.size:
                    return assign
        last = new_assign
        counts, sums = _member_sums(weights, last, c)
        full = counts.all(axis=1)
        cur[full] = sums[full] / counts[full][:, :, None]
        for i in np.flatnonzero(~full):
            _update_with_empty(z, weights, cur[i], last[i], counts[i], sums[i])
    centers[active] = cur
    assign[active] = last
    return assign


def kmeans(z, c, max_iter=100, seed=0, restarts=20):
    """Lloyd's algorithm from k-means++ seeding; keeps the best of ``restarts``
    runs (ties by restart index). The restarts run in lockstep: all are
    seeded first, from the draws one after another would make, with each
    k-means++ pick the inverse CDF of one uniform draw (uniform over the
    rows where every row is already on a center); then every restart that
    has not converged takes each Lloyd step together. A z that is not
    finite, or whose squared distances could overflow float64, is a
    NumericalError."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ShapeError(f"k-means needs a 2-D array of rows, got {z.ndim}-D")
    n = z.shape[0]
    if c < 1:
        raise DataError(f"cluster count must be >= 1, got {c}")
    if c > n:
        raise DataError(f"cannot form {c} clusters from {n} samples")
    if restarts < 1:
        raise DataError(f"k-means restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise DataError(f"k-means max_iter must be >= 1, got {max_iter}")
    zz = np.einsum("ij,ij->i", z, z)[:, None]
    # a squared distance to a center in the rows' hull is <= 4 max |z|^2, and
    # the seeding and the objective add up n of them
    if not zz.max() <= np.finfo(float).max / (4 * n):
        raise NumericalError("k-means input is not finite or its squared "
                             "distances overflow float64")
    centers = _kmeans_pp_lockstep(z, c, restarts, np.random.default_rng(seed))
    assign = _lloyd(z, zz, centers, max_iter)
    objectives = [_objective(z, centers[r], assign[r]) for r in range(restarts)]
    best = int(np.argmin(objectives))  # the first of equal objectives
    return ClusterModel(centers[best].copy(), assign[best].copy(),
                        objectives[best])


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
