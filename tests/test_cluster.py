import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mvclust import cluster
from mvclust.cluster import (MetricReport, accuracy, evaluate, format_report,
                             kmeans, nmi, purity, write_report)
from mvclust.errors import DataError, NumericalError, ShapeError

from conftest import rel_err


def test_single_cluster_is_global_mean(rng):
    x = rng.normal(size=(30, 4))
    model = kmeans(x, 1, seed=0)
    np.testing.assert_allclose(model.centers[0], x.mean(axis=0), atol=1e-12)
    assert np.all(model.assignments == 0)


def test_one_dimensional_hand_example():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    model = kmeans(x, 2, seed=0)
    assert model.assignments[0] == model.assignments[1]
    assert model.assignments[2] == model.assignments[3]
    assert model.assignments[0] != model.assignments[2]
    # two clusters at {0, 0.1} and {10, 10.1}: objective 2*(0.05^2)*2
    assert abs(model.objective - 0.01) < 1e-12


def brute_force_objective(x, c):
    """Minimum k-means objective by enumerating every assignment."""
    n = len(x)
    best = np.inf
    for labels in itertools.product(range(c), repeat=n):
        labels = np.array(labels)
        total = 0.0
        for j in range(c):
            members = x[labels == j]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_kmeans_matches_bruteforce_small_instances(rng):
    for trial in range(30):
        n = int(rng.integers(4, 9))
        x = rng.normal(size=(n, 2))
        model = kmeans(x, 2, seed=trial, restarts=20)
        ref = brute_force_objective(x, 2)
        assert model.objective <= ref + 1e-9
        assert abs(model.objective - ref) < 1e-6


def test_kmeans_validation(rng):
    with pytest.raises(DataError):
        kmeans(rng.normal(size=(5, 2)), 6)
    with pytest.raises(DataError):
        kmeans(rng.normal(size=(5, 2)), 0)


def test_kmeans_rejects_zero_restarts(rng):
    with pytest.raises(DataError, match="restarts must be >= 1, got 0"):
        kmeans(rng.normal(size=(10, 2)), 3, restarts=0)


def test_kmeans_rejects_zero_max_iter(rng):
    with pytest.raises(DataError, match="max_iter must be >= 1, got 0"):
        kmeans(rng.normal(size=(10, 2)), 3, max_iter=0)


def test_kmeans_rejects_one_dimensional_input():
    # not read as one row of four features
    with pytest.raises(ShapeError, match="2-D array of rows, got 1-D"):
        kmeans(np.array([0.0, 0.1, 10.0, 10.1]), 2)


def test_kmeans_deterministic(rng):
    x = rng.normal(size=(50, 3))
    a = kmeans(x, 3, seed=11)
    b = kmeans(x, 3, seed=11)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centers, b.centers)


def lloyd_with_final_pass(z, centers, max_iter):
    """Lloyd's loop that always reassigns once more after it stops, with
    broadcast distances and per-cluster means; also returns how many center
    updates it made."""
    c = centers.shape[0]
    assign = None
    updates = 0
    for _ in range(max_iter):
        d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        updates += 1
        for q in range(c):
            members = z[assign == q]
            if len(members):
                centers[q] = members.mean(axis=0)
            else:
                far = ((z - centers[assign]) ** 2).sum(axis=1).argmax()
                centers[q] = z[far]
                assign[far] = q
    d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return centers, d2.argmin(axis=1), updates


def kmeans_pp_one_restart(z, c, rng):
    """k-means++ seeding of one restart (Arthur & Vassilvitskii 2007): a
    uniform first center, then each center drawn by ``rng.choice`` with
    probability proportional to the squared distance to the nearest center
    so far, or uniformly once every row is on a center."""
    n = z.shape[0]
    centers = np.empty((c, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    d2 = ((z - centers[0]) ** 2).sum(axis=1)
    for q in range(1, c):
        w = d2 if d2.sum() > 0.0 else np.ones(n)
        centers[q] = z[rng.choice(n, p=w / w.sum())]
        d2 = np.minimum(d2, ((z - centers[q]) ** 2).sum(axis=1))
    return centers


def reference_kmeans(z, c, max_iter=100, seed=0, restarts=20):
    """k-means one restart after another: k-means++ seeding with
    ``rng.choice``, Lloyd, and the lowest objective (ties by restart
    index)."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers, assign, _ = lloyd_with_final_pass(
            z, kmeans_pp_one_restart(z, c, rng), max_iter)
        obj = cluster._objective(z, centers, assign)
        if best is None or obj < best.objective:
            best = cluster.ClusterModel(centers, assign, obj)
    return best


def blobs(rng, n, p, c):
    """n rows around c well-separated centers, shaped like a learned subspace."""
    centers = rng.normal(0.0, 3.0, size=(c, p))
    return centers[rng.integers(0, c, size=n)] + rng.normal(size=(n, p))


def assert_kmeans_equals_reference(x, c, **kwargs):
    got = kmeans(x, c, **kwargs)
    ref = reference_kmeans(x, c, **kwargs)
    assert got.centers.tobytes() == ref.centers.tobytes()
    assert got.assignments.tobytes() == ref.assignments.tobytes()
    assert got.assignments.dtype == ref.assignments.dtype
    assert got.objective == ref.objective


def test_kmeans_bytewise_equal_to_lloyd_with_final_pass(rng):
    # duplicated rows leave k-means++ seeds coinciding, so clusters go empty;
    # in the second set a re-seed takes a row from a later cluster, whose
    # mean then changes in the last bits (three copies of -0.8 do not
    # average to -0.8)
    repeated = np.repeat(rng.normal(size=(4, 2)), 5, axis=0)
    tenths = np.repeat([[-0.8, -0.7], [-2.1, -0.8], [1.6, -0.1], [-0.9, -0.6]],
                       3, axis=0)
    cases = [(rng.normal(size=(n, d)), c) for n, d, c in
             ((40, 2, 3), (90, 5, 4), (200, 3, 6))] + [(repeated, 6),
                                                       (tenths, 6)]
    for (x, c), seed, max_iter in itertools.product(cases, range(4),
                                                    (1, 2, 100)):
        assert_kmeans_equals_reference(x, c, max_iter=max_iter, seed=seed,
                                       restarts=3)
    # the shapes the benchmark clusters: full3000's 3000x10 subspace with 5
    # clusters, ablate300's best view (300x14, 3 clusters), and more clusters
    # than the data has blobs; with 3 restarts and with the default 20
    for (n, p, c, blob_count), seed in itertools.product(
            ((3000, 10, 5, 5), (300, 14, 3, 3), (100, 10, 10, 4)), range(2)):
        x = blobs(rng, n, p, blob_count)
        assert_kmeans_equals_reference(x, c, seed=seed, restarts=3)
        assert_kmeans_equals_reference(x, c, seed=seed)


def assert_zero_total_cases_equal_reference(rng):
    # every row equal, or fewer distinct rows than clusters: a k-means++ pick
    # finds every row on a center and draws uniformly over the rows. The
    # equal rows are dyadic, so their mean is the row itself and every
    # distance is an exact tie in the expanded form as in the broadcast one
    # (the mean of 12 copies of another row may miss it in the last bit, and
    # the two forms may then break the near-tie apart, as README says)
    equal = np.tile([[0.5, -1.25, 3.0]], (12, 1))
    few = np.repeat(rng.normal(size=(3, 4)), [5, 1, 4], axis=0)
    for (x, c), seed in itertools.product(
            ((equal, 1), (equal, 3), (few, 4), (few, 6)), range(3)):
        # the seeds themselves, restart by restart: Lloyd may end on the
        # same centers from different picks among repeated rows
        seeding = np.random.default_rng(seed)
        seeds = np.stack([kmeans_pp_one_restart(x, c, seeding)
                          for _ in range(20)])
        assert cluster._kmeans_pp_lockstep(
            x, c, 20, np.random.default_rng(seed)).tobytes() == seeds.tobytes()
        for max_iter in (1, 2, 100):
            assert_kmeans_equals_reference(x, c, max_iter=max_iter, seed=seed)


def test_kmeans_bytewise_equal_when_seeding_meets_a_zero_total(tmp_path):
    # with one and with two BLAS threads, read at start-up of a fresh
    # process; the cases draw from a generator seeded like the rng fixture
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cluster.__file__)))
    script = ("import numpy as np\n"
              "import test_cluster\n"
              "test_cluster.assert_zero_total_cases_equal_reference("
              "np.random.default_rng(12345))\n")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [tests, src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def test_kmeans_bytewise_equal_when_restarts_converge_apart(rng):
    # touching blobs: the 20 restarts of seed 0 stop after 2 to 7 updates, so
    # max_iter 1, 2 and 3 cut some restarts short and not others
    x = blobs(rng, 150, 2, 3)
    seeding = np.random.default_rng(0)
    updates = {lloyd_with_final_pass(x, kmeans_pp_one_restart(x, 3, seeding),
                                     100)[2] for _ in range(20)}
    assert min(updates) <= 2 and max(updates) > 3
    for seed, max_iter in itertools.product(range(3), (1, 2, 3, 100)):
        assert_kmeans_equals_reference(x, 3, max_iter=max_iter, seed=seed)


class FixedDraws:
    """Stands in for the generator: row 0 first, then the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def integers(self, n):
        return 0

    def random(self, size):
        return np.array([self.uniforms.pop(0) for _ in range(size)])


def test_kmeans_pp_pick_is_the_inverse_cdf_of_one_draw():
    # rows at 0, 1, 2 and 3 with the first center on row 0: the pick
    # probabilities are 0, 1, 4 and 9 over 14, and Generator.choice picks
    # the count of cdf entries <= u (searchsorted side="right"), so a draw
    # on a breakpoint goes past it and u = 0 never picks the zero-probability
    # row 0
    z = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    cdf = np.cumsum(np.array([0.0, 1.0, 4.0, 9.0]) / 14.0)
    cdf /= cdf[-1]
    for u in (0.0, cdf[1], np.nextafter(cdf[1], 0.0), cdf[2], 0.999):
        centers = cluster._kmeans_pp_lockstep(z, 2, 1, FixedDraws([u]))
        pick = int(np.searchsorted(cdf, u, side="right"))
        assert pick > 0
        np.testing.assert_array_equal(centers[0], z[[0, pick]])


def test_kmeans_pp_pick_on_equal_rows_is_the_inverse_uniform_cdf():
    # four rows equal as numbers, told apart by the signs of their zeros:
    # every squared distance is 0, so every row weighs 1, and the pick is
    # the count of uniform-CDF entries <= u, row 0 included
    z = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    cdf = np.cumsum(np.ones(4) / 4.0)
    for u in (0.0, 0.25, np.nextafter(0.25, 0.0), 0.5, 0.999):
        centers = cluster._kmeans_pp_lockstep(z, 2, 1, FixedDraws([u]))
        pick = int((cdf <= u).sum())
        np.testing.assert_array_equal(np.signbit(centers[0]),
                                      np.signbit(z[[0, pick]]))


def test_exact_ties_go_to_the_lower_center_index():
    # integer points on x = 1 are exactly equidistant from (0, 0) and (2, 0),
    # in the expanded form as in the broadcast one
    z = np.array([[1.0, 0.0], [1.0, 5.0], [1.0, -3.0], [0.0, 1.0], [2.0, 2.0]])
    zz = np.einsum("ij,ij->i", z, z)[:, None]
    left_first = np.array([[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(cluster._nearest(z, zz, left_first[None]),
                                  [[0, 0, 0, 0, 1]])
    np.testing.assert_array_equal(
        cluster._nearest(z, zz, left_first[None, ::-1]), [[0, 0, 0, 1, 0]])
    # on a grid symmetric about x = 1 and y = 0, Lloyd's steps meet rows at
    # exact ties between centers
    grid = np.array([[x, y] for x in range(3) for y in range(-2, 3)],
                    dtype=float)
    for seed, c in itertools.product(range(8), (2, 3, 4)):
        assert_kmeans_equals_reference(grid, c, seed=seed, restarts=2)


@pytest.mark.parametrize("p", [2, 3, 7, 8, 10, 14, 33])
def test_member_sums_over_counts_are_the_member_means(rng, p):
    # numpy's mean over axis 0 adds whole rows in index order for p >= 2, as
    # bincount does; a single column is summed pairwise instead
    c = 4
    z = rng.normal(size=(1000, p)) * 10.0 ** rng.integers(-6, 7, size=p)
    assign = rng.integers(0, c, size=1000)
    counts, sums = cluster._member_sums(z.T, assign[None], c)
    for q in range(c):
        mean = z[assign == q].mean(axis=0)
        assert (sums[0, q] / counts[0, q]).tobytes() == mean.tobytes()


def test_kmeans_rejects_overflowing_or_non_finite_input(rng):
    z = rng.normal(size=(20, 3))
    # 1.2e154 squares to a finite 1.44e308, but twice it overflows
    for bad in (1.2e154, 1e200, np.inf, np.nan):
        x = z.copy()
        x[7, 1] = bad
        with pytest.raises(NumericalError):
            kmeans(x, 2)
    # every squared distance is finite, but not their sum over the rows
    with pytest.raises(NumericalError):
        kmeans(rng.normal(size=(200, 3)) * 1.5e153, 2)
    kmeans(z * 1e150, 2)  # |z|^2 ~ 1e301: every sum stays finite


def test_kmeans_identical_across_blas_threads(tmp_path):
    # n = 3000 is large enough for OpenBLAS to split the distance GEMM across
    # threads; 300x8 with 3 clusters is ablate300's shape; the default 20
    # restarts step together, as in the pipeline; fresh processes, so the
    # thread count is read at start-up
    script = ("import hashlib, numpy as np\n"
              "from mvclust.cluster import kmeans\n"
              "rng = np.random.default_rng(3)\n"
              "for n, p, c in ((3000, 10, 5), (300, 8, 3)):\n"
              "    centers = rng.normal(0.0, 3.0, size=(c, p))\n"
              "    z = centers[rng.integers(0, c, n)] + rng.normal(size=(n, p))\n"
              "    m = kmeans(z, c, seed=1)\n"
              "    print(hashlib.sha256(m.centers.tobytes()"
              " + m.assignments.tobytes()).hexdigest(), repr(m.objective))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cluster.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_contingency_counts_arbitrary_label_ids():
    pred = np.array([7, -2, 7, 3, 3, 7])
    truth = np.array([10, 10, 0, 0, 0, 10])
    # rows -2, 3, 7; columns 0, 10
    np.testing.assert_array_equal(cluster._contingency(pred, truth),
                                  [[0, 1], [2, 0], [1, 2]])
    assert cluster._contingency(pred, truth).dtype == int


def test_accuracy_hand_contingency():
    # contingency [[5,1],[2,4]] -> best matching 5+4=9 of 12
    truth = np.array([0] * 6 + [1] * 6)
    pred = np.array([0] * 5 + [1] + [0] * 2 + [1] * 4)
    assert abs(accuracy(truth, pred) - 0.75) < 1e-12
    assert abs(purity(truth, pred) - 0.75) < 1e-12


def labels_of(table):
    """Prediction and truth label vectors whose contingency table is
    ``table`` with its all-zero rows and columns dropped."""
    r, c = table.shape
    counts = table.ravel()
    return (np.repeat(np.repeat(np.arange(r), c), counts),
            np.repeat(np.tile(np.arange(c), r), counts))


def assert_acc_is_the_optimum(table):
    # scipy is the reference here only: ACC is the best one-to-one matching's
    # count over the total, and every optimal matching has the same count
    rows, cols = linear_sum_assignment(table, maximize=True)
    expected = float(table[rows, cols].sum() / table.sum())
    pred, truth = labels_of(table)
    assert accuracy(pred, truth) == expected
    assert accuracy(truth, pred) == expected  # the transposed table
    assert evaluate(pred, truth).acc == expected
    assert evaluate(truth, pred).acc == expected


@st.composite
def count_tables(draw, max_side=12):
    """Integer tables of 1 to ``max_side`` rows and columns, some with zero
    rows or columns; a small top count makes ties common."""
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(1, max_side))
    top = draw(st.sampled_from([1, 2, 3, 40, 1000]))
    cells = draw(st.lists(st.integers(0, top), min_size=r * c,
                          max_size=r * c))
    table = np.array(cells, dtype=int).reshape(r, c)
    table[draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))] += 1
    return table


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=count_tables())
def test_accuracy_is_the_optimal_matching_over_the_total(table):
    assert_acc_is_the_optimum(table)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(r=st.integers(1, 12), c=st.integers(1, 12), value=st.integers(1, 9))
def test_accuracy_of_an_all_equal_table(r, c, value):
    table = np.full((r, c), value)
    assert_acc_is_the_optimum(table)
    assert accuracy(*labels_of(table)) == float(min(r, c) / (r * c))


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_accuracy_of_one_row_or_one_column(rng, k):
    for row in (rng.integers(1, 20, size=(1, k)), np.ones((1, k), dtype=int)):
        assert_acc_is_the_optimum(row)
        assert accuracy(*labels_of(row)) == float(row.max() / row.sum())


def test_accuracy_of_a_100_by_100_table():
    rng = np.random.default_rng(100)
    table = rng.integers(0, 30, size=(100, 100))
    table[np.arange(100), rng.permutation(100)] += rng.integers(0, 60, size=100)
    assert_acc_is_the_optimum(table)


def test_package_runs_without_scipy(tmp_path):
    # a fresh process: importing the package and evaluating labels must not
    # load scipy, which the tests use only as the ACC reference
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("0\n0\n1\n2\n2\n")
    truth.write_text("1\n1\n0\n2\n0\n")
    script = ("import sys\n"
              "import mvclust\n"
              "import mvclust.cli\n"
              f"code = mvclust.cli.main(['eval', '--pred', {str(pred)!r}, "
              f"'--truth', {str(truth)!r}])\n"
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cluster.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "ACC      0.8000" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_accuracy_relabeling_invariance(rng):
    truth = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)
    perm = rng.permutation(4)
    assert abs(accuracy(truth, pred) - accuracy(truth, perm[pred])) < 1e-12
    assert abs(nmi(truth, pred) - nmi(truth, perm[pred])) < 1e-12
    assert abs(purity(truth, pred) - purity(truth, perm[pred])) < 1e-12


def test_perfect_and_degenerate_metrics(monkeypatch):
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert accuracy(truth, truth) == 1.0
    assert nmi(truth, truth) == 1.0
    assert purity(truth, truth) == 1.0
    const = np.zeros(6, dtype=int)
    assert nmi(const, const) == 1.0       # identical single-cluster partitions
    assert nmi(truth, const) == 0.0       # zero-entropy prediction, differing
    assert abs(purity(const, truth) - 1.0 / 3.0) < 1e-12
    assert purity(truth, const) == 1.0    # every cluster is pure trivially
    # evaluate gives the same three numbers from one contingency table, the
    # degenerate NMI branch included
    contingency = cluster._contingency
    calls = []

    def counted(pred, true):
        calls.append(pred)
        return contingency(pred, true)

    monkeypatch.setattr(cluster, "_contingency", counted)
    for pred, true in ((truth, truth), (const, const), (truth, const),
                       (const, truth)):
        expected = (accuracy(pred, true), nmi(pred, true), purity(pred, true))
        calls.clear()
        report = evaluate(pred, true)
        assert len(calls) == 1
        assert (report.acc, report.nmi, report.purity) == expected


def test_nmi_of_one_label_against_many_is_zero():
    # these counts sum a lone partition's probabilities to 1 + 2^-52, whose
    # float entropy is below 0; NMI was the square root of a negative number
    truth = np.repeat(np.arange(6), [2, 2, 1, 2, 2, 2])
    const = np.zeros(len(truth), dtype=int)
    assert nmi(const, truth) == 0.0
    assert nmi(truth, const) == 0.0
    assert evaluate(const, truth).nmi == 0.0


def straightline_nmi(truth, pred):
    n = len(truth)
    t_vals, p_vals = np.unique(truth), np.unique(pred)
    mi = 0.0
    for a in t_vals:
        for b in p_vals:
            joint = np.sum((truth == a) & (pred == b)) / n
            if joint > 0:
                pa = np.sum(truth == a) / n
                pb = np.sum(pred == b) / n
                mi += joint * np.log(joint / (pa * pb))
    def entropy(labels):
        _, counts = np.unique(labels, return_counts=True)
        p = counts / n
        return -np.sum(p * np.log(p))
    ht, hp = entropy(truth), entropy(pred)
    if ht == 0.0 and hp == 0.0:
        return 1.0
    if ht == 0.0 or hp == 0.0:
        return 0.0
    return mi / np.sqrt(ht * hp)


def test_nmi_matches_straightline(rng):
    for _ in range(30):
        n = int(rng.integers(10, 80))
        truth = rng.integers(0, 5, size=n)
        pred = rng.integers(0, 4, size=n)
        assert rel_err(nmi(truth, pred), straightline_nmi(truth, pred)) < 1e-10


def test_nmi_independent_labels_near_zero(rng):
    truth = np.repeat([0, 1], 5000)
    pred = np.tile([0, 1], 5000)
    assert nmi(truth, pred) < 1e-6


def test_purity_dominates_accuracy(rng):
    for _ in range(200):
        n = int(rng.integers(5, 60))
        c = int(rng.integers(2, 6))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        assert purity(truth, pred) >= accuracy(truth, pred) - 1e-12


def test_evaluate_and_report_io(tmp_path, rng):
    truth = rng.integers(0, 3, size=40)
    report = evaluate(truth, truth)
    assert report.acc == 1.0 and report.nmi == 1.0 and report.purity == 1.0
    text = format_report(report)
    assert "acc" in text.lower() and "nmi" in text.lower()
    path = tmp_path / "metrics.txt"
    write_report(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "acc = 1.000000000000"


def test_metric_length_mismatch(rng):
    with pytest.raises(ShapeError):
        accuracy(np.zeros(5, dtype=int), np.zeros(6, dtype=int))
