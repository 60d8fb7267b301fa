import numpy as np
import pytest

from bellatrex.numeric import (
    _complete_basis,
    _squared_distances,
    _fix_signs,
    identity_projection,
    kmeans_pp,
    nearest_point,
    pca_fit,
    pca_spectrum,
    pca_transform,
    sorted_rows,
)


def match_partitions(a, b):
    """True when two labelings induce the same partition."""
    mapping = {}
    for la, lb in zip(a, b):
        if la in mapping and mapping[la] != lb:
            return False
        mapping[la] = lb
    return len(set(mapping.values())) == len(mapping)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_identical_rows_zero_variance():
    X = np.tile([3.0, -1.0, 2.0], (6, 1))
    proj = pca_fit(X, 2)
    assert np.allclose(proj.explained_variance, 0.0)
    assert np.allclose(pca_transform(proj, X), 0.0)


def test_pca_line_y_equals_x():
    t = np.linspace(-2, 2, 9)
    X = np.column_stack([t, t])
    proj = pca_fit(X, 2)
    assert np.allclose(np.abs(proj.components[0]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert proj.components[0][0] > 0  # sign convention
    assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_full_rank_reconstruction(rng):
    X = rng.normal(size=(50, 10))
    proj = pca_fit(X, 10)
    Z = pca_transform(proj, X)
    back = Z @ proj.components + proj.mean
    assert np.max(np.abs(back - X)) < 1e-8


def test_pca_variance_sums_to_total(rng):
    X = rng.normal(size=(40, 7)) * rng.uniform(0.5, 3.0, size=7)
    proj = pca_fit(X, 7)
    total = X.var(axis=0).sum()
    assert proj.explained_variance.sum() == pytest.approx(total, rel=1e-6)


def test_pca_transform_of_mean_is_origin(rng):
    X = rng.normal(size=(12, 4))
    proj = pca_fit(X, 3)
    z = pca_transform(proj, proj.mean[None, :])
    assert np.allclose(z, 0.0, atol=1e-12)


def test_pca_single_point_maps_to_origin():
    proj = pca_fit(np.array([[5.0, 7.0, 1.0]]), 2)
    assert np.allclose(pca_transform(proj, np.array([[5.0, 7.0, 1.0]])), 0.0)


def test_pca_transform_matches_matrix_product_oracle():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [2.0, 2.0, 0.0]])
    proj = pca_fit(X, 2)
    expected = (X - proj.mean) @ proj.components.T  # independent product
    assert np.allclose(pca_transform(proj, X), expected)


def test_pca_rows_orthonormal(rng):
    X = rng.normal(size=(30, 6))
    proj = pca_fit(X, 6)
    gram = proj.components @ proj.components.T
    assert np.allclose(gram, np.eye(6), atol=1e-8)


def test_pca_gram_route_matches_covariance_route(rng):
    # p > n triggers the Gram-matrix route; eigenvalues must agree with the
    # covariance spectrum and rows stay orthonormal
    X = rng.normal(size=(5, 9))
    proj = pca_fit(X, 4)
    centered = X - X.mean(axis=0)
    cov_eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered / 5))[::-1]
    assert np.allclose(proj.explained_variance, cov_eigs[:4], atol=1e-10)
    gram = proj.components @ proj.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-8)
    # transform agrees with direct projection
    assert np.allclose(pca_transform(proj, X), centered @ proj.components.T)


def test_pca_gram_route_degenerate_rank_pads(rng):
    X = np.tile(rng.normal(size=9), (3, 1))  # identical rows, p > n
    proj = pca_fit(X, 3)
    assert proj.components.shape == (3, 9)
    assert np.allclose(proj.explained_variance, 0.0)
    assert np.allclose(proj.components @ proj.components.T, np.eye(3), atol=1e-8)


def test_pca_clamps_dimension(rng):
    X = rng.normal(size=(8, 3))
    proj = pca_fit(X, 10)
    assert proj.n_components == 3


def test_identity_projection_passthrough(rng):
    X = rng.normal(size=(5, 4))
    proj = identity_projection(4)
    assert np.array_equal(pca_transform(proj, X), X)


def test_pca_transform_dimension_mismatch(rng):
    proj = pca_fit(rng.normal(size=(5, 4)), 2)
    with pytest.raises(ValueError):
        pca_transform(proj, rng.normal(size=(5, 3)))


def reference_pca_fit(X, n_components):
    """PCA fitted for one dimension alone: the eigendecomposition and, on
    the Gram route, the back-projection matmul at exactly that width."""
    n, p = X.shape
    d = max(0, min(n_components, p))
    mean = X.mean(axis=0)
    centered = X - mean
    if p <= n:
        eigval, eigvec = np.linalg.eigh(centered.T @ centered / n)
        order = np.argsort(eigval)[::-1]
        variance = np.clip(eigval[order[:d]], 0.0, None)
        components = eigvec[:, order[:d]].T
    else:
        eigval, eigvec = np.linalg.eigh(centered @ centered.T / n)
        order = np.argsort(eigval)[::-1]
        eigval = np.clip(eigval[order], 0.0, None)
        eigvec = eigvec[:, order]
        keep = min(d, int(np.sum(eigval > 1e-12)))
        components = (centered.T @ eigvec[:, :keep] / np.sqrt(n * eigval[:keep])).T
        variance = np.concatenate([eigval[:keep], np.zeros(d - keep)])
        if keep < d:
            components = _complete_basis(components, p, d)
    return mean, _fix_signs(np.atleast_2d(components.reshape(d, p))), variance


def assert_same_projection(proj, X, d):
    mean, components, variance = reference_pca_fit(X, d)
    assert np.array_equal(proj.mean, mean)
    assert np.array_equal(proj.components, components)
    assert np.array_equal(proj.explained_variance, variance)


def rank_deficient_inputs(rng):
    yield rng.normal(size=(9, 4))  # covariance route
    yield rng.normal(size=(3, 7))  # Gram route, n < d for d > 3
    yield np.tile(rng.normal(size=5), (4, 1))  # identical rows
    base = rng.normal(size=(3, 6))
    yield base[[0, 1, 1, 2, 0]]  # duplicate rows, Gram route
    yield rng.integers(0, 2, size=(12, 4)).astype(float)  # repeated 0/1 rows
    yield rng.normal(size=(1, 4))  # a single row


def test_shared_spectrum_projections_equal_single_fits(rng):
    # one eigendecomposition serves every d, in any order, bit for bit
    for X in rank_deficient_inputs(rng):
        spectrum = pca_spectrum(X)
        for d in (5, 2, 1, 3, X.shape[1] + 2):
            assert_same_projection(spectrum.projection(d), X, d)
            assert_same_projection(pca_fit(X, d), X, d)


def test_shared_spectrum_random_cases(rng):
    # wide rule matrices take the Gram route, whose width-d matmul is where
    # a sliced wider fit would differ
    for _ in range(300):
        n, p = int(rng.integers(2, 12)), int(rng.integers(3, 30))
        X = rng.random(size=(n, p)) * (rng.random(size=p) < 0.5)
        spectrum = pca_spectrum(X)
        for d in (5, 2):
            assert_same_projection(spectrum.projection(d), X, d)


# ---------------------------------------------------------------------------
# K-Means++
# ---------------------------------------------------------------------------

def _assign_with_repair(X, centroids, k):
    """Nearest-centroid assignment; empty clusters are reseeded at the point
    farthest from its own centroid until none is empty."""
    while True:
        d2 = _squared_distances(X, centroids)
        assign = np.argmin(d2, axis=1)
        sizes = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return assign
        own = d2[np.arange(X.shape[0]), assign]
        centroids[empty[0]] = X[int(np.argmax(own))]


def reference_kmeans(X, n_clusters, seed, max_iter=100):
    """K-Means++ and Lloyd without shortcuts: distinct rows counted with
    np.unique, and Lloyd iterations run for K = 1 as for any K."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    k = max(1, min(n_clusters, np.unique(Xs, axis=0).shape[0]))
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = Xs[int(rng.integers(n))]
    if k > 1:
        best_d2 = np.sum((Xs - centroids[0]) ** 2, axis=1)
        for c in range(1, k):
            cum = np.cumsum(best_d2 / best_d2.sum())
            pick = int(np.searchsorted(cum, rng.random(), side="right"))
            if pick >= n or best_d2[pick] == 0.0:
                pick = int(np.argmax(best_d2))
            centroids[c] = Xs[pick]
            best_d2 = np.minimum(best_d2, np.sum((Xs - centroids[c]) ** 2, axis=1))
    assign = None
    for _ in range(max_iter):
        new_assign = _assign_with_repair(Xs, centroids, k)
        if assign is not None and np.array_equal(assign, new_assign):
            assign = new_assign
            break
        assign = new_assign
        for c in range(k):
            centroids[c] = Xs[assign == c].mean(axis=0)
    else:
        assign = _assign_with_repair(Xs, centroids, k)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = assign
    return k, centroids, assignments, np.bincount(assign, minlength=k)


def reference_representatives(X, clustering):
    """Per cluster, the member nearest its centroid, found by nearest_point
    over the members in row order (lowest row on ties)."""
    reps = []
    for c in range(clustering.n_clusters):
        members = np.flatnonzero(clustering.assignments == c)
        reps.append(int(members[nearest_point(X[members], clustering.centroids[c])]))
    return reps


def assert_bitwise(got, expected):
    # np.array_equal treats -0.0 and 0.0 as equal; the bytes do not
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_matches_reference(X, n_clusters, seed, max_iter=100):
    got = kmeans_pp(X, n_clusters, seed=seed, max_iter=max_iter)
    k, centroids, assignments, sizes = reference_kmeans(X, n_clusters, seed, max_iter)
    assert got.n_clusters == k
    assert_bitwise(got.centroids, centroids)
    assert_bitwise(got.assignments, assignments)
    assert_bitwise(got.sizes, sizes)
    assert got.representatives.tolist() == reference_representatives(np.asarray(X), got)
    return got


def test_kmeans_k1_matches_lloyd(rng):
    for seed in range(20):
        X = rng.normal(size=(int(rng.integers(1, 30)), int(rng.integers(1, 5))))
        assert_matches_reference(X, 1, seed)


def test_kmeans_k1_without_iterations_keeps_seeded_centroid(rng):
    X = rng.normal(size=(15, 3))
    got = assert_matches_reference(X, 1, seed=4, max_iter=0)
    assert any(np.array_equal(got.centroids[0], row) for row in X)


def test_kmeans_duplicate_rows_match_lloyd(rng):
    base = rng.normal(size=(4, 2))
    base[:, 0] = base[0, 0]  # distinct rows that agree in their first column
    X = base[rng.integers(0, 4, size=25)]
    for k in (1, 2, 3, 4, 6):
        for seed in range(5):
            assert_matches_reference(X, k, seed)


def test_kmeans_signed_zero_rows_count_as_equal():
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.0, 1.0]])
    for k in (1, 2, 3):
        for seed in range(4):
            got = assert_matches_reference(X, k, seed)
            assert got.n_clusters == min(k, 2)

@pytest.mark.parametrize("width", [1, 2, 5, 24])
def test_kmeans_bitwise_equals_reference(rng, width):
    for trial in range(12):
        n = int(rng.integers(1, 90))
        X = rng.normal(size=(n, width))
        if trial % 3 == 1:
            X = X[rng.integers(0, max(1, n // 4), size=n)]  # duplicate rows
        if trial % 3 == 2:
            X = np.round(X)  # ties in distances and -0.0 entries
        for k in (1, 2, 3, 5):
            assert_matches_reference(X, k, seed=trial)
            assert_matches_reference(X, k, seed=trial, max_iter=0)
            assert_matches_reference(X, k, seed=trial, max_iter=1)


@pytest.mark.parametrize("width", [1, 2, 5, 24])
def test_kmeans_long_sums_bitwise(rng, width):
    # a few hundred rows per cluster: centroid sums run far past any
    # unrolled or pairwise block
    X = rng.normal(size=(600, width)) * rng.uniform(0.01, 100.0, size=width)
    for k in (2, 3):
        assert_matches_reference(X, k, seed=k)


def all_negative_zero_columns(X, clustering):
    """Number of (cluster, column) pairs whose member entries are all -0.0."""
    negative = (X == 0.0) & np.signbit(X)
    return sum(int(negative[clustering.assignments == c].all(axis=0).sum())
               for c in range(clustering.n_clusters))


def test_kmeans_negative_zero_columns_bitwise():
    # clusters whose members hold only -0.0 in a column: the centroid sums
    # start from +0.0, as numpy's mean does, so the bytes agree
    X = np.array([[-0.0, 1.0], [-0.0, 2.0], [9.0, -0.0], [8.0, -0.0], [0.0, 1.5]])
    for seed in range(6):
        got = assert_matches_reference(X, 2, seed)
        assert all_negative_zero_columns(X, got) > 0
    for width in (2, 5):
        Z = np.zeros((7, width))
        Z[[1, 2, 4]] = -0.0
        Z[5:, 0] = 3.0
        for k in (1, 2, 3):
            assert_matches_reference(Z, k, seed=k)


def test_kmeans_empty_cluster_repair(monkeypatch):
    X = np.array([[-0.0, 2.0], [0.0, 0.0], [4.0, -0.0], [1.0, -3.0],
                  [-0.0, -3.0], [-0.0, 1.0], [0.0, 2.0], [5.0, 1.0]])
    repairs = []
    assign = _assign_with_repair

    def counted(Xs, centroids, k):
        d2 = _squared_distances(Xs, centroids)
        repairs.append(np.bincount(np.argmin(d2, axis=1), minlength=k).min() == 0)
        return assign(Xs, centroids, k)

    monkeypatch.setitem(globals(), "_assign_with_repair", counted)
    assert_matches_reference(X, 4, seed=175)
    assert any(repairs)  # a Lloyd pass left a cluster empty


def test_sorted_rows_shared_by_every_cluster_count(rng):
    X = np.round(rng.normal(size=(40, 3)), 1)
    rows = sorted_rows(X)
    before = rows.rows.copy()
    for k in (3, 1, 2, 3):
        shared = rows.kmeans(k, seed=k)
        fresh = kmeans_pp(X, k, seed=k)
        for name in ("centroids", "assignments", "sizes", "representatives"):
            assert_bitwise(getattr(shared, name), getattr(fresh, name))
    assert_bitwise(rows.rows, before)
    assert rows.distinct == np.unique(X, axis=0).shape[0]


def test_kmeans_single_cluster_is_mean(rng):
    X = rng.normal(size=(20, 3))
    cl = kmeans_pp(X, 1, seed=0)
    assert cl.n_clusters == 1
    assert np.allclose(cl.centroids[0], X.mean(axis=0))
    assert cl.sizes.tolist() == [20]


def test_kmeans_two_blobs(rng):
    a = rng.normal(size=(25, 2)) * 0.1
    b = rng.normal(size=(25, 2)) * 0.1 + 50.0
    X = np.vstack([a, b])
    cl = kmeans_pp(X, 2, seed=3)
    labels = cl.assignments
    assert len(set(labels[:25])) == 1
    assert len(set(labels[25:])) == 1
    assert labels[0] != labels[30]


def test_kmeans_k_clamped_to_distinct_rows():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    cl = kmeans_pp(X, 4, seed=1)
    assert cl.n_clusters == 2


def test_kmeans_k_at_least_n_distinct_zero_inertia(rng):
    X = rng.normal(size=(6, 2))
    cl = kmeans_pp(X, 6, seed=5)
    assert cl.n_clusters == 6
    assert sorted(cl.sizes.tolist()) == [1] * 6
    d = X - cl.centroids[cl.assignments]
    assert np.allclose(d, 0.0)


def test_kmeans_deterministic(rng):
    X = rng.normal(size=(40, 3))
    a = kmeans_pp(X, 3, seed=11)
    b = kmeans_pp(X, 3, seed=11)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_every_point_at_nearest_centroid(rng):
    X = rng.normal(size=(60, 4))
    cl = kmeans_pp(X, 4, seed=2)
    d2 = ((X[:, None, :] - cl.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), cl.assignments)
    assert cl.sizes.sum() == 60
    assert np.all(cl.sizes > 0)


def test_kmeans_inertia_non_increasing(rng):
    X = rng.normal(size=(80, 3))
    trace: list[float] = []
    kmeans_pp(X, 4, seed=9, inertia_trace=trace)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_permutation_invariant_partition(rng):
    X = rng.normal(size=(30, 2))
    a = kmeans_pp(X, 3, seed=4)
    for _ in range(3):
        perm = rng.permutation(30)
        b = kmeans_pp(X[perm], 3, seed=4)
        labels_in_original_order = np.empty(30, dtype=int)
        labels_in_original_order[perm] = b.assignments
        assert match_partitions(a.assignments.tolist(),
                                labels_in_original_order.tolist())
        assert sorted(a.sizes.tolist()) == sorted(b.sizes.tolist())


# ---------------------------------------------------------------------------
# Nearest point
# ---------------------------------------------------------------------------

def test_nearest_point_exact_row(rng):
    X = rng.normal(size=(10, 3))
    assert nearest_point(X, X[7]) == 7


def test_nearest_point_tie_lowest_index():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert nearest_point(X, np.zeros(2)) == 0


def test_nearest_point_matches_linear_scan(rng):
    X = rng.normal(size=(50, 3))
    target = rng.normal(size=3)
    dists = [float(np.linalg.norm(row - target)) for row in X]
    assert nearest_point(X, target) == int(np.argmin(dists))
    idx = nearest_point(X, target)
    assert all(dists[idx] <= d for d in dists)
