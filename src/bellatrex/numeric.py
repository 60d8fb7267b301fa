"""Geometry kernels: PCA projection, seeded K-Means++ and nearest-point search.

All routines are deterministic: PCA uses a fixed sign convention, K-Means++
draws from a seeded generator, and every argmin tie resolves to the lowest
index.

Each matrix is decomposed once (``pca_spectrum``) for every projection
dimension and sorted once (``sorted_rows``) for every cluster count.  A
Lloyd pass updates all centroids with one ``np.bincount`` over the sorted
rows: each centroid is its members' sum, row after row from +0.0, divided
by their count, which is bit for bit ``mean(axis=0)`` of the member rows
when there are two or more columns.  numpy sums a single column pairwise,
so one-column matrices keep ``mean(axis=0)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RANK_TOL = 1e-12


@dataclass(frozen=True)
class Projection:
    """Affine map x -> (x - mean) @ components.T with orthonormal rows."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class Clustering:
    n_clusters: int
    centroids: np.ndarray
    assignments: np.ndarray
    sizes: np.ndarray
    representatives: np.ndarray  # per cluster, the row nearest its centroid


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _complete_basis(components: np.ndarray, p: int, want: int) -> np.ndarray:
    """Extend orthonormal rows to ``want`` rows using standard basis vectors."""
    rows = [components[i] for i in range(components.shape[0])]
    for j in range(p):
        if len(rows) >= want:
            break
        cand = np.zeros(p)
        cand[j] = 1.0
        for r in rows:
            cand -= np.dot(cand, r) * r
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            rows.append(cand / norm)
    return np.array(rows[:want])


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of one centred matrix by descending eigenvalue (clipped at
    zero): of the p x p covariance when p <= n, otherwise of the n x n Gram
    matrix.  Every projection dimension fitted to the same rows shares it."""

    mean: np.ndarray
    centered: np.ndarray
    eigval: np.ndarray
    eigvec: np.ndarray

    def projection(self, n_components: int) -> Projection:
        """The ``pca_fit`` projection to ``n_components`` dimensions."""
        n, p = self.centered.shape
        d = max(0, min(n_components, p))
        if p <= n:
            variance = self.eigval[:d]
            components = self.eigvec[:, :d].T
        else:
            # the matmul runs at exactly this width: a product one column
            # wide is not bit-identical to a column of a wider product
            keep = min(d, int(np.sum(self.eigval > _RANK_TOL)))
            scale = np.sqrt(n * self.eigval[:keep])
            components = (self.centered.T @ self.eigvec[:, :keep] / scale).T
            variance = np.concatenate([self.eigval[:keep], np.zeros(d - keep)])
            if keep < d:
                components = _complete_basis(components, p, d)
        return Projection(
            mean=self.mean,
            components=_fix_signs(np.atleast_2d(components.reshape(d, p))),
            explained_variance=variance,
        )


def pca_spectrum(X: np.ndarray) -> Spectrum:
    """The eigendecomposition behind ``pca_fit(X, d)`` for every d."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    n, p = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    if p <= n:
        eigval, eigvec = np.linalg.eigh(centered.T @ centered / n)
    else:
        eigval, eigvec = np.linalg.eigh(centered @ centered.T / n)
    order = np.argsort(eigval)[::-1]
    return Spectrum(mean, centered, np.clip(eigval[order], 0.0, None), eigvec[:, order])


def pca_fit(X: np.ndarray, n_components: int) -> Projection:
    """Principal directions by descending variance (population convention).

    Uses the p x p covariance when p <= n, otherwise the n x n Gram matrix.
    The requested dimension is clamped to min(n_components, p); directions
    beyond the achievable rank are orthonormal fill-ins with zero variance.
    Sign convention: the largest-magnitude coordinate of each component is
    positive (first such coordinate on magnitude ties).
    """
    return pca_spectrum(X).projection(n_components)


def identity_projection(p: int) -> Projection:
    """The 'no projection' stage: mean 0, identity components (d = p)."""
    return Projection(
        mean=np.zeros(p),
        components=np.eye(p),
        explained_variance=np.zeros(p),
    )


def pca_transform(proj: Projection, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != proj.mean.shape[0]:
        raise ValueError(
            f"expected {proj.mean.shape[0]} columns, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    return (X - proj.mean) @ proj.components.T


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _representatives(d2: np.ndarray, assign: np.ndarray, sizes: np.ndarray,
                     order: np.ndarray) -> np.ndarray:
    """Per cluster, the original index of the member nearest its centroid
    (lowest original index on distance ties), from the assignment pass's
    (sorted rows x clusters) distance matrix."""
    own = d2[np.arange(assign.size), assign]
    ranked = np.lexsort((order, own, assign))
    return order[ranked[np.cumsum(sizes) - sizes]]


@dataclass(frozen=True)
class SortedRows:
    """One matrix in canonical row order: its rows lexsorted, the order that
    sorts them and the number of distinct rows.  Every cluster count fitted
    to the same rows shares it, and the clustering is a function of the
    multiset of rows, invariant under input row permutation."""

    rows: np.ndarray
    order: np.ndarray
    distinct: int

    def kmeans(self, n_clusters: int, seed: int | np.random.Generator, max_iter: int = 100,
               inertia_trace: list | None = None) -> Clustering:
        """K-Means++ seeding (D^2 sampling) followed by Lloyd iterations until
        the assignment reaches a fixpoint or ``max_iter`` passes.  The
        seeding draws from ``np.random.default_rng(seed)``, which is
        ``seed`` itself when it is a generator.

        ``n_clusters`` is clamped to the number of distinct rows, so the
        result never has an empty cluster.  A pass that leaves a cluster
        empty reseeds it at the row farthest from its own centroid and
        assigns again.  Each centroid is the sum of its members in sorted
        row order, divided by their count: what ``mean(axis=0)`` of the
        member rows gives, bit for bit.
        """
        Xs, order = self.rows, self.order
        n, d = Xs.shape
        k = max(1, min(n_clusters, self.distinct))
        if k == 1 and max_iter > 0 and inertia_trace is None:
            # Lloyd's first pass puts every row in the one cluster and moves
            # its centroid to their mean, where the second pass stops
            centroids = Xs.mean(axis=0)[None, :]
            assign = np.zeros(n, dtype=np.int64)
            sizes = np.array([n], dtype=np.int64)
            reps = _representatives(_squared_distances(Xs, centroids), assign, sizes, order)
            return Clustering(1, centroids, assign, sizes, reps)
        rng = np.random.default_rng(seed)

        centroids = np.empty((k, d))
        centroids[0] = Xs[int(rng.integers(n))]
        if k > 1:
            best_d2 = np.sum((Xs - centroids[0]) ** 2, axis=1)
            for c in range(1, k):
                cum = np.cumsum(best_d2 / best_d2.sum())
                pick = int(np.searchsorted(cum, rng.random(), side="right"))
                if pick >= n or best_d2[pick] == 0.0:
                    pick = int(np.argmax(best_d2))
                centroids[c] = Xs[pick]
                if c + 1 < k:  # nothing reads the distances after the last pick
                    best_d2 = np.minimum(best_d2, np.sum((Xs - centroids[c]) ** 2, axis=1))

        row_ids = np.arange(n)
        flat = Xs.ravel()
        columns = np.arange(d)
        assign = None
        for it in range(max_iter + 1):
            while True:
                d2 = _squared_distances(Xs, centroids)
                new_assign = d2.argmin(axis=1)
                sizes = np.bincount(new_assign, minlength=k)
                if np.count_nonzero(sizes) == k:
                    break
                # reseed the first empty cluster at the row farthest from
                # its own centroid
                own = d2[row_ids, new_assign]
                centroids[int(sizes.argmin())] = Xs[int(own.argmax())]
            if it == max_iter:
                assign = new_assign
                break
            if inertia_trace is not None:
                inertia_trace.append(float(d2[row_ids, new_assign].sum()))
            if assign is not None and not np.count_nonzero(assign != new_assign):
                break
            assign = new_assign
            if d == 1:
                # numpy sums a single column pairwise, not row after row
                centroids = np.vstack([Xs[assign == c].mean(axis=0) for c in range(k)])
                continue
            bins = (assign[:, None] * d + columns).ravel()
            sums = np.bincount(bins, weights=flat, minlength=k * d)
            centroids = sums.reshape(k, d) / sizes[:, None]

        assignments = np.empty(n, dtype=np.int64)
        assignments[order] = assign
        return Clustering(k, centroids, assignments, sizes,
                          _representatives(d2, assign, sizes, order))


def sorted_rows(X: np.ndarray) -> SortedRows:
    """The canonical form behind ``kmeans_pp(X, K)`` for every K."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    # equal rows are neighbours in lexicographic order
    distinct = 1 + int(np.count_nonzero(np.any(Xs[1:] != Xs[:-1], axis=1)))
    return SortedRows(Xs, order, distinct)


def kmeans_pp(
    X: np.ndarray,
    n_clusters: int,
    seed: int,
    max_iter: int = 100,
    inertia_trace: list | None = None,
) -> Clustering:
    """Seeded K-Means++ of the rows of X (see ``SortedRows.kmeans``)."""
    return sorted_rows(X).kmeans(n_clusters, seed, max_iter, inertia_trace)


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Column sums of consecutive segments of the rows of ``values`` (rows,
    w): segment i is the next ``lengths[i]`` rows, at least one.  Row i of
    the result is ``np.add.reduce(segment_i, axis=0)`` bit for bit, for
    all segments at once.

    numpy sums one column pairwise and several columns row after row, both
    from +0.0; adding +0.0 last turns the -0.0 that a sum of -0.0 terms
    gives here into numpy's +0.0.
    - One column: ``np.add.reduceat`` sums a segment's terms after its
      first one pairwise, as ``np.add.reduce`` sums a whole column, and adds
      the first term in front; a -0.0 put ahead of every segment takes that
      place and changes no sum.
    - Several columns: a running sum (``np.cumsum`` adds in order) along a
      zero-padded (segments, longest, w) block, read at each segment's last
      row.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if values.shape[1] == 1:
        # segment i starts at heads[i] of ``ahead``, with its -0.0 there
        heads = np.cumsum(lengths) - lengths + np.arange(lengths.size)
        ahead = np.empty(values.shape[0] + lengths.size)
        ahead[heads] = -0.0
        real = np.ones(ahead.size, dtype=bool)
        real[heads] = False
        ahead[real] = values[:, 0]
        return np.add.reduceat(ahead, heads)[:, None] + 0.0
    real = np.arange(int(lengths.max())) < lengths[:, None]
    block = np.zeros(real.shape + values.shape[1:])
    block[real] = values
    return np.cumsum(block, axis=1)[np.arange(lengths.size), lengths - 1] + 0.0


def nearest_point(X: np.ndarray, target: np.ndarray) -> int:
    """Index of the row of X closest to ``target`` in Euclidean distance;
    ties resolve to the lowest index."""
    X = np.asarray(X, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    diff = X - target
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
