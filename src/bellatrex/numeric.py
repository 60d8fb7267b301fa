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

``kmeans_batch`` clusters many matrices of one shape at once, bit for bit
``SortedRows.kmeans`` of each: every generator draws its own seeds in the
per-matrix order, and each Lloyd pass is one set of array operations over
the (matrices, n, d) stack, which numpy reduces matrix by matrix exactly as
it reduces one matrix alone (a single column through ``segment_sums``).
The explainer clusters every K > 1 cell of a tuning block with it, one
call per effective K, from a single matrix on.

The explainer's tuning step runs on such stacks too: ``pca_spectra``
centres, decomposes and projects a stack of rule matrices, ``sorted_stack``
sorts it with one ``lexsort`` and ``kmeans_one`` solves its K = 1 cells in
closed form, each bit for bit its one-matrix counterpart.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """Each row (of each matrix of a stack) negated when its first
    largest-magnitude entry is negative, as a new C-contiguous array: the
    projection's matmul reads it transposed, and BLAS rounds a product by
    its operands' layout."""
    top = np.abs(components).argmax(axis=-1)
    negative = np.take_along_axis(components, top[..., None], axis=-1) < 0
    return np.ascontiguousarray(np.where(negative, -components, components))


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


@dataclass(frozen=True)
class SpectrumStack:
    """``pca_spectrum`` of C matrices of one shape (n, p), stacked: the
    fields of ``Spectrum`` that project, each with a leading axis of C."""

    centered: np.ndarray
    eigval: np.ndarray
    eigvec: np.ndarray

    def projected(self, n_components: int) -> np.ndarray:
        """(C, n, d): ``pca_transform`` of each matrix by its
        ``Spectrum.projection(n_components)``, bit for bit.  The Gram
        branch's matmul runs once per number of kept eigenvectors, at that
        width, and a rank-deficient matrix's basis is completed alone."""
        C, n, p = self.centered.shape
        d = max(0, min(n_components, p))
        if p <= n:
            components = self.eigvec[:, :, :d].transpose(0, 2, 1)
        else:
            components = np.empty((C, d, p))
            keep = np.minimum(d, np.count_nonzero(self.eigval > _RANK_TOL, axis=1))
            for width in np.unique(keep).tolist():
                cells = np.flatnonzero(keep == width)
                scale = np.sqrt(n * self.eigval[cells, :width])
                part = (self.centered[cells].transpose(0, 2, 1) @ self.eigvec[cells, :, :width]
                        / scale[:, None, :]).transpose(0, 2, 1)
                if width < d:
                    part = [_complete_basis(rows, p, d) for rows in part]
                components[cells] = part
        # (X - mean) in pca_transform is ``centered``, bit for bit
        return self.centered @ _fix_signs(components).transpose(0, 2, 1)


def pca_spectra(X: np.ndarray) -> SpectrumStack:
    """``pca_spectrum`` of every matrix of X (C, n, p), bit for bit: numpy
    centres, multiplies, decomposes and sorts each matrix of a C-contiguous
    stack as it does the C-contiguous matrix alone (one column's mean is a
    pairwise sum either way)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    C, n, p = X.shape
    mean = X.mean(axis=1)
    centered = X - mean[:, None, :]
    if p <= n:
        eigval, eigvec = np.linalg.eigh(centered.transpose(0, 2, 1) @ centered / n)
    else:
        eigval, eigvec = np.linalg.eigh(centered @ centered.transpose(0, 2, 1) / n)
    order = np.argsort(eigval, axis=1)[:, ::-1]
    return SpectrumStack(centered,
                         np.clip(np.take_along_axis(eigval, order, axis=1), 0.0, None),
                         np.take_along_axis(eigvec, order[:, None, :], axis=2))


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


@dataclass(frozen=True)
class SortedStack:
    """``sorted_rows`` of C matrices of one shape (n, d), stacked: (C, n, d)
    sorted rows, (C, n) orders and (C,) distinct-row counts."""

    rows: np.ndarray
    order: np.ndarray
    distinct: np.ndarray

    def __getitem__(self, cells) -> "SortedStack":
        """The stack of the matrices ``cells`` (an index array)."""
        return SortedStack(self.rows[cells], self.order[cells], self.distinct[cells])


def _stacked_distances(Xs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(cells, n, k) squared distances from each cell's rows (cells, n, d)
    to its centroids (cells, k, d), bit for bit ``_squared_distances`` of
    each cell: one centroid at a time, so the differences stay (cells, n,
    d)."""
    d2 = np.empty(Xs.shape[:2] + centroids.shape[1:2])
    for j in range(centroids.shape[1]):
        diff = Xs - centroids[:, j:j + 1]
        d2[:, :, j] = np.einsum("cik,cik->ci", diff, diff)
    return d2


def _stacked_representatives(own: np.ndarray, assign: np.ndarray, order: np.ndarray,
                             k: int) -> np.ndarray:
    """(cells, k): ``_representatives`` of each cell, from its rows' (cells,
    n) distances to their own centroids, cluster ids and input row ids:
    per cluster, the input row of the nearest member, the lowest one on
    ties.  On a stack, k minimum passes cost less than one ``lexsort``."""
    reps = np.empty(own.shape[:1] + (k,), dtype=order.dtype)
    for j in range(k):
        member = assign == j
        nearest = np.where(member, own, np.inf).min(axis=1, keepdims=True)
        reps[:, j] = np.where(member & (own == nearest), order, order.shape[1]).min(axis=1)
    return reps


def _own(d2: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its nearest centroid: the minimum,
    which is the bytes of the distance at the argmin, since squared
    distances are never -0.0."""
    return d2.min(axis=-1)


@dataclass(frozen=True)
class ClusteringBatch:
    """The clusterings of C cells of one shape: (C, k, d) centroids, (C, n)
    assignments in each cell's input row order, (C, k) sizes and (C, k)
    representatives."""

    centroids: np.ndarray
    assignments: np.ndarray
    sizes: np.ndarray
    representatives: np.ndarray

    def cell(self, c: int) -> Clustering:
        """Cell c's clustering, copied out of the batch's arrays."""
        return Clustering(self.sizes.shape[1], self.centroids[c].copy(),
                          self.assignments[c].copy(), self.sizes[c].copy(),
                          self.representatives[c].copy())


def kmeans_batch(cells: SortedStack, n_clusters: int,
                 rngs: Sequence[np.random.Generator], max_iter: int = 100,
                 inertia_traces: Sequence[list] | None = None) -> ClusteringBatch:
    """``SortedRows.kmeans(n_clusters, rngs[c], max_iter, inertia_traces[c])``
    of every cell c of a sorted stack at once, bit for bit, for cells with
    at least ``n_clusters`` >= 2 distinct rows each (so no clamp and no
    closed form applies).

    Each cell draws its K-Means++ seeds from its own generator in the
    per-cell order; every seeding distance, Lloyd assignment and centroid
    sum then runs over the (cells, n, d) stack, where numpy reduces each
    cell's rows exactly as it reduces them alone.  A cell whose pass leaves
    a cluster empty is repaired on its own; a cell whose assignment reaches
    its fixpoint is finished and dropped from the stack, and the
    representatives of all cells are picked together.  One column is
    summed pairwise, as numpy sums it (``segment_sums``).
    """
    k = n_clusters
    Xs, order = cells.rows, cells.order
    C, n, d = Xs.shape
    if k < 2 or (cells.distinct < k).any():
        raise ValueError("need at least n_clusters >= 2 distinct rows per cell")
    if len(rngs) != C or (inertia_traces is not None and len(inertia_traces) != C):
        raise ValueError("need one generator (and inertia trace) per cell")
    ids = np.arange(C)

    # K-Means++: each generator draws its first row, then one uniform per
    # further centroid (``random(k - 1)`` gives the k - 1 single draws)
    first, draws = [], []
    for rng in rngs:
        first.append(int(rng.integers(n)))
        draws.append(rng.random(k - 1))
    u = np.array(draws)
    centroids = np.empty((C, k, d))
    centroids[:, 0] = Xs[ids, first]
    best_d2 = np.sum((Xs - centroids[:, :1]) ** 2, axis=2)
    for c in range(1, k):
        cum = np.cumsum(best_d2 / best_d2.sum(axis=1, keepdims=True), axis=1)
        # searchsorted(side="right") in a non-decreasing row (NaNs trail)
        pick = np.count_nonzero(cum <= u[:, c - 1:c], axis=1)
        lost = (pick >= n) | (best_d2[ids, np.minimum(pick, n - 1)] == 0.0)
        pick = np.where(lost, best_d2.argmax(axis=1), pick)
        centroids[:, c] = Xs[ids, pick]
        if c + 1 < k:
            best_d2 = np.minimum(best_d2, np.sum((Xs - centroids[:, c:c + 1]) ** 2, axis=2))

    # Lloyd over the cells still iterating (``live``); a finished cell
    # keeps the centroids, sorted-row assignment, sizes and own distances
    # (each row's distance to its centroid) of its last pass
    done_centroids = np.empty((C, k, d))
    done_assign = np.empty((C, n), dtype=np.intp)
    done_sizes = np.empty((C, k), dtype=np.int64)
    done_own = np.empty((C, n))
    live = ids
    offsets = ids[:, None] * k  # each live cell's first cluster bin
    columns = np.arange(d)
    assign = None
    for it in range(max_iter + 1):
        d2 = _stacked_distances(Xs, centroids)
        new_assign = d2.argmin(axis=2)
        sizes = np.bincount((offsets + new_assign).ravel(), minlength=offsets.size * k)
        sizes = sizes.reshape(-1, k)
        if not sizes.all():
            for j in np.flatnonzero((sizes == 0).any(axis=1)):
                # ``SortedRows.kmeans``'s repair, on cell j alone
                while not sizes[j].all():
                    own = d2[j][np.arange(n), new_assign[j]]
                    centroids[j, int(sizes[j].argmin())] = Xs[j, int(own.argmax())]
                    d2[j] = _squared_distances(Xs[j], centroids[j])
                    new_assign[j] = d2[j].argmin(axis=1)
                    sizes[j] = np.bincount(new_assign[j], minlength=k)
        if inertia_traces is not None and it < max_iter:
            for cell, total in zip(live, _own(d2).sum(axis=1)):
                inertia_traces[cell].append(float(total))
        if it == max_iter:
            finished = np.ones(live.size, dtype=bool)
        elif assign is None:
            finished = np.zeros(live.size, dtype=bool)
        else:
            finished = ~(assign != new_assign).any(axis=1)
        if finished.any():
            cells_done = live[finished]
            done_centroids[cells_done] = centroids[finished]
            done_assign[cells_done] = new_assign[finished]
            done_sizes[cells_done] = sizes[finished]
            done_own[cells_done] = _own(d2[finished])
            if finished.all():
                break
            keep = ~finished
            live, Xs, new_assign, sizes = live[keep], Xs[keep], new_assign[keep], sizes[keep]
            offsets = offsets[:live.size]
        assign = new_assign
        if d == 1:
            # numpy sums a single column pairwise: each cluster's members,
            # in sorted row order, are one segment of ``segment_sums``
            members = np.argsort((offsets + assign).ravel(), kind="stable")
            sums = segment_sums(Xs.reshape(-1, 1)[members], sizes.ravel())
        else:
            bins = ((offsets + assign)[:, :, None] * d + columns).ravel()
            sums = np.bincount(bins, weights=Xs.ravel(), minlength=offsets.size * d)
        centroids = sums.reshape(-1, k, d) / sizes[:, :, None]

    assignments = np.empty((C, n), dtype=np.int64)
    assignments[ids[:, None], order] = done_assign
    return ClusteringBatch(done_centroids, assignments, done_sizes,
                           _stacked_representatives(done_own, done_assign, order, k))


def kmeans_one(cells: SortedStack) -> ClusteringBatch:
    """``SortedRows.kmeans(1, ...)`` of every cell at once, bit for bit
    (the clustering of any K of a cell with one distinct row): the closed
    form, one centroid at the mean of the sorted rows, and each cell's row
    nearest it (lowest input row on ties)."""
    Xs, order = cells.rows, cells.order
    C, n, _ = Xs.shape
    centroids = Xs.mean(axis=1)[:, None, :]
    assign = np.zeros((C, n), dtype=np.int64)
    own = _stacked_distances(Xs, centroids)[:, :, 0]
    return ClusteringBatch(centroids, assign, np.full((C, 1), n, dtype=np.int64),
                           _stacked_representatives(own, assign, order, 1))


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


def sorted_stack(X: np.ndarray) -> SortedStack:
    """``sorted_rows`` of every matrix of X (C, n, d), bit for bit: one
    ``lexsort`` along the rows of every matrix at once ranks each matrix's
    rows as its own ``lexsort`` does."""
    order = np.lexsort(X.transpose(2, 0, 1)[::-1], axis=-1)
    rows = np.take_along_axis(X, order[:, :, None], axis=1)
    distinct = 1 + np.count_nonzero(np.any(rows[:, 1:] != rows[:, :-1], axis=2), axis=1)
    return SortedStack(rows, order, distinct)


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
