import math
import sys
import threading

import numpy as np
import pytest

from conftest import peak_bytes
from libags.data import FeatureMatrix
from libags.errors import ValidationError
from libags import geometry
from libags.geometry import knn_density, knn_distances, nearest, pool_kernel, support_validity, unit_ball_volume


def similarity(bandwidth, u, j):
    """Gaussian similarity between two feature rows; 1 at u == j, symmetric."""
    u = np.asarray(u, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    if u.shape != j.shape:
        raise ValidationError(f"rows must share a dimension, got {u.shape} vs {j.shape}")
    diff = u - j
    return float(np.exp(-(diff * diff).sum() / (2.0 * bandwidth**2)))


def direct_knn_distances(reference, query, k, exclude_self=False):
    """Direct-formula oracle: every pair by sqrt(sum((q - r)^2)), stable sort per row."""
    out = np.empty((len(query), k))
    for start in range(0, len(query), 256):
        stop = min(start + 256, len(query))
        diff = query[start:stop, None, :] - reference[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        if exclude_self:
            dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")
        out[start:stop] = np.take_along_axis(dist, order[:, :k], axis=1)
    return out


def gram(X, u):
    """X @ X.T as the kernel pass keeping u of the pool's columns computes it.

    The products come in the pass's own row blocks (``_product_rows``; one
    block, numpy's symmetric rank-k update, when every column is kept), whose
    rounding can depend on the block height, on one BLAS thread: OpenBLAS's
    threaded products round some shapes differently.
    """
    rows = geometry._product_rows(len(X), u)
    with geometry._one_blas_thread():
        return np.vstack([X[start:start + rows] @ X.T for start in range(0, len(X), rows)])


def expansion_sq_distances(X, u):
    """Expression-order oracle for the kernel pass's squared distances: full temporaries."""
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram(X, u)
    np.maximum(d2, 0.0, out=d2)
    return d2


def expansion_similarity_matrix(bandwidth, features, columns=None):
    """Expression-order oracle for pool_kernel (every column without ``columns``): full temporaries, one exp."""
    M = features.n_rows
    columns = np.arange(M) if columns is None else np.asarray(columns, dtype=np.intp)
    S = np.exp(-expansion_sq_distances(features.values, columns.size) / (2.0 * bandwidth**2))[:, columns]
    S[columns, np.arange(columns.size)] = 1.0
    return S


def expansion_median_knn_distance(features, k, u):
    """Expression-order oracle for pool_kernel's median-knn bandwidth in the pass keeping u columns: one full partition."""
    X = features.values
    if X.shape[0] < 2:
        return 1.0
    k = min(k, X.shape[0] - 1)
    d2 = expansion_sq_distances(X, u)
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return max(float(np.median(np.sqrt(kth))), 1e-9)


def adversarial_sets(rng, d):
    """(reference, query) pairs that stress the expansion's rounding bound."""
    ref = rng.normal(size=(70, d))
    query = rng.normal(size=(40, d))
    grid_ref = rng.integers(-2, 3, size=(70, d)).astype(np.float64)
    grid_query = rng.integers(-2, 3, size=(40, d)).astype(np.float64)
    duplicated = np.vstack([ref[:35], ref[:35]])
    return [
        ("random", ref, query),
        ("offset 1e4", ref + 1e4, query + 1e4),  # cancellation widens tau
        ("duplicated rows", duplicated, np.vstack([duplicated[:20], query[:20]])),
        ("integer grid", grid_ref, grid_query),  # exact distance ties
        ("tiny scale", ref * 1e-160, query * 1e-160),  # products underflow
        ("huge scale", ref * 1e160, query * 1e160),  # squares overflow to inf
    ]


def brute_force_knn(reference, query, k, exclude_self=False):
    """Independent O(n^2) oracle: per-pair distances, sort by (distance, index)."""
    out = np.empty((len(query), k))
    for i, q in enumerate(query):
        dists = []
        for j, ref in enumerate(reference):
            if exclude_self and i == j:
                continue
            dists.append((np.sqrt(((ref - q) ** 2).sum()), j))
        dists.sort()
        out[i] = [d for d, _ in dists[:k]]
    return out


class TestKnnDistances:
    def test_self_query_distance_zero(self):
        pts = FeatureMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        dists = knn_distances(pts, pts, 1)
        np.testing.assert_allclose(dists[:, 0], 0.0, atol=0)

    def test_collinear_self_excluded(self):
        pts = FeatureMatrix(np.array([[0.0], [1.0], [3.0]]))
        dists = knn_distances(pts, pts, 2, exclude_self=True)
        np.testing.assert_allclose(dists[0], [1.0, 3.0], atol=0)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 5))
            ref = rng.normal(size=(n, d))
            query = rng.normal(size=(15, d))
            k = int(rng.integers(1, n))
            ours = knn_distances(FeatureMatrix(ref), FeatureMatrix(query), k)
            oracle = brute_force_knn(ref, query, k)
            assert np.array_equal(ours, oracle)

    def test_tie_break_by_lower_index(self):
        # two references at identical distance from the query
        ref = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]]))
        query = FeatureMatrix(np.array([[0.0, 0.0]]))
        dists = knn_distances(ref, query, 2)
        np.testing.assert_allclose(dists[0], [1.0, 1.0], atol=0)

    @pytest.mark.parametrize("d", [1, 2, 64])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_bit_identical_to_direct_formula(self, d):
        rng = np.random.default_rng(d)
        for name, ref, query in adversarial_sets(rng, d):
            reference = FeatureMatrix(ref)
            n = len(ref)
            for k in (1, 3, n):
                got = knn_distances(reference, FeatureMatrix(query), k)
                assert np.array_equal(got, direct_knn_distances(ref, query, k)), (name, k)
            for k in (1, 3, n - 1):
                got = knn_distances(reference, reference, k, exclude_self=True)
                assert np.array_equal(got, direct_knn_distances(ref, ref, k, exclude_self=True)), (name, k)

    def test_bit_identical_across_blocks(self):
        rng = np.random.default_rng(11)
        ref = np.round(rng.normal(size=(1200, 3)), 1)
        query = np.round(rng.normal(size=(1900, 3)), 1)
        # more query rows than one screening block (_BLOCK // len(ref) rows) holds
        assert len(query) > geometry._BLOCK // len(ref)
        got = knn_distances(FeatureMatrix(ref), FeatureMatrix(query), 20)
        assert np.array_equal(got, direct_knn_distances(ref, query, 20))
        pts = np.vstack([ref, query[:300]])
        assert len(pts) > geometry._BLOCK // len(pts)
        got = knn_distances(FeatureMatrix(pts), FeatureMatrix(pts), 7, exclude_self=True)
        assert np.array_equal(got, direct_knn_distances(pts, pts, 7, exclude_self=True))
        # A small reference: a full screening block refines at least k pairs
        # per row, more than one refinement chunk (_BLOCK // d pairs) holds.
        small, k = ref[:50], 20
        rows = geometry._BLOCK // len(small)
        assert len(query) > rows and rows * k > geometry._BLOCK // small.shape[1]
        got = knn_distances(FeatureMatrix(small), FeatureMatrix(query), k)
        assert np.array_equal(got, direct_knn_distances(small, query, k))

    def test_memory_is_the_outputs_and_a_few_blocks(self):
        # The screening block, its expansion scratch, its partition copy and
        # the masks are each at most _BLOCK elements, and only one block's
        # are held at a time; the outputs are the squared distances and
        # their square roots, with no index array.
        rng = np.random.default_rng(18)
        ref = FeatureMatrix(rng.normal(size=(1200, 3)))
        query = FeatureMatrix(rng.normal(size=(3000, 3)))
        got, peak = peak_bytes(lambda: knn_distances(ref, query, 10))
        assert got.shape == (3000, 10)
        assert peak < 2 * got.nbytes + 2 * geometry._BLOCK * 8

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_index_only_gives_the_same_neighbors(self):
        def direct_argmin(query, ref):
            """Direct-formula nearest row; argmin takes the first, so ties go to the lower index."""
            return ((query[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

        rng = np.random.default_rng(14)
        for name, ref, query in adversarial_sets(rng, 3)[:4]:
            assert np.array_equal(nearest(query, ref, 1, index=True), direct_argmin(query, ref)), name
            assert np.array_equal(nearest(ref, ref, 1, index=True), direct_argmin(ref, ref)), name
        # duplicated reference rows: a tie goes to the lower index
        half = rng.normal(size=(35, 3))
        ref = np.vstack([half, half])
        query = np.vstack([ref, rng.normal(size=(20, 3))])
        got = nearest(query, ref, 1, index=True)
        assert np.array_equal(got, direct_argmin(query, ref))
        assert np.all(got < 35)
        # the norms overflow in the expansion: each row screens its self entry
        # as NaN and the other as inf, neither settles the row, and the direct
        # formula names the neighbor
        ref = np.array([[1e154, 0.0], [0.0, 1e154]])
        got = nearest(ref, ref, 1, index=True)
        assert np.array_equal(got, [0, 1]) and np.array_equal(got, direct_argmin(ref, ref))
        with pytest.raises(ValidationError, match="k = 1 only"):
            nearest(ref, ref, 2, index=True)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_self_exclusion_is_one_more_neighbor(self):
        rng = np.random.default_rng(23)
        half = rng.normal(size=(12, 2))
        several_blocks = rng.normal(size=(400, 2))
        assert len(several_blocks) > 2 * (geometry._BLOCK // len(several_blocks))
        inputs = [
            ("duplicated rows", np.vstack([half, half, half[:5]])),  # ties at distance 0
            ("collinear", np.array([[0.0], [1.0], [2.0], [3.0], [5.0], [8.0]])),
            ("overflowing pair", np.array([[1e154, 0.0], [0.0, 1e154]])),
            ("several blocks", several_blocks),
        ]
        for name, pts in inputs:
            n = len(pts)
            want = brute_force_knn(pts, pts, n - 1, exclude_self=True)  # ascending: its first k columns answer k
            for k in sorted({1, min(3, n - 1), n - 1}):
                got = knn_distances(FeatureMatrix(pts), FeatureMatrix(pts), k, exclude_self=True)
                assert np.array_equal(got, want[:, :k]), (name, k)

    def test_exclude_self_requires_the_reference_rows(self):
        pts = np.random.default_rng(24).normal(size=(8, 2))
        other = FeatureMatrix(pts[::-1].copy())  # the same rows in another order
        with pytest.raises(ValidationError, match="query rows to be the reference rows"):
            knn_distances(FeatureMatrix(pts), other, 2, exclude_self=True)
        # a second matrix over the same values is the reference
        same = knn_distances(FeatureMatrix(pts), FeatureMatrix(pts.copy()), 2, exclude_self=True)
        assert np.array_equal(same, brute_force_knn(pts, pts, 2, exclude_self=True))

    def test_k_too_large(self):
        pts = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            knn_distances(pts, pts, 4)


class TestKnnDensity:
    def test_two_point_closed_form(self):
        # n=2 points 2 apart in 1-D, query at one of them, self excluded:
        # density = 1 / (2 * V_1 * R) = 1 / (2 * 2 * 2)
        pts = FeatureMatrix(np.array([[0.0], [2.0]]))
        density = knn_density(knn_distances(pts, pts, 1, exclude_self=True), 2, 1)
        np.testing.assert_allclose(density, 0.125, atol=1e-12)

    def test_scaling_law(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3):
            ref = rng.normal(size=(40, d))
            query = rng.normal(size=(10, d))
            base = knn_density(knn_distances(FeatureMatrix(ref), FeatureMatrix(query), 5), 40, d)
            scaled = knn_density(knn_distances(FeatureMatrix(2.0 * ref), FeatureMatrix(2.0 * query), 5), 40, d)
            np.testing.assert_allclose(scaled, base * 2.0**-d, rtol=1e-9)

    def test_duplicate_cloud_stays_finite(self):
        pts = FeatureMatrix(np.zeros((5, 2)))
        density = knn_density(knn_distances(pts, pts, 1, exclude_self=True), 5, 2)
        assert np.all(np.isfinite(density))
        assert np.all(density > 0)

    def test_monte_carlo_standard_gaussian(self):
        rng = np.random.default_rng(42)
        samples = rng.normal(size=(5000, 2))
        probes = np.array([[r * math.cos(t), r * math.sin(t)] for r in (0.0, 0.5, 1.0, 1.5, 2.0) for t in (0.0, 1.6, 3.1, 4.7)])
        estimate = knn_density(knn_distances(FeatureMatrix(samples), FeatureMatrix(probes), 50), 5000, 2)
        truth = np.exp(-(probes**2).sum(axis=1) / 2.0) / (2.0 * math.pi)
        assert np.abs(estimate - truth).mean() < 0.05

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    @pytest.mark.parametrize("dim", [342, 768, 1241])
    def test_unit_ball_volume_out_of_float_range_names_the_dimension(self, dim):
        # math.gamma overflows from 342 on, math.pi ** (dim / 2) from 1241 on
        with pytest.raises(ValidationError, match=f"{dim} feature columns"):
            unit_ball_volume(dim)
        assert unit_ball_volume(341) > 0.0


class TestSupportValidity:
    def _calibration(self, pts, k):
        return knn_distances(pts, pts, k, exclude_self=True)[:, k - 1]

    def test_coincident_candidate_full_support(self):
        rng = np.random.default_rng(2)
        pts = FeatureMatrix(rng.normal(size=(60, 2)))
        calib = self._calibration(pts, 5)
        # candidate sits exactly on the most tightly packed real point, so
        # its k-th real-neighbor distance is below the calibration median
        center = pts.values[int(np.argmin(calib))]
        b = support_validity(knn_distances(pts, FeatureMatrix(center[None, :]), 5), calib)
        assert b[0] == 1.0

    def test_far_candidate_goes_to_zero(self):
        rng = np.random.default_rng(3)
        pts = FeatureMatrix(rng.normal(size=(50, 2)))
        calib = self._calibration(pts, 5)
        b = support_validity(knn_distances(pts, FeatureMatrix(np.array([[1e6, 1e6]])), 5), calib)
        assert b[0] == 0.0

    def test_identical_reals_floor_gives_zero_not_nan(self):
        pts = FeatureMatrix(np.zeros((6, 2)))
        calib = self._calibration(pts, 2)
        b = support_validity(knn_distances(pts, FeatureMatrix(np.array([[1.0, 0.0]])), 2), calib)
        assert np.isfinite(b[0]) and b[0] == 0.0

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(4)
        pts = FeatureMatrix(rng.normal(size=(80, 2)))
        calib = self._calibration(pts, 5)
        line = FeatureMatrix(np.column_stack([np.linspace(0, 20, 30), np.zeros(30)]))
        dists = knn_distances(pts, line, 5)
        b = support_validity(dists, calib)
        d_k = dists[:, 4]
        order = np.argsort(d_k)
        assert np.all(np.diff(b[order]) <= 1e-15)
        assert np.all((b >= 0) & (b <= 1))

    def test_empty_calibration_rejected(self):
        pts = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            support_validity(knn_distances(pts, pts, 1), [])


BANDWIDTH_ERROR = r"kernel bandwidth must be positive with 2\*bandwidth\*\*2 a finite positive float"


class TestSimilarity:
    def test_identical_rows(self):
        assert similarity(0.5, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_known_value(self):
        sigma = 0.7
        u = np.zeros(3)
        j = np.array([sigma * math.sqrt(2.0), 0.0, 0.0])
        assert similarity(sigma, u, j) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, j = rng.normal(size=(2, 4))
            assert similarity(1.3, u, j) == similarity(1.3, j, u)

    def test_matrix_matches_scalar_kernel(self):
        rng = np.random.default_rng(9)
        feats = FeatureMatrix(rng.normal(size=(25, 3)))
        S = pool_kernel(feats, np.arange(25), 0.9)
        want = np.array([[similarity(0.9, u, j) for j in feats.values] for u in feats.values])
        np.testing.assert_allclose(S, want, rtol=0, atol=1e-12)

    def test_matrix_bit_identical_to_expression_order(self):
        rng = np.random.default_rng(10)
        for M, d in ((1, 2), (7, 1), (1100, 4), (300, 64)):
            feats = FeatureMatrix(rng.normal(size=(M, d)) + (1e4 if d == 4 else 0.0))
            bandwidth = float(rng.uniform(0.3, 2.0))
            want = expansion_similarity_matrix(bandwidth, feats)
            S = pool_kernel(feats, np.arange(M), bandwidth)
            assert np.array_equal(S, want)
            assert np.array_equal(S, S.T)

    def test_valued_columns_equal_the_full_matrix_columns_in_the_distance_buffer(self):
        rng = np.random.default_rng(11)
        for M, d, fraction in ((1100, 4, 0.55), (1100, 2, 0.01), (300, 64, 0.5), (300, 64, 1.0), (7, 1, 0.3), (5, 2, 0.0), (1, 2, 1.0)):
            feats = FeatureMatrix(rng.normal(size=(M, d)))
            bandwidth = float(rng.uniform(0.3, 2.0))
            full = pool_kernel(feats, np.arange(M), bandwidth)
            columns = np.flatnonzero(rng.random(M) < fraction)
            # the 1100-row pools stream their columns through several product
            # blocks; fraction 1 is the whole product, written into the result
            if M == 1100:
                assert geometry._product_rows(M, columns.size) < M
            if fraction == 1.0:
                assert geometry._product_rows(M, columns.size) == M
            S = pool_kernel(feats, columns, bandwidth)
            assert S.shape == (M, columns.size)
            # The row-block products may round apart from the symmetric update
            # in the last bits, so the full matrix's columns agree to rounding
            # and the oracle built from the same blocks agrees bit for bit.
            assert np.array_equal(S, expansion_similarity_matrix(bandwidth, feats, columns))
            np.testing.assert_allclose(S, full[:, columns], rtol=0, atol=1e-12)
            if columns.size == M:
                assert np.array_equal(S, full)
            # The similarities overwrite the distances in the pass's own (M, u)
            # buffer; no larger buffer hides behind the result.
            assert S.base is None

    @pytest.mark.parametrize("columns", [[2, 1], [1, 1], [-1, 2], [0, 5], [[0, 1]]])
    def test_columns_must_be_increasing_indices_in_range(self, columns):
        feats = FeatureMatrix(np.random.default_rng(12).normal(size=(5, 2)))
        with pytest.raises(ValidationError, match="strictly increasing"):
            pool_kernel(feats, columns, 1.0)

    def test_matrix_diagonal_and_range(self):
        rng = np.random.default_rng(6)
        feats = FeatureMatrix(rng.normal(size=(30, 3)))
        S = pool_kernel(feats, np.arange(30), 0.8)
        assert np.array_equal(np.diag(S), np.ones(30))
        assert np.array_equal(S, S.T)
        assert np.all((S >= 0) & (S <= 1))

    @pytest.mark.parametrize("columns", [None, [0, 2, 3]])
    def test_subnormal_scale_gives_zero_off_diagonal_without_a_warning(self, columns):
        # 2 * 1e-160**2 is subnormal, so distance / scale overflows to inf;
        # under filterwarnings = error a leaked RuntimeWarning fails this.
        feats = FeatureMatrix(np.random.default_rng(13).normal(size=(6, 2)))
        keep = np.arange(6) if columns is None else np.asarray(columns)
        S = pool_kernel(feats, keep, 1e-160)
        assert np.array_equal(S, np.eye(6)[:, keep])

    def test_bandwidth_must_be_positive(self):
        feats = FeatureMatrix(np.ones((3, 2)))
        for bandwidth in (0.0, -1.0):
            with pytest.raises(ValidationError, match=BANDWIDTH_ERROR):
                pool_kernel(feats, [0, 2], bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e200, np.float64(1e200), 1e-300, np.float64(1e-300), math.nan, math.inf])
    def test_bandwidth_whose_scale_leaves_the_float_range_rejected(self, bandwidth):
        # 2 * bandwidth**2 overflows (1e200) or underflows to 0 (1e-300)
        feats = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ValidationError, match=BANDWIDTH_ERROR):
            pool_kernel(feats, np.arange(3), bandwidth)


class TestPoolKernel:
    @pytest.mark.parametrize("M", [1, 2, 7, 1100])
    @pytest.mark.parametrize("d", [1, 2, 4, 64])
    def test_bit_identical_to_its_oracle(self, M, d):
        rng = np.random.default_rng(100 * M + d)
        feats = FeatureMatrix(rng.normal(size=(M, d)) + (1e4 if d == 4 else 0.0))
        some = np.flatnonzero(rng.random(M) < 0.4)
        for columns in (np.array([], dtype=np.intp), rng.integers(0, M, 1), some, np.arange(M)):
            u = columns.size
            if M == 1100 and 0 < u < M:  # several product blocks, the last one short
                rows = geometry._product_rows(M, u)
                assert rows < M and (u == 1 or M % rows)
            for bandwidth in (0.7, None):
                got = pool_kernel(feats, columns, bandwidth, k=5)
                used = expansion_median_knn_distance(feats, 5, u) if bandwidth is None else bandwidth
                assert np.array_equal(got, expansion_similarity_matrix(used, feats, columns)), (u, bandwidth)

    @pytest.mark.parametrize("k", [0, -3])
    def test_neighbor_count_below_one_rejected(self, k):
        # k = 0 read the largest distance (inf with the diagonal excluded)
        feats = FeatureMatrix(np.random.default_rng(17).normal(size=(5, 2)))
        with pytest.raises(ValidationError, match="k must be at least 1"):
            pool_kernel(feats, [0, 1], None, k)
        assert pool_kernel(feats, [0, 1], 0.5, k).shape == (5, 2)  # a float bandwidth reads no k

    def test_no_columns_run_no_pool_product(self, monkeypatch):
        feats = FeatureMatrix(np.random.default_rng(16).normal(size=(30, 2)))
        calls = []
        monkeypatch.setattr(geometry, "_pool_distances", lambda *args: calls.append(args))
        for bandwidth in (0.5, None):
            assert pool_kernel(feats, [], bandwidth).shape == (30, 0)
        assert calls == []


class TestBandwidthHeuristics:
    def test_median_knn_smaller_than_pairwise_on_clustered_data(self):
        rng = np.random.default_rng(7)
        blobs = np.vstack([rng.normal(0, 0.05, size=(50, 2)), rng.normal(10, 0.05, size=(50, 2))])
        feats = FeatureMatrix(blobs)
        separation = math.hypot(10.0, 10.0)  # between the blob centres (0, 0) and (10, 10)
        bandwidth = expansion_median_knn_distance(feats, 5, 100)
        assert bandwidth < 0.1 * separation
        assert np.array_equal(pool_kernel(feats, np.arange(100), None, 5), expansion_similarity_matrix(bandwidth, feats))

    def test_shared_matrix_gives_the_same_bandwidths(self):
        # The kernel pass reads its median-knn bandwidth off the distances it
        # streams for the similarities: the bandwidth of the same products.
        rng = np.random.default_rng(12)
        for M in (2, 3, 40, 1500):
            feats = FeatureMatrix(rng.normal(size=(M, 3)))
            some = np.flatnonzero(rng.random(M) < 0.3)
            for k in (1, 5, M):
                for columns in (some, np.arange(M)):
                    bandwidth = expansion_median_knn_distance(feats, k, columns.size)
                    want = expansion_similarity_matrix(bandwidth, feats, columns)
                    assert np.array_equal(pool_kernel(feats, columns, None, k), want)

    def test_kernel_stage_holds_one_pool_matrix(self):
        # The kernel stage as run_selection runs it with every candidate
        # valued: one pool matrix, read by the bandwidth and then turned into
        # the similarity matrix in place.
        M = 1500
        feats = FeatureMatrix(np.random.default_rng(14).normal(size=(M, 8)))
        S, peak = peak_bytes(lambda: pool_kernel(feats, np.arange(M), None, 10))
        assert S.shape == (M, M)
        assert peak < 1.1 * M * M * 8  # a separate similarity matrix needed about 2x

    def test_kernel_stage_with_few_valued_columns_holds_no_pool_matrix(self):
        # u = M / 20 columns: the (M, u) result, one product block and the
        # scratch of its expansion, each at most _BLOCK elements.
        M, u = 3000, 150
        feats = FeatureMatrix(np.random.default_rng(15).normal(size=(M, 8)))
        S, peak = peak_bytes(lambda: pool_kernel(feats, np.arange(0, M, M // u), None, 10))
        assert S.shape == (M, u)
        assert peak < M * u * 8 + 3 * geometry._BLOCK * 8

    def test_products_restore_the_blas_thread_count(self):
        if geometry._BLAS_THREADS is None:
            pytest.skip("numpy's OpenBLAS thread setter not found")
        get, _ = geometry._BLAS_THREADS
        before = get()
        with geometry._one_blas_thread():
            with geometry._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == before
        pool_kernel(FeatureMatrix(np.ones((3, 2))), np.arange(3), 1.0)
        pool_kernel(FeatureMatrix(np.ones((3, 2))), [1], None, 1)
        assert get() == before

    def test_concurrent_products_restore_the_blas_thread_count(self):
        if geometry._BLAS_THREADS is None:
            pytest.skip("numpy's OpenBLAS thread setter not found")
        get, _ = geometry._BLAS_THREADS
        before = get()
        feats = FeatureMatrix(np.random.default_rng(0).normal(size=(40, 3)))
        errors = []

        def work():
            try:
                for _ in range(200):
                    with geometry._one_blas_thread():
                        assert get() == 1
                        pool_kernel(feats, [3, 7, 20], None, 5)
            except BaseException as exc:
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert get() == before

    def test_pool_distances_exactly_symmetric_and_clamped(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 5)) + 1e3
        d2, kth = geometry._pool_distances(X, np.arange(50), 0)
        assert kth is None
        assert np.array_equal(d2, d2.T)
        assert np.all(d2 >= 0)
        direct = geometry.direct_sq_distances(X[:, None, :], X[None, :, :])
        np.testing.assert_allclose(direct[:7], d2[:7], rtol=0, atol=1e-6)
        # Some columns only: the same distances to rounding, still clamped.
        columns = np.array([0, 9, 31])
        some, kth = geometry._pool_distances(X, columns, 3)
        assert np.all(some >= 0)
        np.testing.assert_allclose(direct[:, columns], some, rtol=0, atol=1e-6)
        np.fill_diagonal(direct, np.inf)
        np.testing.assert_allclose(np.sort(direct, axis=1)[:, 2], kth, rtol=0, atol=1e-6)
