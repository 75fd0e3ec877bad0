import math
import tracemalloc

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    CscMatrix,
    FiniteSumObjective,
    Regularizer,
    make_loss,
    prox_gradient_optimum,
)
from incgrad import cscmat, datasets
from incgrad.datasets import generate_synthetic, load_libsvm
from incgrad.objectives import Dataset, sigmoid
from helpers import save_libsvm


# ---------------------------------------------------------------------------
# libsvm parsing

def test_parse_basic_line(tmp_path):
    p = tmp_path / "toy.svm"
    p.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n")
    ds = load_libsvm(p)
    assert ds.n == 2 and ds.d == 3
    assert ds.labels.tolist() == [1.0, -1.0]
    idx, vals = ds.point(0)
    assert idx.tolist() == [0, 2]
    assert vals.tolist() == [0.5, 2.0]
    idx, vals = ds.point(1)
    assert idx.tolist() == [1]
    assert vals.tolist() == [1.5]


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.svm"
    p.write_text("")
    with pytest.raises(ConfigError, match="no data points"):
        load_libsvm(p)


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "bad.svm"
    p.write_text("+1 1:0.5\n-1 2:oops\n")
    with pytest.raises(ConfigError, match=":2"):
        load_libsvm(p)
    p.write_text("abc 1:0.5\n")
    with pytest.raises(ConfigError, match=":1"):
        load_libsvm(p)


def test_non_increasing_indices_rejected(tmp_path):
    p = tmp_path / "dup.svm"
    p.write_text("+1 2:1.0 2:2.0\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_libsvm(p)
    p.write_text("+1 3:1.0 2:2.0\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_libsvm(p)


def test_round_trip_is_exact(tmp_path):
    ds = generate_synthetic("ridge", n=17, d=9, density=0.4, noise=0.3, seed=0)
    p = tmp_path / "rt.svm"
    save_libsvm(p, ds)
    back = load_libsvm(p, n_features=9)
    assert back.n == ds.n and back.d == ds.d
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.features.data, ds.features.data)
    assert np.array_equal(back.features.indices, ds.features.indices)
    assert np.array_equal(back.features.indptr, ds.features.indptr)


def test_normalize_flag(tmp_path):
    p = tmp_path / "norm.svm"
    p.write_text("+1 1:3.0 2:4.0\n-1 1:2.0\n")
    ds = load_libsvm(p, normalize=True)
    assert np.allclose(ds.sqnorms(), 1.0)


# ---------------------------------------------------------------------------
# synthetic data

def test_synthetic_deterministic():
    a = generate_synthetic("logistic", n=20, d=6, density=0.5, noise=0.0, seed=9)
    b = generate_synthetic("logistic", n=20, d=6, density=0.5, noise=0.0, seed=9)
    assert np.array_equal(a.dense_points(), b.dense_points())
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_full_density_is_dense():
    ds = generate_synthetic("ridge", n=10, d=5, density=1.0, noise=0.1, seed=1)
    assert np.all(ds.dense_points() != 0.0)


def test_synthetic_no_empty_points():
    ds = generate_synthetic("ridge", n=120, d=30, density=0.05, noise=0.1, seed=2)
    assert (np.abs(ds.dense_points()) > 0).any(axis=1).all()


def test_synthetic_logistic_labels():
    ds = generate_synthetic("logistic", n=50, d=4, seed=3)
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic("nope", 10, 5)
    with pytest.raises(ConfigError):
        generate_synthetic("ridge", 10, 5, density=0.0)
    with pytest.raises(ConfigError):
        generate_synthetic("ridge", 0, 5)


@pytest.mark.parametrize("kwargs,match", [
    ({"density": "0.5"}, "density must lie in"),
    ({"density": True}, "density must lie in"),
    ({"noise": "0.1"}, "noise must be a finite number, got '0.1'"),
    ({"noise": np.nan}, "noise must be a finite number, got nan"),
    ({"noise": -np.inf}, "noise must be a finite number, got -inf"),
    ({"noise": 10 ** 400}, "noise must be a finite number, got 1000")])
def test_synthetic_density_and_noise_are_checked(kwargs, match):
    # a string ended in a raw TypeError, True ran as density 1, a
    # non-finite noise gave non-finite ridge labels, and an int past the
    # largest double ended in a raw OverflowError
    with pytest.raises(ConfigError, match=match):
        generate_synthetic("ridge", 10, 5, **kwargs)


@pytest.mark.filterwarnings("error")
def test_synthetic_labels_past_the_largest_double_are_one_config_error():
    # a finite noise of 1e308 overflowed the labels to inf with a numpy
    # RuntimeWarning, and the data was accepted
    with pytest.raises(ConfigError, match="must be finite"):
        generate_synthetic("ridge", 20, 5, noise=1e308)


@pytest.mark.parametrize("name,value", [
    ("n", 2.5), ("n", True), ("d", 3.0), ("d", True), ("seed", 1.5),
    ("seed", True)])
def test_synthetic_sizes_and_seed_are_integers(name, value):
    # 2.5 and 1.5 ended in raw TypeErrors, and True ran as 1
    sizes = {"n": 10, "d": 5, "seed": 0, name: value}
    with pytest.raises(ConfigError,
                       match=f"{name} must be an integer, got {value!r}"):
        generate_synthetic("ridge", **sizes)


def _generate_synthetic_dense(kind, n, d, density=1.0, noise=0.1, seed=0,
                              normalize=False):
    """Plain reference for generate_synthetic: the same draws, with the
    normals at density 1 as one (n, d) array, normalised out of place.
    Below density 1 each point's entries are kept in a list, in
    ascending coordinate order; its squared norm and its margin are
    summed one term at a time in that order, and a normalised value is
    the value times 1/norm."""
    rng = np.random.default_rng(seed)
    if density < 1.0:
        counts = rng.binomial(d, density, size=n)
        points = []
        for i in range(n):
            k = max(int(counts[i]), 1)
            cols = rng.choice(d, k, replace=False)
            vals = rng.standard_normal(k)
            points.append(sorted((j, v / math.sqrt(d))
                                 for j, v in zip(cols.tolist(), vals.tolist())))
        if normalize:
            for i, point in enumerate(points):
                sq = 0.0
                for _, v in point:
                    sq += v * v
                scale = 1.0 / math.sqrt(sq)
                points[i] = [(j, v * scale) for j, v in point]
        w = rng.standard_normal(d).tolist()
        margins = np.zeros(n)
        for i, point in enumerate(points):
            for j, v in point:
                margins[i] += v * w[j]
        features = CscMatrix([v for point in points for _, v in point],
                             [j for point in points for j, _ in point],
                             np.cumsum([0] + [len(p) for p in points]), (d, n))
    else:
        pts = rng.standard_normal((n, d)) / math.sqrt(d)
        if normalize:
            norms = np.linalg.norm(pts, axis=1)
            pts = pts / np.where(norms > 0, norms, 1.0)[:, None]
        margins = pts @ rng.standard_normal(d)
        features = CscMatrix.from_dense(pts.T)
    if kind == "logistic":
        labels = np.where(rng.random(n) < sigmoid(margins), 1.0, -1.0)
    else:
        labels = margins + noise * rng.standard_normal(n)
    return Dataset(features, labels)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("kind", ["ridge", "lasso_ls", "logistic"])
@pytest.mark.parametrize("n,d,density", [
    (30, 20, 1.0), (40, 50, 0.3), (60, 3000, 1e-3),
    (50, 40, 0.005),  # most counts raised from 0 to 1
])
def test_synthetic_matches_whole_array_draws(kind, n, d, density, normalize,
                                             seed):
    got = generate_synthetic(kind, n, d, density=density, seed=seed,
                             normalize=normalize)
    ref = _generate_synthetic_dense(kind, n, d, density=density, seed=seed,
                                    normalize=normalize)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.features, name),
                              getattr(ref.features, name))
    assert np.array_equal(got.labels, ref.labels)


@pytest.mark.parametrize("n,d,density,seed", [
    (600, 10_000, 1e-3, 7), (200, 2000, 5e-3, 1), (50, 40, 0.3, 3),
    (30, 1000, 0.5, 0), (80, 40, 0.005, 2), (40, 3, 0.9, 5)])
def test_sparse_draw_keeps_its_counts_at_distinct_positions(n, d, density,
                                                            seed):
    ds = generate_synthetic("ridge", n, d, density=density, seed=seed)
    per_point = np.diff(ds.features.indptr)
    # the counts are the stream's first draw, raised to at least 1; a
    # position drawn twice in a point would leave it fewer entries
    counts = np.random.default_rng(seed).binomial(d, density, size=n)
    assert np.array_equal(per_point, np.maximum(counts, 1))
    # E max(K, 1) = d p + P(K = 0) for K ~ Binomial(d, p)
    mean = n * (d * density + (1 - density) ** d)
    sd = math.sqrt(n * d * density * (1 - density))
    assert abs(ds.features.nnz - mean) <= 4 * sd


class _RecordingRng:
    """A numpy generator that records the size of every draw."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._sizes.append(np.size(out))
            return out
        return recorded


@pytest.mark.parametrize("density", [1e-3, 0.5, 1.0])
def test_only_density_one_draws_n_times_d_entries(density, monkeypatch):
    n, d = 60, 3000
    sizes = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _RecordingRng(default_rng(seed), sizes))
    generate_synthetic("ridge", n, d, density=density, seed=4)
    assert (max(sizes) == n * d) is (density == 1.0)


def test_synthetic_and_densify_keep_one_dense_copy(monkeypatch):
    n, d = 600, 10_000
    filled = []
    to_dense = CscMatrix.to_dense

    def recording_to_dense(self):
        filled.append(to_dense(self))
        return filled[-1]

    monkeypatch.setattr(CscMatrix, "to_dense", recording_to_dense)
    generate_synthetic("ridge", 2, 3, density=0.5)  # first-call imports
    tracemalloc.start()
    try:
        ds = generate_synthetic("ridge", n, d, density=1e-3, normalize=True)
        points = ds.dense_points()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the generator holds no (n, d) array, so the dense copy is the only
    # one; about 160 kB beside it
    assert peak <= n * d * 8 + 2 ** 19
    assert points.shape == (n, d) and points.flags.c_contiguous
    assert len(filled) == 1 and np.shares_memory(points, filled[0])


@pytest.mark.parametrize("density,d", [(5e-3, 2000), (1.0, 2000), (0.3, 40)],
                         ids=["0.005", "1.0", "0.3"])
@pytest.mark.parametrize("normalize", [False, True])
def test_synthetic_bytes_do_not_depend_on_the_chunk(normalize, density, d,
                                                    monkeypatch):
    # one point per chunk, 3 points (the last chunk holds 2), 7 points,
    # and all of them in one chunk: the points drawn and converted at a
    # time below density 1, the rows normalised at a time at density 1.
    # At density 0.3 of d = 40 each point writes about 12 of the 40
    # entries of its buffer row, so an entry left unreset from the chunk
    # before shows as an extra nonzero
    n = 50
    outs = []
    for chunk in (d, 3 * d, 7 * d, n * d):
        monkeypatch.setattr(datasets, "_CHUNK", chunk)
        outs.append(generate_synthetic("ridge", n, d, density=density,
                                       normalize=normalize))
    for got in outs[1:]:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got.features, name),
                                  getattr(outs[0].features, name))
        assert np.array_equal(got.labels, outs[0].labels)


def test_synthetic_temporaries_stay_small():
    # O(nnz + n + d): the chunk buffer, and the counts, positions, values,
    # CSC arrays and norms over the nonzeros, with no (n, d) array; at
    # 10 nonzeros a point of d = 20,000 such an array would be 320 MB
    generate_synthetic("ridge", 2, 3, density=0.5)  # first-call imports
    for n, d, density in ((600, 10_000, 1e-3), (2000, 20_000, 5e-4)):
        tracemalloc.start()
        try:
            ds = generate_synthetic("ridge", n, d, density=density,
                                    normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < datasets._CHUNK * 8 + 32 * (ds.features.nnz + n + d)


@pytest.mark.parametrize("kind", ["ridge", "logistic"])
@pytest.mark.parametrize("n,d,density,seed", [
    (60, 3000, 1e-3, 7), (50, 40, 0.3, 3), (80, 40, 0.005, 2)])
def test_sparse_synthetic_normalises_as_load_libsvm(kind, n, d, density,
                                                    seed, tmp_path):
    # one rule for both: the generator's normalised features are
    # load_libsvm's normalisation of its unnormalised ones
    raw = generate_synthetic(kind, n, d, density=density, seed=seed)
    p = tmp_path / "raw.svm"
    save_libsvm(p, raw)
    want = load_libsvm(p, n_features=d, normalize=True).features
    got = generate_synthetic(kind, n, d, density=density, seed=seed,
                             normalize=True).features
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.all(np.abs(got.col_sqnorms() - 1.0) <= 1e-15)


def test_sparse_synthetic_takes_no_dense_norm(monkeypatch):
    def dense_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called on the sparse path")

    monkeypatch.setattr(np.linalg, "norm", dense_norm)
    for density in (1e-3, 0.3):
        generate_synthetic("ridge", 60, 3000, density=density, seed=1,
                           normalize=True)
    # density 1 still takes them, so the patch is live
    with pytest.raises(AssertionError, match="sparse path"):
        generate_synthetic("ridge", 6, 30, seed=1, normalize=True)


def test_planted_model_recovery():
    # noiseless overdetermined least squares with a vanishing ridge:
    # the minimiser is the planted weight vector itself
    seed = 11
    n, d = 60, 8
    ds = generate_synthetic("ridge", n=n, d=d, density=1.0, noise=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    rng.standard_normal((n, d))  # replay the generator's draws
    w = rng.standard_normal(d)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=1e-9)
    x_star, _ = prox_gradient_optimum(obj, tol=1e-13)
    assert np.abs(x_star - w).max() <= 1e-4


# ---------------------------------------------------------------------------
# CSC construction

def _from_dense_loop(dense):
    """Column-by-column reference for CscMatrix.from_dense."""
    d, n = dense.shape
    idxs = [np.nonzero(dense[:, j])[0] for j in range(n)]
    indptr = np.concatenate([[0], np.cumsum([nz.size for nz in idxs])])
    data = np.concatenate([dense[nz, j] for j, nz in enumerate(idxs)])
    return data, np.concatenate(idxs), indptr


def _check_from_dense(shape, density):
    rng = np.random.default_rng(sum(shape))
    dense = rng.standard_normal(shape) * (rng.random(shape) < density)
    dense[:, ::3] = 0.0  # empty columns, at the ends and inside
    # a C-ordered (d, n) array; the transpose of a C-ordered (n, d) one,
    # which Dataset.from_dense and the generator pass; a strided column
    # slice of a C-ordered array
    for arr in (dense, np.ascontiguousarray(dense.T).T,
                np.repeat(dense, 2, axis=1)[:, ::2]):
        m = CscMatrix.from_dense(arr)
        data, indices, indptr = _from_dense_loop(arr)
        assert m.shape == shape
        assert m.indices.dtype == np.int64 and m.indptr.dtype == np.int64
        assert np.array_equal(m.data, data)
        assert np.array_equal(m.indices, indices)
        assert np.array_equal(m.indptr, indptr)
        assert np.array_equal(m.to_dense(), dense)


@pytest.mark.parametrize("shape,density", [
    ((100, 600), 1.0), ((600, 10000), 1e-3), ((5, 8), 0.4), ((7, 3), 0.0),
    ((1, 1), 1.0), ((30, 40), 0.05), ((3000, 1000), 0.01),
    ((300_000, 4), 1e-4),
])
def test_from_dense_matches_column_loop(shape, density):
    # (600, 10000) and (3000, 1000) span several 256 kB mask chunks, the
    # last one short; a point of 300,000 coordinates is wider than
    # _MASK_BYTES, so each mask chunk holds one point
    _check_from_dense(shape, density)


@pytest.mark.parametrize("shape,density", [
    ((5, 8), 0.4), ((7, 3), 0.0), ((30, 40), 0.05), ((100, 60), 1.0),
])
def test_from_dense_small_mask_chunks(shape, density, monkeypatch):
    # 64-byte masks put every column, or a few, in a chunk of its own
    monkeypatch.setattr(cscmat, "_MASK_BYTES", 64)
    _check_from_dense(shape, density)


def test_from_dense_holds_one_index_per_nonzero_beside_its_output():
    # the flat positions become the row indices in place: beside the
    # output only the column starts subtracted from them (one int64 per
    # nonzero) and a few arrays of one entry per column are held
    d, n = 200, 600
    dense = np.random.default_rng(5).standard_normal((n, d)).T
    CscMatrix.from_dense(dense[:, :2])  # first-call imports
    tracemalloc.start()
    try:
        m = CscMatrix.from_dense(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == n * d
    out = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert peak <= out + 8 * m.nnz + 32 * (n + 1)


@pytest.mark.parametrize("shape,density", [
    ((50, 40), 0.1), ((2000, 30), 5e-3), ((300, 1), 0.05), ((1, 1), 1.0),
    ((1, 7), 0.6), ((40, 25), 0.0), ((8, 60), 0.5),
])
def test_products_over_nonzeros_match_dense(shape, density):
    rng = np.random.default_rng(sum(shape) + 1)
    dense = rng.standard_normal(shape) * (rng.random(shape) < density)
    dense[:, 1::3] = 0.0  # points with no nonzeros
    dense[1::4] = 0.0  # coordinates no point touches
    m = CscMatrix.from_dense(dense)
    assert np.array_equal(m.col_of, np.repeat(np.arange(shape[1]),
                                              np.diff(m.indptr)))
    assert m.col_of is m.col_of  # built once
    x, c = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    tol = 1e-15 * np.linalg.norm(dense)
    got_m, got_s = m.rmatvec(x), m.matvec(c)
    assert got_m.shape == (shape[1],) and got_s.shape == (shape[0],)
    assert np.all(np.abs(got_m - dense.T @ x) <= tol * np.linalg.norm(x))
    assert np.all(np.abs(got_s - dense @ c) <= tol * np.linalg.norm(c))
    assert not got_m[1::3].any() and not got_s[1::4].any()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_from_dense_rejects_empty_shape(shape):
    with pytest.raises(ConfigError, match="at least 1x1"):
        CscMatrix.from_dense(np.zeros(shape))
