"""Dataset loading and synthetic generation."""

from __future__ import annotations

import math
from array import array

import numpy as np

from .cscmat import CscMatrix
from .errors import ConfigError
from .objectives import Dataset, is_real, sigmoid
from .solvers import is_int


# the largest d whose d-vector of doubles numpy can size (2^60 - 1)
_MAX_D = np.iinfo(np.intp).max // 8


def load_libsvm(path, n_features=None, normalize=False) -> Dataset:
    """Parse the plain-text sparse format "label idx:val idx:val ...".

    Indices are 1-based in the file and converted to 0-based; they must
    be strictly increasing within a line and at most ``_MAX_D``, and
    every label and value must be finite.  The dimension is inferred
    from the largest index unless ``n_features`` pins it, also at most
    ``_MAX_D``.  With ``normalize`` every point is scaled to unit
    euclidean norm.
    """
    labels, indptr = [], [0]
    indices, data = array("q"), array("d")  # every point's, in file order
    max_idx = -1
    with open(path, "rb") as fh:  # lines end as in text mode: \n, \r\n or \r
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: malformed label {parts[0]!r}") from None
            if not math.isfinite(label):
                raise ConfigError(
                    f"{path}:{lineno}: non-finite label {parts[0]!r}")
            prev = -1
            for tok in parts[1:]:
                try:
                    raw_idx, raw_val = tok.split(":", 1)
                    idx = int(raw_idx) - 1
                    val = float(raw_val)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: malformed feature {tok!r}") from None
                if not math.isfinite(val):
                    raise ConfigError(
                        f"{path}:{lineno}: non-finite feature {tok!r}")
                if idx < 0:
                    raise ConfigError(
                        f"{path}:{lineno}: feature index must be >= 1")
                if idx <= prev:
                    raise ConfigError(
                        f"{path}:{lineno}: feature indices must be "
                        "strictly increasing")
                if idx >= _MAX_D:  # d = idx + 1 must not pass _MAX_D
                    raise ConfigError(
                        f"{path}:{lineno}: feature index too large {tok!r}")
                prev = idx
                indices.append(idx)
                data.append(val)
            max_idx = max(max_idx, prev)
            labels.append(label)
            indptr.append(len(data))
    if not labels:
        raise ConfigError(f"{path}: no data points")
    d = max(max_idx + 1, 1)
    if n_features is not None:
        if n_features < d:
            raise ConfigError(
                f"n_features={n_features} below largest index {d}")
        if n_features > _MAX_D:
            raise ConfigError(
                f"n_features={n_features} above the largest {_MAX_D}")
        d = n_features
    mat = CscMatrix(data, indices, indptr, (d, len(labels)))
    if normalize:
        _unit_columns(mat)
    return Dataset(mat, np.array(labels))


def _unit_columns(mat):
    """Scale every nonzero column of ``mat`` to unit euclidean norm, in
    place, over the nonzeros only: each squared norm is summed one term
    at a time in storage order, and each value is multiplied by
    1/norm."""
    norms = np.sqrt(mat.col_sqnorms())
    scale = 1.0 / np.where(norms > 0, norms, 1.0)
    mat.data *= np.repeat(scale, np.diff(mat.indptr))


_SYNTH_KINDS = ("ridge", "lasso_ls", "logistic")

# entries per chunk of points of the generator (256 kB of doubles): below
# density 1 the points drawn into one buffer at a time, at density 1 the
# rows normalised at a time
_CHUNK = 1 << 15


def _draw_points(rng, counts, d):
    """The (d, n) CSC matrix of the sparse draw: point i takes
    ``counts[i]`` distinct positions, then one normal for each, scaled
    by 1/sqrt(d).  The points of one chunk are placed in a zeroed
    buffer, which ``CscMatrix.from_dense`` converts before the entries
    it found are zeroed for the next chunk, in O(nnz); each chunk's
    columns are copied in after the last."""
    n = counts.shape[0]
    rows = max(1, _CHUNK // d)
    buf = np.zeros((min(rows, n), d))
    total = int(counts.sum())  # nnz, unless from_dense drops a zero normal
    data, indices = np.empty(total), np.empty(total, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, n, rows):
        block = buf[:n - lo]
        for i, k in enumerate(counts[lo:lo + rows].tolist()):
            cols = rng.choice(d, k, replace=False)
            block[i, cols] = rng.standard_normal(k) / math.sqrt(d)
        part = CscMatrix.from_dense(block.T)
        start = indptr[lo]
        data[start:start + part.nnz] = part.data
        indices[start:start + part.nnz] = part.indices
        indptr[lo + 1:lo + 1 + len(block)] = part.indptr[1:] + start
        block[part.col_of, part.indices] = 0.0
    nnz = indptr[-1]
    return CscMatrix(data[:nnz], indices[:nnz], indptr, (d, n))


def generate_synthetic(kind, n, d, density=1.0, noise=0.1, seed=0,
                       normalize=False) -> Dataset:
    """Planted-model data, reproducible from the seed.

    Features are gaussian with the requested nonzero density (at least
    one nonzero per point); labels come from a planted weight vector,
    with additive gaussian noise for the least-squares kinds and
    Bernoulli draws through a logistic link otherwise.

    The stream is read in this order.  At density 1, one (n, d) array of
    normals.  Below it, each point's nonzero count, Binomial(d, density)
    raised to at least 1, for all n points at once; then, point by
    point, that many distinct positions and one normal for each.  So no
    draw below density 1 has n*d entries.  Every feature is scaled by
    1/sqrt(d).  Then the planted weights (d normals), and last the n
    label draws.

    Below density 1 the points are drawn into one zeroed buffer of
    ``_CHUNK`` entries at a time (one point, when a point is larger),
    and each chunk is converted by ``CscMatrix.from_dense`` before the
    entries written are zeroed for the next, so no (n, d) array is made:
    set-up holds O(nnz + n + d) memory.  The row norms (``normalize``) and the
    label margins are then taken over the nonzeros, each point's terms
    summed one at a time in ascending coordinate order, as
    ``load_libsvm`` normalises.  At density 1 the row norms are taken on
    the array in row chunks, so no temporary there is full size.
    """
    if kind not in _SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    for name, value in (("n", n), ("d", d), ("seed", seed)):
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 1 or d < 1:
        raise ConfigError("need n >= 1 and d >= 1")
    if not (is_real(density) and 0.0 < density <= 1.0):
        raise ConfigError("density must lie in (0, 1]")
    try:
        finite = is_real(noise) and math.isfinite(noise)
    except OverflowError:  # an int past the largest double
        finite = False
    if not finite:
        raise ConfigError(f"noise must be a finite number, got {noise!r}")
    if seed < 0:
        raise ConfigError(f"'seed' must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    if density < 1.0:
        counts = np.maximum(rng.binomial(d, density, size=n), 1)
        mat = _draw_points(rng, counts, d)
        if normalize:
            _unit_columns(mat)
        margins = mat.rmatvec(rng.standard_normal(d))
    else:
        pts = rng.standard_normal((n, d))
        pts /= math.sqrt(d)
        if normalize:
            rows = max(1, _CHUNK // d)
            for lo in range(0, n, rows):
                block = pts[lo:lo + rows]
                norms = np.linalg.norm(block, axis=1)
                block /= np.where(norms > 0, norms, 1.0)[:, None]
        margins = pts @ rng.standard_normal(d)
        mat = CscMatrix.from_dense(pts.T)
    if kind == "logistic":
        labels = np.where(rng.random(n) < sigmoid(margins), 1.0, -1.0)
    else:  # an overflow to inf is refused by Dataset, without a warning
        with np.errstate(over="ignore"):
            labels = margins + noise * rng.standard_normal(n)
    return Dataset(mat, labels)
