"""Dataset loading and synthetic generation."""

from __future__ import annotations

import math

import numpy as np

from .cscmat import CscMatrix
from .errors import ConfigError
from .objectives import Dataset, sigmoid


def load_libsvm(path, n_features=None, normalize=False) -> Dataset:
    """Parse the plain-text sparse format "label idx:val idx:val ...".

    Indices are 1-based in the file and converted to 0-based; they must
    be strictly increasing within a line.  The dimension is inferred
    from the largest index unless ``n_features`` pins it.  With
    ``normalize`` every point is scaled to unit euclidean norm.
    """
    labels = []
    cols = []
    max_idx = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: malformed label {parts[0]!r}") from None
            idxs = []
            vals = []
            prev = -1
            for tok in parts[1:]:
                try:
                    raw_idx, raw_val = tok.split(":", 1)
                    idx = int(raw_idx) - 1
                    val = float(raw_val)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: malformed feature {tok!r}") from None
                if idx < 0:
                    raise ConfigError(
                        f"{path}:{lineno}: feature index must be >= 1")
                if idx <= prev:
                    raise ConfigError(
                        f"{path}:{lineno}: feature indices must be "
                        "strictly increasing")
                prev = idx
                idxs.append(idx)
                vals.append(val)
            max_idx = max(max_idx, prev)
            labels.append(label)
            cols.append((np.array(idxs, dtype=np.int64), np.array(vals)))
    if not labels:
        raise ConfigError(f"{path}: no data points")
    d = max(max_idx + 1, 1)
    if n_features is not None:
        if n_features < d:
            raise ConfigError(
                f"n_features={n_features} below largest index {d}")
        d = n_features
    n = len(labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for j, (idxs, vals) in enumerate(cols):
        indptr[j + 1] = indptr[j] + idxs.size
    data = np.concatenate([c[1] for c in cols]) if indptr[-1] else np.zeros(0)
    indices = np.concatenate([c[0] for c in cols]) if indptr[-1] \
        else np.zeros(0, dtype=np.int64)
    mat = CscMatrix(data, indices, indptr, (d, n))
    if normalize:
        norms = np.sqrt(mat.col_sqnorms())
        scale = 1.0 / np.where(norms > 0, norms, 1.0)
        data = mat.data * np.repeat(scale, np.diff(mat.indptr))
        mat = CscMatrix(data, mat.indices, mat.indptr, mat.shape)
    return Dataset(mat, np.array(labels))


def save_libsvm(path, dataset: Dataset):
    """Write the dataset back out; values use shortest exact decimals."""
    mat = dataset.features
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(dataset.n):
            idxs, vals = mat.column(j)
            toks = [repr(float(dataset.labels[j]))]
            toks += [f"{int(i) + 1}:{float(v)!r}" for i, v in zip(idxs, vals)]
            fh.write(" ".join(toks) + "\n")


_SYNTH_KINDS = ("ridge", "lasso_ls", "logistic")

# entries per row chunk of the generator's temporaries (1 MB of doubles)
_CHUNK = 1 << 17


def generate_synthetic(kind, n, d, density=1.0, noise=0.1, seed=0,
                       normalize=False) -> Dataset:
    """Planted-model data, reproducible from the seed.

    Features are gaussian with the requested nonzero density (at least
    one nonzero per point); labels come from a planted weight vector,
    with additive gaussian noise for the least-squares kinds and
    Bernoulli draws through a logistic link otherwise.

    The (n, d) feature array is the only full-size temporary: the
    sparsity uniforms and the row norms are taken in row chunks, which
    gives the same values as whole-array draws (each uniform consumes
    one 64-bit word of the stream).
    """
    if kind not in _SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    if n < 1 or d < 1:
        raise ConfigError("need n >= 1 and d >= 1")
    if not 0.0 < density <= 1.0:
        raise ConfigError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    pts /= math.sqrt(d)
    rows = max(1, _CHUNK // d)
    if density < 1.0:
        empty = []
        for lo in range(0, n, rows):
            block = pts[lo:lo + rows]
            drop = rng.random(block.shape) >= density
            none_kept = drop.all(axis=1)
            drop[none_kept] = False
            block[drop] = 0.0
            empty.extend((lo + np.flatnonzero(none_kept)).tolist())
        # a row left empty keeps one entry, drawn after all the uniforms
        for i in empty:
            j = int(rng.integers(0, d))
            keep = pts[i, j]
            pts[i] = 0.0
            pts[i, j] = keep
    if normalize:
        for lo in range(0, n, rows):
            block = pts[lo:lo + rows]
            norms = np.linalg.norm(block, axis=1)
            block /= np.where(norms > 0, norms, 1.0)[:, None]
    w = rng.standard_normal(d)
    margins = pts @ w
    if kind == "logistic":
        labels = np.where(rng.random(n) < sigmoid(margins), 1.0, -1.0)
    else:
        labels = margins + noise * rng.standard_normal(n)
    return Dataset.from_dense(pts, labels)
