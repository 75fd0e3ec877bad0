"""Compressed sparse column storage with one column per data point."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class CscMatrix:
    """A (d, n) sparse matrix in CSC layout.

    Columns hold data points, rows are coordinates.  ``data`` holds the
    nonzero values, ``indices`` the row index of each value, and
    ``indptr`` the start offset of each column, so column j lives in
    ``data[indptr[j]:indptr[j+1]]``.  Row indices must be strictly
    increasing within every column.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()

    def _validate(self):
        d, n = self.shape
        if d < 1 or n < 1:
            raise ConfigError(f"matrix shape {self.shape} must be at least 1x1")
        if self.indptr.shape[0] != n + 1:
            raise ConfigError("indptr length must be n+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise ConfigError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ConfigError("indptr must be non-decreasing")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ConfigError("indices and data length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= d:
                raise ConfigError("row index out of range")
            # strictly increasing within each column
            col_of = np.repeat(np.arange(n), np.diff(self.indptr))
            same = col_of[1:] == col_of[:-1]
            if np.any(np.diff(self.indices)[same] <= 0):
                raise ConfigError("row indices must be strictly increasing per column")

    @classmethod
    def from_dense(cls, dense) -> "CscMatrix":
        """Build from a dense (d, n) array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ConfigError("dense input must be 2-D")
        d, n = dense.shape
        # a boolean mask selects in row-major order of dense.T: column by
        # column, rows ascending within each column
        mask = dense.T != 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
        rows = np.broadcast_to(np.arange(d), (n, d))[mask]
        return cls(dense.T[mask], rows, indptr, (d, n))

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def column(self, j):
        """Return (row_indices, values) views of column j."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self, j) -> int:
        return int(self.indptr[j + 1] - self.indptr[j])

    def col_sqnorms(self) -> np.ndarray:
        """Squared euclidean norm of every column."""
        n = self.ncols
        col_of = np.repeat(np.arange(n), np.diff(self.indptr))
        return np.bincount(col_of, weights=self.data**2, minlength=n)

    def to_dense(self) -> np.ndarray:
        """Dense (d, n) array: the transpose of a C-contiguous (n, d)
        fill, so a point-major copy costs no second array."""
        out = np.zeros(self.shape[::-1])
        col_of = np.repeat(np.arange(self.ncols), np.diff(self.indptr))
        out[col_of, self.indices] = self.data
        return out.T
