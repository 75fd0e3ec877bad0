"""Compressed sparse column storage with one column per data point."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MASK_BYTES = 1 << 18  # from_dense builds its mask in column chunks this size


class CscMatrix:
    """A (d, n) sparse matrix in CSC layout.

    Columns hold data points, rows are coordinates.  ``data`` holds the
    nonzero values, ``indices`` the row index of each value, and
    ``indptr`` the start offset of each column, so column j lives in
    ``data[indptr[j]:indptr[j+1]]``.  Row indices must be strictly
    increasing within every column.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_col_of")

    def __init__(self, data, indices, indptr, shape):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._col_of = None
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
            col_of = self._column_ids()
            same = col_of[1:] == col_of[:-1]
            if np.any(np.diff(self.indices)[same] <= 0):
                raise ConfigError("row indices must be strictly increasing per column")

    @classmethod
    def from_dense(cls, dense) -> "CscMatrix":
        """Build from a dense (d, n) array, dropping exact zeros; the
        arrays built here skip the constructor's checks of outside input.
        Each chunk of about 256 kB of mask is scanned once, the rest is
        O(nnz); a chunk not laid out as rows of a C array is copied."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ConfigError("dense input must be 2-D")
        d, n = dense.shape
        if d < 1 or n < 1:
            raise ConfigError(f"matrix shape {dense.shape} must be at least 1x1")
        # flat positions run column by column, rows ascending within each
        # column; a row is its position less its column's start (one
        # subtraction: an int64 % or // costs about 13 times as much)
        step = max(1, _MASK_BYTES // d)
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows, vals = [], []
        for lo in range(0, n, step):
            block = dense[:, lo:lo + step].T
            pos = np.flatnonzero(block != 0)
            bounds = np.arange(0, block.size + 1, d)  # column starts, end
            hi = lo + len(bounds)
            indptr[lo + 1:hi] = np.searchsorted(pos, bounds[1:]) + indptr[lo]
            vals.append(block.ravel()[pos])
            pos -= np.repeat(bounds[:-1], np.diff(indptr[lo:hi]))
            rows.append(pos)
        out = cls.__new__(cls)
        out.data, out.indices = ((vals[0], rows[0]) if len(vals) == 1  # no copy
                                 else (np.concatenate(vals), np.concatenate(rows)))
        out.indptr, out.shape, out._col_of = indptr, (d, n), None
        return out

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @property
    def col_of(self) -> np.ndarray:
        """Column index of every nonzero, kept once built."""
        if self._col_of is None:
            self._col_of = self._column_ids()
        return self._col_of

    def _column_ids(self) -> np.ndarray:
        """``col_of`` if it is kept, else a temporary copy: only the
        products over the nonzeros keep it, since on dense data it is as
        large as the dense copy of the points."""
        if self._col_of is not None:
            return self._col_of
        lengths = self.indptr[1:] - self.indptr[:-1]  # np.diff's subtraction
        return np.repeat(np.arange(self.ncols), lengths)

    def column(self, j):
        """Return (row_indices, values) views of column j."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_sqnorms(self) -> np.ndarray:
        """Squared euclidean norm of every column."""
        return np.bincount(self._column_ids(), weights=self.data**2,
                           minlength=self.ncols)

    # The two products below touch the nonzeros only.  bincount adds
    # each output's terms one at a time in storage order, so the result
    # is deterministic, and an empty column or row reads 0.

    def rmatvec(self, x) -> np.ndarray:
        """``A.T @ x``: the dot product of every column with x."""
        return np.bincount(self.col_of, weights=self.data * x[self.indices],
                           minlength=self.ncols)

    def matvec(self, c) -> np.ndarray:
        """``A @ c``: the sum of the columns weighted by c."""
        return np.bincount(self.indices, weights=self.data * c[self.col_of],
                           minlength=self.nrows)

    def to_dense(self) -> np.ndarray:
        """Dense (d, n) array: the transpose of a C-contiguous (n, d)
        fill, so a point-major copy costs no second array."""
        out = np.zeros(self.shape[::-1])
        out[self._column_ids(), self.indices] = self.data
        return out.T
