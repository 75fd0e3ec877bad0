"""Helpers that only the tests call: a fixed-point residual oracle and
a libsvm writer."""

import numpy as np

from incgrad import Dataset, estimate_constants


def fixed_point_residual(obj, x, consts=None) -> float:
    """|x - prox_{1/L}(x - (1/L) f'(x))|; zero exactly at the optimum."""
    if consts is None:
        consts = estimate_constants(obj)
    step = 1.0 / consts.L
    w = x - step * obj.full_gradient(x)
    return float(np.linalg.norm(x - obj.reg.prox(step, w)))


def save_libsvm(path, dataset: Dataset):
    """Write the dataset back out; values use shortest exact decimals."""
    mat = dataset.features
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(dataset.n):
            idxs, vals = mat.column(j)
            toks = [repr(float(dataset.labels[j]))]
            toks += [f"{int(i) + 1}:{float(v)!r}" for i, v in zip(idxs, vals)]
            fh.write(" ".join(toks) + "\n")
