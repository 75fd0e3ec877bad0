"""Helpers that only the tests call: a fixed-point residual oracle, an
added L2 term and a libsvm writer."""

import numpy as np

from incgrad import Dataset, FiniteSumObjective, estimate_constants


def fixed_point_residual(obj, x, consts=None) -> float:
    """|x - prox_{1/L}(x - (1/L) f'(x))|; zero exactly at the optimum."""
    if consts is None:
        consts = estimate_constants(obj)
    step = 1.0 / consts.L
    w = x - step * obj.full_gradient(x)
    return float(np.linalg.norm(x - obj.reg.prox(step, w)))


def with_l2(obj, l2) -> FiniteSumObjective:
    """The problem ``obj`` with ``l2`` more L2 strength, split into the
    components; ``run`` moves it to where the method keeps it."""
    return FiniteSumObjective(obj.dataset, obj.loss,
                              split_l2=obj.split_l2 + l2, reg=obj.reg)


def save_libsvm(path, dataset: Dataset):
    """Write the dataset back out; values use shortest exact decimals."""
    mat = dataset.features
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(dataset.n):
            idxs, vals = mat.column(j)
            toks = [repr(float(dataset.labels[j]))]
            toks += [f"{int(i) + 1}:{float(v)!r}" for i, v in zip(idxs, vals)]
            fh.write(" ".join(toks) + "\n")
