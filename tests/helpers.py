"""Helpers that only the tests call: a fixed-point residual oracle, a
gradient table's stored gradient, an added L2 term, a libsvm writer, a
frozen sigmoid and the fingerprint of the machine that checked-in
outputs depend on."""

import ctypes
import platform

import numpy as np

from incgrad import Dataset, FiniteSumObjective, estimate_constants


def fixed_point_residual(obj, x, consts=None) -> float:
    """|x - prox_{1/L}(x - (1/L) f'(x))|; zero exactly at the optimum."""
    if consts is None:
        consts = estimate_constants(obj)
    step = 1.0 / consts.L
    w = x - step * obj.full_gradient(x)
    return float(np.linalg.norm(x - obj.reg.prox(step, w)))


def frozen_sigmoid(u):
    """The logistic function in its two-division form, kept frozen as
    the reference for :func:`incgrad.objectives.sigmoid`'s bits."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    d = 1.0 + e
    return np.where(u >= 0, 1.0 / d, e / d)


def stored_gradient(table, i) -> np.ndarray:
    """Entry i of the gradient table ``table`` as the stored f_i'(phi_i);
    its loss part c_i a_i on a scalar table."""
    if table.mode == "scalar":
        return table.coeffs[i] * table.obj.points[i]
    return table.vecs[i].copy()


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


def machine_fingerprint() -> dict:
    """What the checked-in outputs' bytes depend on beyond the code: the
    numpy version, the SIMD targets numpy dispatches its loops to on
    this CPU (fewer under ``NPY_DISABLE_CPU_FEATURES``), the core
    OpenBLAS picked for this CPU (its ``ddot`` kernel) and the C library
    (libm).  A part that cannot be read is ``"unknown"``, which no
    machine that could read it records."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    try:
        simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    except AttributeError:  # older numpy
        simd = "unknown"
    try:
        blas = ctypes.CDLL(umath.__file__)
        corename = blas.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (AttributeError, OSError):  # older numpy, or another BLAS
        core = "unknown"
    libc, version = platform.libc_ver()
    return {"numpy": np.__version__, "numpy_simd": simd,
            "openblas_core": core,
            "libc": f"{libc} {version}" if libc else "unknown"}
