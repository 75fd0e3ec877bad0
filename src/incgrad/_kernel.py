"""The compiled svrg inner pass (``_svrg.c``), built with the C compiler
on first use.

The shared library is cached in ``$XDG_CACHE_HOME/incgrad`` (default
``~/.cache/incgrad``) under a name that carries the sha256 of the
source, the compiler command and the flags, so a second process loads
it without compiling; a cache that cannot be written gets a private
build for this process only.  The kernel takes every dot product from
the BLAS ``ddot`` that numpy itself calls, and is trusted only after it
has matched ``np.vdot`` bit for bit.  When there is no compiler, the
build fails or that check fails, :func:`load` returns None and svrg
runs its numpy loop, which gives the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .objectives import LogisticLoss, SquaredLoss

SOURCE = Path(__file__).with_name("_svrg.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's bundled OpenBLAS (ILP64, with numpy's symbol prefix and suffix)
BLAS_LIBS = "../numpy.libs/libscipy_openblas64_*.so"
DDOT = "scipy_cblas_ddot64_"
_LOSSES = {SquaredLoss: 0, LogisticLoss: 1}
# how a pass ended other than OK (0); the C enum
MARGIN, DIVERGED = 1, 2
_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "incgrad"


def build(directory: Path) -> Path:
    """Path of the compiled library in ``directory``, compiling it there
    first unless it is already there; OSError if the compiler fails."""
    cc = shlex.split(os.environ.get("CC") or "gcc")
    source = SOURCE.read_bytes()
    tag = hashlib.sha256(repr((cc, FLAGS)).encode() + source).hexdigest()
    target = directory / f"_svrg-{tag[:16]}.so"
    if not target.exists():
        import subprocess  # only a build pays for it

        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            proc = subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                                  capture_output=True, text=True)
            if proc.returncode:
                raise OSError(f"{cc[0]} failed: {proc.stderr.strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return target


class Kernel:
    """The loaded library and the ``ddot`` it calls."""

    def __init__(self, path: Path):
        blas = glob.glob(os.path.join(os.path.dirname(np.__file__), BLAS_LIBS))
        if len(blas) != 1:
            raise OSError(f"numpy's OpenBLAS not found: {blas}")
        self.blas = ctypes.CDLL(blas[0])  # numpy's own, already loaded
        self.ddot = ctypes.cast(getattr(self.blas, DDOT), _P)
        lib = ctypes.CDLL(str(path))
        self.dot = lib.incgrad_dot
        self.dot.argtypes = [_P, _I64, _P, _P]
        self.dot.restype = _F64
        self.svrg = lib.incgrad_svrg_pass
        self.svrg.argtypes = [_P, _I64, _P, _I64, _P, _P, ctypes.c_int, _F64,
                              _F64, ctypes.c_int, _F64,
                              _P, _P, _P, _P, _F64, ctypes.POINTER(ctypes.c_int)]
        self.svrg.restype = _I64

    def agrees_with_numpy(self) -> bool:
        """Whether the kernel's dot product is ``np.vdot``'s, bit for bit,
        on vectors of lengths around BLAS block edges."""
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7, 16, 33, 100, 200, 1001, 4099):
            a, b = rng.standard_normal((2, n))
            got = self.dot(self.ddot, n, a.ctypes.data, b.ctypes.data)
            if got.hex() != float(np.vdot(a, b)).hex():
                return False
        return True


def open_kernel(directory: Path) -> Kernel:
    """Build (or reuse) the library in ``directory``, or in a private
    temporary directory when that one cannot be written, load it and
    check it; raises when any of that fails."""
    try:
        path = build(directory)
    except OSError:
        private = tempfile.mkdtemp(prefix="incgrad-")
        try:  # once loaded, the file is no longer needed
            kernel = Kernel(build(Path(private)))
        finally:
            shutil.rmtree(private, ignore_errors=True)
    else:
        kernel = Kernel(path)
    if not kernel.agrees_with_numpy():
        raise OSError("the kernel's ddot does not match np.vdot")
    return kernel


@functools.cache
def load() -> Kernel | None:
    """The checked kernel from the cache directory, once per process, or
    None when it cannot be built, loaded or trusted."""
    try:
        return open_kernel(cache_dir())
    except (OSError, AttributeError):  # AttributeError: no such symbol
        return None


def svrg_pass(obj, gamma, limit):
    """A function running one inner pass of svrg on ``obj`` in place, or
    None when the kernel is missing or the loss is not one it knows.

    The function takes the pass's int64 indices, the snapshot, its full
    gradient, x and the running sum of iterates; it returns the number
    of steps taken and whether it stopped on a non-finite margin (the
    step not taken) or on an iterate failing ``x @ x < limit``.
    """
    kernel = load()
    logistic = _LOSSES.get(type(obj.loss))
    if kernel is None or logistic is None:
        return None
    points = np.ascontiguousarray(obj.points, dtype=np.float64)
    labels = np.ascontiguousarray(obj.labels, dtype=np.float64)
    l1 = obj.reg.l1  # svrg's split form leaves h no L2 term
    thr = gamma * l1
    why = ctypes.c_int()

    def run_pass(order, snap, g_full, x, xsum):
        # the C loop reads and writes d doubles at each of these pointers
        # and reads rows at the indices without checking either
        if not all(v.dtype == np.float64 and v.shape == (obj.d,)
                   and v.flags.c_contiguous for v in (snap, g_full, x, xsum)):
            raise ValueError("the svrg pass takes contiguous float64 "
                             "vectors of length d")
        if order.dtype != np.int64 or not (
                order.size == 0 or 0 <= order.min() <= order.max() < obj.n):
            raise ValueError("the svrg pass takes int64 indices in [0, n)")
        steps = kernel.svrg(
            kernel.ddot, order.size, order.ctypes.data, obj.d,
            points.ctypes.data, labels.ctypes.data, logistic, obj.split_l2,
            gamma, bool(l1), thr, snap.ctypes.data, g_full.ctypes.data,
            x.ctypes.data, xsum.ctypes.data, limit, ctypes.byref(why))
        return steps, why.value

    return run_pass
