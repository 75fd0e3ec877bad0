"""The compiled passes (``_passes.c``): one library, built with the C
compiler on first use, serving every compiled engine.

The shared library is cached in ``$XDG_CACHE_HOME/incgrad`` (default
``~/.cache/incgrad``) under a name that carries the sha256 of the
source, the compiler command and the flags, so a second process loads
it without compiling; a cache that cannot be written gets a private
build for this process only.  The library takes every dot product from
the BLAS ``ddot`` that numpy itself calls, and is trusted only after it
has matched ``np.vdot`` bit for bit.  When there is no compiler, the
build fails or that check fails, :func:`load` returns None and every
engine runs its numpy loop, which gives the same bytes.

Each engine has one factory here (:func:`svrg_pass`, :func:`table_pass`,
:func:`lazy_pass`), returning a function that runs one pass in place,
or None without a kernel.  The C loops read and write the arrays they
are given without checking them, so the functions check dtype, shape,
contiguity and index range first.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .errors import DivergenceError
from .objectives import LogisticLoss, SquaredLoss

SOURCE = Path(__file__).with_name("_passes.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's bundled OpenBLAS (ILP64, with numpy's symbol prefix and suffix),
# in numpy.libs next to the numpy package
BLAS_LIB = "libscipy_openblas64_"
DDOT = "scipy_cblas_ddot64_"
_LOSSES = {SquaredLoss: 0, LogisticLoss: 1}
# how a pass ended other than OK (0); the C enum
MARGIN, DIVERGED, GAP = 1, 2, 3


def check(why, k, detail):
    """Raise what the numpy loops raise where a pass ended ``why``, with
    ``detail`` for a divergence at step k."""
    if why == MARGIN:
        raise ValueError("x must be finite")
    if why == DIVERGED:
        raise DivergenceError(k, detail=detail)


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "incgrad"


def build(directory: Path) -> Path:
    """Path of the compiled library in ``directory``, compiling it there
    first unless it is already there; OSError if the compiler fails."""
    cc = ["gcc"]
    if os.environ.get("CC"):
        import shlex  # only a compiler command of one's own pays for it

        cc = shlex.split(os.environ["CC"])
    source = SOURCE.read_bytes()
    tag = hashlib.sha256(repr((cc, FLAGS)).encode() + source).hexdigest()
    target = directory / f"_passes-{tag[:16]}.so"
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


# C argument types by letter: pointer, int64, double, int
_TYPES = {"P": ctypes.c_void_p, "I": ctypes.c_int64, "F": ctypes.c_double,
          "i": ctypes.c_int}


def _bind(fn, restype, signature):
    """``fn`` with its result type and the argument types ``signature``
    spells."""
    fn.restype, fn.argtypes = restype, [_TYPES[c] for c in signature]
    return fn


class Kernel:
    """The loaded library, its three passes and the ``ddot`` they call."""

    def __init__(self, path: Path):
        libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
        blas = [f for f in os.listdir(libs)
                if f.startswith(BLAS_LIB) and f.endswith(".so")]
        if len(blas) != 1:
            raise OSError(f"numpy's OpenBLAS not found: {blas}")
        self.blas = ctypes.CDLL(os.path.join(libs, blas[0]))  # numpy's own
        self.ddot = ctypes.cast(getattr(self.blas, DDOT), ctypes.c_void_p)
        lib = ctypes.CDLL(str(path))
        steps = ctypes.c_int64
        self.dot = _bind(lib.incgrad_dot, ctypes.c_double, "PIPP")
        self.svrg = _bind(lib.incgrad_svrg_pass, steps, "PIPIPPiFFiFPPPPFP")
        self.table = _bind(lib.incgrad_table_pass, steps,
                           "PiIPIIPPiFFF" + "P" * 12 + "FP")
        self.lazy = _bind(lib.incgrad_lazy_pass, steps, "PIPIIPPPFFFPI" + "P" * 9)

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


# ---------------------------------------------------------------------------
# the factories, one per engine, and the checks they share: the C loops
# read and write what they are given without checking it

F64, I64 = np.float64, np.int64


def _ptrs(dtype, shape, *arrays, below=None):
    """Data pointers of the arrays (None for None), each checked to be a
    contiguous array of this dtype and shape, with values in [0, below)
    if that is given."""
    for a in arrays:
        if a is not None and not (
                a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
                and (below is None or a.size == 0
                     or 0 <= a.min() <= a.max() < below)):
            raise ValueError(f"the compiled pass takes contiguous "
                             f"{np.dtype(dtype)} arrays of shape {shape}"
                             f" (values below {below})")
    return [None if a is None else a.ctypes.data for a in arrays]


def _indices(order, n):
    """Pointer to a pass's indices, checked to be int64 in [0, n)."""
    return _ptrs(I64, (order.size,), order, below=n)[0]


def _csc(mat):
    """Pointers to indptr, indices and data of the CSC matrix ``mat``,
    checked so that no column reads out of bounds."""
    d, n = mat.shape
    indptr = mat.indptr
    if not (indptr[0] == 0 and np.all(indptr[1:] >= indptr[:-1])):
        raise ValueError("the compiled pass takes a valid CSC indptr")
    return (*_ptrs(I64, (n + 1,), indptr, below=mat.nnz + 1),
            *_ptrs(I64, (mat.nnz,), mat.indices, below=d),
            *_ptrs(F64, (mat.nnz,), mat.data))


def _problem(obj):
    """(kernel, [points, labels, loss code]) for a pass on ``obj``, or
    None when the kernel is missing or the loss is not one it knows."""
    kernel = load()
    logistic = _LOSSES.get(type(obj.loss))
    if kernel is None or logistic is None:
        return None
    return kernel, [*_ptrs(F64, (obj.n, obj.d), obj.points),
                    *_ptrs(F64, (obj.n,), obj.labels), logistic]


def svrg_pass(obj, gamma, limit):
    """A function running one inner pass of svrg on ``obj`` in place, or
    None without a kernel.  It takes the pass's int64 indices, the
    snapshot, its full gradient, x and the running sum of iterates, and
    returns the steps taken and how the pass ended (``MARGIN``: a margin
    was not finite, that step not taken; ``DIVERGED``: the last step
    failed ``x @ x < limit``)."""
    problem = _problem(obj)
    if problem is None:
        return None
    kernel, data = problem
    l1 = obj.reg.l1  # svrg's split form leaves h no L2 term
    why = ctypes.c_int()

    def run_pass(order, snap, g_full, x, xsum):
        steps = kernel.svrg(
            kernel.ddot, order.size, _indices(order, obj.n), obj.d, *data, obj.split_l2, gamma, bool(l1), gamma * l1,
            *_ptrs(F64, (obj.d,), snap, g_full, x, xsum), limit,
            ctypes.byref(why))
        return steps, why.value

    return run_pass


def table_pass(code, obj, params, limit):
    """A function running one pass of the table step with ``code`` (its
    place in ``solvers.COMPILED_STEPS``) on ``obj`` in place, or None
    without a kernel; ``params`` are the step's arguments after
    ``(state, obj, j)``.  It takes the pass's int64 indices, the
    ``SagaState`` that step's init built and the running sum of
    iterates, and returns as the svrg pass does (``MARGIN`` only with a
    dense table)."""
    problem = _problem(obj)
    if problem is None:
        return None
    kernel, data = problem
    n, d = obj.n, obj.d
    scratch = np.empty(d)
    why = ctypes.c_int()

    def run_pass(order, state, xsum):
        t = state.table
        dense = t.mode == "dense"
        steps = kernel.table(
            kernel.ddot, code, order.size, _indices(order, n), n, d, *data,
            obj.split_l2, *(*params, 0.0)[:2], *_ptrs(F64, (d,), t.avg),
            *_ptrs(F64, (n, d), t.vecs if dense else None),
            *_ptrs(F64, (n,), None if dense else t.coeffs),
            *(_csc(obj.dataset.features) if t.support else [None] * 3),
            *_ptrs(F64, (d,), state.u), *_ptrs(F64, (n, d), state.phi),
            *_ptrs(F64, (d,), state.phi_mean, scratch, state.x, xsum),
            limit, ctypes.byref(why))
        return steps, why.value

    return run_pass


def lazy_pass(mat):
    """A function running one pass of ``lazy.sparse_saga_lstsq_epoch`` on
    the CSC matrix ``mat`` in place, or None without a kernel.  It takes
    that function's state and the pass's int64 indices, and returns the
    steps taken and how the pass ended (``DIVERGED``: the next step's
    coefficient was not finite; ``GAP``: a lag gap reached past the
    scaling table)."""
    kernel = load()
    if kernel is None:
        return None
    d, n = mat.shape
    csc = _csc(mat)
    gathered = np.empty(max(int(np.diff(mat.indptr).max()), 1))
    k, beta, touches = ctypes.c_int64(), ctypes.c_double(), ctypes.c_int64()
    why = ctypes.c_int()

    def run_pass(order, it, c, g_avg, gamma, rho, threshold, scaling):
        entries = scaling.entries
        k.value, beta.value, touches.value = it.k, it.beta, it.touches
        steps = kernel.lazy(
            kernel.ddot, order.size, _indices(order, n), n, d, *csc, gamma,
            rho, threshold, *_ptrs(F64, (entries.size,), entries), entries.size,
            *_ptrs(F64, (d,), it.x), *_ptrs(I64, (d,), it.lag),
            *_ptrs(F64, (n,), c), *_ptrs(F64, (d,), g_avg),
            gathered.ctypes.data,
            ctypes.byref(k), ctypes.byref(beta), ctypes.byref(touches),
            ctypes.byref(why))
        it.k, it.beta, it.touches = k.value, beta.value, touches.value
        return steps, why.value

    return run_pass
