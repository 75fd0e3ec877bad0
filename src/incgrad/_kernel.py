"""The compiled passes (``_passes.c``): one library, built with the C
compiler on first use, serving every compiled engine.

The shared library is cached in ``$XDG_CACHE_HOME/incgrad`` (default
``~/.cache/incgrad``) under a name that carries a 64-bit hash of the
source, the compiler command and the flags, so a second process loads
it without compiling; a cache that cannot be written gets a private
build for this process only.  The hash is ``importlib.util.source_hash``
(keyed by the Python version), which numpy has imported already, where
``hashlib`` would first load OpenSSL.  The library takes every dot
product from the BLAS ``ddot`` that numpy itself calls, and is trusted
only after it has matched ``np.vdot`` bit for bit.  When there is no
compiler, the build fails or that check fails, :func:`load` returns
None and every engine runs its numpy loop, which gives the same bytes.

Only this module knows the library's arguments and status codes.  Each
engine has one factory here (:func:`svrg_pass`, :func:`table_pass`,
:func:`lazy_pass`), returning a function that runs one pass in place
and raises what the engine's numpy loop raises, or None without a
kernel.  The table pass serves every method in
``solvers.COMPILED_STEPS`` (saga_explicit_l2 on dense data only);
midpoint's also runs the margin solve of ``objectives.scalar_loss_prox``,
with that function's tolerance and iteration bound.  The C loops read and
write what they are given unchecked, so the factories check what lives
for the whole run and the functions check the rest on every pass,
before any C call.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
from importlib.util import source_hash
from pathlib import Path

import numpy as np

from . import lazy, solvers
from .errors import ConfigError, DivergenceError, ProxSolveError
from .objectives import _PROX_TOL, LogisticLoss, SquaredLoss

SOURCE = Path(__file__).with_name("_passes.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's bundled OpenBLAS (ILP64, with numpy's symbol prefix and suffix),
# in numpy.libs next to the numpy package
BLAS_LIB = "libscipy_openblas64_"
DDOT = "scipy_cblas_ddot64_"
_LOSSES = {SquaredLoss: 0, LogisticLoss: 1}
# how a pass ended other than OK (0); the C enum
MARGIN, DIVERGED, GAP, NO_ROOT = 1, 2, 3, 4


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
    tag = source_hash(repr((cc, FLAGS)).encode() + source).hex()
    target = directory / f"_passes-{tag}.so"
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
        self.svrg = _bind(lib.incgrad_svrg_pass, steps, "PIPPiFFiFFPIPPPPP")
        self.table = _bind(lib.incgrad_table_pass, steps,
                           "PiIIPPiFFFF" + "P" * 8 + "FPPPFPIPPPP")
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


def _raise(why, step, detail, residual=None):
    """Raise what the numpy loop raises where a pass ended ``why``, with
    ``detail`` for a divergence at ``step`` and the ``residual`` (two
    ctypes doubles: |g| and the iteration cap) of a margin solve that did
    not converge."""
    if why == NO_ROOT:
        raise ProxSolveError(residual=residual[0], iterations=int(residual[1]))
    if why == MARGIN:
        raise ValueError("x must be finite")
    if why == DIVERGED:
        raise DivergenceError(step, detail=detail)
    if why == GAP:
        raise ConfigError(lazy._GAP)


def _problem(obj):
    """(kernel, [points, labels, loss code]) for a pass on ``obj``, or
    None when the kernel is missing or the loss is not one it knows."""
    kernel = load()
    logistic = _LOSSES.get(type(obj.loss))
    if kernel is None or logistic is None:
        return None
    return kernel, [*_ptrs(F64, (obj.n, obj.d), obj.points),
                    *_ptrs(F64, (obj.n,), obj.labels), logistic]


def _pass_of(fn, bound, n, d, keep, residual=None):
    """The function running one pass of the C pass ``fn``, which takes
    ``bound``, the divergence limit, the status, then per pass int64
    indices in [0, n) and d-vectors.  It returns the steps taken and
    raises as the numpy loop does, at the step counted over all its
    passes (see :func:`_raise` for ``residual``).  ``keep`` holds what
    the bound pointers point into."""
    why = ctypes.c_int()
    call = functools.partial(fn, *bound, solvers.DIVERGENCE_SQNORM,
                             ctypes.byref(why))
    done = 0

    def run_pass(order, *vectors):
        nonlocal done
        steps = call(order.size, *_ptrs(I64, (order.size,), order, below=n),
                     *_ptrs(F64, (d,), *vectors))
        done += steps
        _raise(why.value, done, solvers._DIVERGED, residual)
        return steps

    run_pass.keep = keep
    return run_pass


def svrg_pass(obj, gamma):
    """A function running one inner pass of svrg on ``obj`` in place, or
    None without a kernel.  It takes the pass's int64 indices, the
    snapshot, its full gradient, x and the running sum of iterates (see
    :func:`_pass_of`)."""
    problem = _problem(obj)
    if problem is None:
        return None
    kernel, data = problem
    l1 = obj.reg.l1  # svrg's split form leaves h no L2 term
    return _pass_of(kernel.svrg, (kernel.ddot, obj.d, *data, obj.split_l2,
                                  gamma, bool(l1), gamma * l1),
                    obj.n, obj.d, obj)


def table_pass(code, obj, state, xsum, *, gamma, mu, L):
    """A function running one pass of the table step with ``code`` (see
    ``solvers.COMPILED_STEPS``) on ``obj`` in place, or None without a
    kernel, bound once to the ``SagaState`` the step's init built and
    the run's sum of iterates ``xsum``.  ``gamma`` is None for
    sdca_variant5 and midpoint, whose steps C derives from ``mu`` and
    ``L``; midpoint's pass also binds the data's squared norms.  ``mu``
    is saga_explicit_l2's explicit L2 term, and that method has no pass
    on sparse data, whose support step stays numpy's (None).  It takes
    the pass's indices and what a pass-end replaces: x, the table's mean
    and the phi_mean of finito and midpoint, else None (see
    :func:`_pass_of`)."""
    t = state.table
    if t.support and code == solvers.COMPILED_STEPS["saga_explicit_l2"]:
        return None
    problem = _problem(obj)
    if problem is None:
        return None
    kernel, data = problem
    n, d = obj.n, obj.d
    # a scalar table on sparse data steps on the support (C reads no CSC
    # pointer of a dense table)
    csc = _csc(obj.dataset.features) if obj.sparse else [None] * 3
    midpoint = code == solvers.COMPILED_STEPS["midpoint"]
    sqnorms = obj.dataset.sqnorms() if midpoint else None  # its prox's |a_j|^2
    scratch, residual = np.empty(d), (ctypes.c_double * 2)()
    return _pass_of(kernel.table, (
        kernel.ddot, code, n, d, *data, obj.split_l2,
        np.nan if gamma is None else gamma, mu, L,
        *_ptrs(F64, (n, d), t.vecs), *_ptrs(F64, (n,), t.coeffs), *csc,
        *_ptrs(F64, (d,), state.u), *_ptrs(F64, (n, d), state.phi),
        *_ptrs(F64, (n,), sqnorms), _PROX_TOL, ctypes.byref(residual),
        *_ptrs(F64, (d,), scratch, xsum)),
        n, d, (obj, t.vecs, t.coeffs, state.u, state.phi, sqnorms, scratch,
               xsum), residual)


def lazy_pass(mat):
    """A function running one pass of ``lazy.sparse_saga_lstsq_epoch`` on
    the CSC matrix ``mat`` in place, or None without a kernel.  It takes
    that function's state and the pass's int64 indices, and raises what
    the numpy loop raises."""
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
        kernel.lazy(
            kernel.ddot, order.size, *_ptrs(I64, (order.size,), order, below=n),
            n, d, *csc, gamma, rho, threshold,
            *_ptrs(F64, (entries.size,), entries), entries.size,
            *_ptrs(F64, (d,), it.x), *_ptrs(I64, (d,), it.lag),
            *_ptrs(F64, (n,), c), *_ptrs(F64, (d,), g_avg), gathered.ctypes.data,
            ctypes.byref(k), ctypes.byref(beta), ctypes.byref(touches),
            ctypes.byref(why))
        it.k, it.beta, it.touches = k.value, beta.value, touches.value
        _raise(why.value, it.k + 1, lazy._NON_FINITE)

    return run_pass
