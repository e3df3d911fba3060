"""Dense complex-matrix kernel for small Hermitian systems.

Matrices are plain numpy arrays of complex dtype.  Everything here is sized
for systems with at most a few tens of levels: no sparsity, no iterative
solvers.  Propagators are computed by spectral decomposition of the (tiny)
Hermitian generator, which keeps them unitary to round-off for any time
argument (:func:`expm_hermitian_stack`).  The short slices of shaped
(N+1)-level pulses are summed as Taylor series instead, exact to round-off
within the radius that SERIES_THETA sets (see
:func:`comphr.two_level.slice_product`), and a slice past that radius is
taken from the spectral decomposition.
"""

from __future__ import annotations

import ctypes
import math
import threading

import numpy as np

from .errors import ValidationError

# Constructed matrices must be symmetric to round-off; anything worse is a bug
# in the caller, not noise.
HERMITICITY_TOL = 1e-12


def _openblas_thread_control():
    """(get, set) of the OpenBLAS thread count behind numpy.linalg, or None.

    numpy.linalg's extension module links the BLAS that numpy calls, and a
    symbol lookup on its handle also searches that library.  The names are
    those of numpy's bundled OpenBLAS (prefixed ``scipy_``, with or without
    64-bit integers) and of a plain OpenBLAS; any other BLAS is left alone.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


class _SerialBlas:
    """Context manager that runs its body with one BLAS thread.

    The matrices here are too small for BLAS threads to pay: a threaded
    51x51 eigh or matmul saves at most a fraction of a millisecond when the
    second core is idle.  When another process holds that core, each call
    waits for a preempted worker, and the workers spin for a while after
    every call.  That halved the throughput of shaped gates on a 2-vCPU host
    with one busy neighbour and made it swing from run to run.  Re-entrant
    and thread-safe: the thread count is set to 1 when the first user enters
    and restored when the last one leaves.  A no-op if numpy's BLAS is not
    OpenBLAS.
    """

    def __init__(self):
        self._control = _openblas_thread_control()
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 1

    def __enter__(self):
        if self._control is not None:
            with self._lock:
                if self._users == 0:
                    get, put = self._control
                    self._saved = get()
                    put(1)
                self._users += 1
        return self

    def __exit__(self, *exc):
        if self._control is not None:
            with self._lock:
                self._users -= 1
                if self._users == 0:
                    self._control[1](self._saved)
        return False


#: Shared instance; propagator kernels run inside ``with SERIAL_BLAS:``.
SERIAL_BLAS = _SerialBlas()


def require_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def require_hermitian(h) -> np.ndarray:
    """Return h as a complex array, raising unless it is Hermitian within HERMITICITY_TOL."""
    a = require_square(h, "generator")
    if not np.all(np.isfinite(a)):
        raise ValidationError("generator contains NaN or Inf entries")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > HERMITICITY_TOL:
        raise ValidationError(f"generator is not Hermitian (max asymmetry {defect:.3e})")
    return a


def expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for a Hermitian matrix h.

    Uses the real-eigenvalue spectral decomposition, so the result is unitary
    to round-off regardless of t.
    """
    a = require_hermitian(h)
    t = float(t)
    if not np.isfinite(t):
        raise ValidationError("time must be finite")
    with SERIAL_BLAS:
        return expm_hermitian_stack(a, t)


def expm_hermitian_stack(h: np.ndarray, t, factors: bool = False):
    """Batched exp(-i*h*t) over the leading axes of h (and of t, broadcast).

    The result has shape broadcast(h.shape[:-2], t.shape) + h.shape[-2:].
    Each matrix of h is decomposed once, as v diag(w) v^dagger, and every
    time that shares its decomposition is rebuilt in the same product: the
    leading axes of t that h lacks are moved next to the matrix rows, so
    each decomposition takes one (rows*n x n) @ (n x n) matmul,
    v diag(e^{-iwt}) stacked over the rows times v^dagger, not one BLAS
    call per n x n matrix.  Without such axes the row group has one member.
    The program rebuilds one time per matrix (:func:`expm_hermitian`) or
    takes the factors; the grouped rebuild serves the tests' reference
    propagators.

    With `factors` the exponentials are not rebuilt: the result is the pair
    (v, phase), v the eigenvectors (shape h.shape) and phase = e^{-iwt} of
    shape h.shape[:-2] + (rows, n), the row group flattened on axis -2.

    No validation: callers construct Hermitian stacks.
    """
    w, v = np.linalg.eigh(h)
    n = h.shape[-1]
    t = np.asarray(t, dtype=float)
    extra = max(t.ndim - (h.ndim - 2), 0)
    rows, count = t.shape[:extra], math.prod(t.shape[:extra])
    # the times of each decomposition's row group on the last axis, contiguous
    # so that `scaled` is too and its reshape takes no copy of the stack
    # (transpose, not np.moveaxis, whose overhead shows on single gates)
    t = t.reshape((count,) + t.shape[extra:])
    t = np.ascontiguousarray(t.transpose(tuple(range(1, t.ndim)) + (0,)))
    phase = np.exp(-1j * t[..., None] * w[..., None, :])
    if factors:
        return v, phase
    scaled = v[..., None, :, :] * phase[..., None, :]
    u = scaled.reshape(scaled.shape[:-3] + (count * n, n)) @ v.conj().swapaxes(-1, -2)
    u = u.reshape(u.shape[:-2] + (count, n, n))
    lead = u.ndim - 3
    u = u.transpose((lead,) + tuple(range(lead)) + (lead + 1, lead + 2))
    return u.reshape(rows + u.shape[1:])


#: Largest degree of the Taylor series of shaped slice exponentials.
SERIES_DEGREE = 18

#: SERIES_THETA[K - 1] = ((K + 1)! 2^-54)^(1 / (K + 1)): the largest theta for
#: which the remainder of the degree-K series, at most twice its first term
#: theta^(K+1) / (K+1)! when theta <= (K + 2) / 2, stays within 2^-53.  The
#: last entry, about 1.1, is the series radius.
SERIES_THETA = tuple((math.factorial(k + 1) * 2.0 ** -54) ** (1.0 / (k + 1))
                     for k in range(1, SERIES_DEGREE + 1))


def unitarity_defect(u) -> float:
    """Frobenius norm of u^dagger u - I."""
    a = require_square(u, "operator")
    if not np.all(np.isfinite(a)):
        raise ValidationError("operator has NaN or Inf entries, so it is not unitary")
    eye = np.eye(a.shape[0])
    return float(np.linalg.norm(a.conj().T @ a - eye))
