"""BLAS thread-pool detection and control for compute-saturation scheduling.

NumPy links against a threaded BLAS (OpenBLAS on most wheels, MKL or BLIS
elsewhere) whose GEMM kernels already fan out across every core.  That is
exactly right for serial execution — one client's conv/GEMM saturates the
machine — and can be wrong for the process/thread execution backends: P
workers each running a T-thread GEMM oversubscribe the cores P*T-fold.
Capping T changes the bits, though: BLAS splits a long contraction across
its threads and adds the partial sums, so a run pinned to fewer threads
adds in another order.  The cap is therefore an explicit count that applies
to serial and pooled runs alike, never an automatic per-pool division.

This module gives the execution layer the knob it needs:

* :func:`blas_info` detects the BLAS vendor, version, and thread count by
  probing the shared library NumPy actually loaded (ctypes, no imports
  beyond the stdlib).  OpenBLAS — including the ``scipy-openblas`` builds
  shipped in manylinux wheels, whose symbols carry a ``scipy_`` prefix and
  ``64_`` suffix — exposes runtime setters; MKL does too.  Anything else
  degrades gracefully to "detected but uncontrollable".
* :func:`set_blas_threads` / :func:`get_blas_threads` are the runtime
  control.  For vendors without a runtime setter the knob falls back to
  exporting the conventional environment variables
  (``OPENBLAS_NUM_THREADS``/``MKL_NUM_THREADS``/``BLIS_NUM_THREADS``/
  ``OMP_NUM_THREADS``), which only affects BLAS pools that have not
  started yet — i.e. freshly spawned worker processes, the case the
  execution backends care about.
* :func:`blas_thread_limit` is a context manager that pins the count for a
  region and restores the previous value, which is how the serial and
  thread backends scope their policy to one ``map`` call.
* :func:`resolve_blas_threads` turns the user-facing policy (``"auto"`` or
  an explicit count, see ``--blas-threads``) into the count to pin:
  ``auto`` leaves the library at its own count on every backend, so a pool
  computes the same bits as a serial run, and an explicit count pins serial
  runs and every pool worker alike.

Everything here is best-effort by design: on an exotic platform every probe
fails closed (``controllable=False``), the setters return ``False``, and
the execution backends run exactly as they did before this module existed.
"""

from __future__ import annotations

import ctypes
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Union

logger = logging.getLogger(__name__)

#: The user-facing policy values accepted by ``--blas-threads`` (an integer
#: string is also accepted and pins the count exactly).
BLAS_AUTO = "auto"

#: A BLAS thread policy: ``"auto"`` (the default; leaves the library alone,
#: see :func:`resolve_blas_threads`) or an exact positive count.
BlasPolicy = Union[int, str]

# -- library detection -----------------------------------------------------------
#
# The BLAS NumPy uses is already mapped into this process (importing
# repro.nn imports numpy).  dlopen()-ing a library that is already loaded
# returns the existing handle, so probing /proc/self/maps for BLAS-looking
# shared objects and re-opening them is cheap and affects nothing.

#: (vendor, symbol prefixes) probed against every candidate library.
#: OpenBLAS appears both under its classic symbol names and under the
#: ``scipy_openblas`` prefix used by the scipy-openblas32/64 wheels; the
#: ILP64 builds additionally suffix every symbol with ``64_``.
_OPENBLAS_PREFIXES: Tuple[str, ...] = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES: Tuple[str, ...] = ("", "64_")

#: Environment variables understood by the common BLAS implementations,
#: exported by the env-var fallback path of :func:`set_blas_threads`.
BLAS_ENV_VARS: Tuple[str, ...] = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "OMP_NUM_THREADS",
)


@dataclass(frozen=True)
class BlasInfo:
    """What was learned about the process's BLAS library.

    ``controllable`` means a runtime thread-count setter was found;
    without one, :func:`set_blas_threads` can only export environment
    variables for BLAS pools that have not started yet.
    """

    vendor: str  #: "openblas", "mkl", "blis", or "unknown"
    version: Optional[str]  #: e.g. "OpenBLAS 0.3.31" (vendor-reported)
    controllable: bool
    max_threads: Optional[int]  #: thread count at detection time


class _BlasControl:
    """Resolved function pointers for one detected BLAS library."""

    def __init__(
        self,
        vendor: str,
        version: Optional[str],
        getter: Optional[Callable[[], int]],
        setter: Optional[Callable[[int], None]],
    ):
        self.vendor = vendor
        self.version = version
        self.getter = getter
        self.setter = setter


def _candidate_libraries() -> list:
    """Paths of BLAS-looking shared objects mapped into this process."""
    candidates = []
    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as maps:
            for line in maps:
                path = line.rstrip("\n").split(" ", 5)[-1].strip()
                if not path.startswith("/"):
                    continue
                name = os.path.basename(path).lower()
                if any(tag in name for tag in ("openblas", "mkl_rt", "blis", "libblas")):
                    if path not in candidates:
                        candidates.append(path)
    except OSError:  # pragma: no cover - non-Linux platforms
        pass
    return candidates


def _probe_openblas(lib: ctypes.CDLL) -> Optional[_BlasControl]:
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            version = None
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.restype = ctypes.c_char_p
                raw = config()
                if raw:
                    # "OpenBLAS 0.3.31.188.0  USE64BITINT ... MAX_THREADS=64"
                    version = raw.decode("ascii", errors="replace").split("  ")[0].strip()
            return _BlasControl("openblas", version, getter, setter)
    return None


def _probe_mkl(lib: ctypes.CDLL) -> Optional[_BlasControl]:
    getter = getattr(lib, "MKL_Get_Max_Threads", None) or getattr(lib, "mkl_get_max_threads", None)
    setter = getattr(lib, "MKL_Set_Num_Threads", None) or getattr(lib, "mkl_set_num_threads", None)
    if getter is None or setter is None:
        return None
    getter.restype = ctypes.c_int
    version = None
    get_version = getattr(lib, "mkl_get_version_string", None) or getattr(
        lib, "MKL_Get_Version_String", None
    )
    if get_version is not None:
        buffer = ctypes.create_string_buffer(256)
        get_version(buffer, 256)
        version = buffer.value.decode("ascii", errors="replace").strip() or None
    if getattr(setter, "argtypes", None) is None:
        # MKL_Set_Num_Threads takes the count by value.
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
    return _BlasControl("mkl", version, getter, setter)


def _probe_blis(lib: ctypes.CDLL) -> Optional[_BlasControl]:
    getter = getattr(lib, "bli_thread_get_num_threads", None)
    setter = getattr(lib, "bli_thread_set_num_threads", None)
    if getter is None or setter is None:
        return None
    getter.restype = ctypes.c_int
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    return _BlasControl("blis", None, getter, setter)


#: Lazily detected control block; ``False`` means "not probed yet" so that a
#: failed probe (``None``) is cached too.
_CONTROL: Union[_BlasControl, None, bool] = False


def _control() -> Optional[_BlasControl]:
    global _CONTROL
    if _CONTROL is False:
        control = None
        for path in _candidate_libraries():
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # pragma: no cover - unloadable mapping
                continue
            control = _probe_openblas(lib) or _probe_mkl(lib) or _probe_blis(lib)
            if control is not None:
                break
        _CONTROL = control
    return _CONTROL if _CONTROL is not False else None


def reset_blas_detection() -> None:
    """Forget the cached probe (tests monkeypatching the detection use this)."""
    global _CONTROL
    _CONTROL = False


def blas_info() -> BlasInfo:
    """Vendor / version / controllability of the BLAS in this process.

    Detection runs once and is cached; an undetectable BLAS reports
    ``vendor="unknown"`` with ``controllable=False``.
    """
    control = _control()
    if control is None:
        return BlasInfo(vendor="unknown", version=None, controllable=False, max_threads=None)
    return BlasInfo(
        vendor=control.vendor,
        version=control.version,
        controllable=control.setter is not None,
        max_threads=int(control.getter()) if control.getter is not None else None,
    )


def get_blas_threads() -> Optional[int]:
    """The BLAS pool's current thread count, or ``None`` when uncontrollable."""
    control = _control()
    if control is None or control.getter is None:
        return None
    return int(control.getter())


def set_blas_threads(count: int) -> bool:
    """Pin the BLAS pool to ``count`` threads.

    Returns ``True`` when the runtime setter took effect.  Without one the
    conventional environment variables are exported instead (affecting only
    BLAS pools that have not started yet — e.g. freshly spawned workers)
    and ``False`` is returned.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"BLAS thread count must be positive, got {count}")
    control = _control()
    if control is not None and control.setter is not None:
        control.setter(count)
        return True
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(count)
    return False


@contextmanager
def blas_thread_limit(count: Optional[int]) -> Iterator[None]:
    """Pin the BLAS thread count inside the ``with`` block, then restore it.

    ``count=None`` (or an uncontrollable BLAS) makes the context a no-op,
    so callers can pass a resolved policy straight through.
    """
    if count is None:
        yield
        return
    previous = get_blas_threads()
    took_effect = set_blas_threads(count)
    try:
        yield
    finally:
        if took_effect and previous is not None:
            set_blas_threads(previous)


def parse_blas_threads(text: str) -> BlasPolicy:
    """Parse a ``--blas-threads`` CLI value: ``"auto"`` or a positive int."""
    lowered = str(text).strip().lower()
    if lowered == BLAS_AUTO:
        return BLAS_AUTO
    try:
        count = int(lowered)
    except ValueError:
        raise ValueError(
            f"invalid BLAS thread policy {text!r}: expected 'auto' or a positive integer"
        ) from None
    if count < 1:
        raise ValueError(f"BLAS thread count must be positive, got {count}")
    return count


def check_blas_policy(policy: BlasPolicy) -> BlasPolicy:
    """Validate a BLAS thread policy value (``"auto"`` or int >= 1)."""
    if policy == BLAS_AUTO:
        return policy
    if isinstance(policy, bool) or not isinstance(policy, int):
        raise ValueError(
            f"invalid BLAS thread policy {policy!r}: expected 'auto' or a positive integer"
        )
    if policy < 1:
        raise ValueError(f"BLAS thread count must be positive, got {policy}")
    return policy


def resolve_blas_threads(policy: BlasPolicy) -> Optional[int]:
    """Resolve a policy into the BLAS thread count to pin, or ``None``.

    ``"auto"`` resolves to ``None``: leave the BLAS library at its own
    thread count, which also keeps any limit set through the environment.
    An integer pins every worker, a serial run's included, to that count,
    so every backend sums in the same order.
    """
    check_blas_policy(policy)
    if policy == BLAS_AUTO:
        return None
    return int(policy)
