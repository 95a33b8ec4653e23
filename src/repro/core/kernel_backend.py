"""Compiled-kernel tier: backend selection and the on-demand C build.

Two hot loops have an optional *native* backend in one small C source
(``core/_native/scoref.c`` — a flat int64/double array ABI, deliberately
free of ``Python.h``) compiled on demand with the system C compiler and
driven through :mod:`ctypes`:

* the batched ``F`` score (:func:`repro.core.score_kernels.score_F_batch`);
* ancestral sampling (:mod:`repro.core.sampler`), one call per draw.

This module owns everything about that tier:

* **Selection** happens once, at import, via :data:`SELECTED_BACKEND` /
  :data:`NATIVE_KERNEL`.  The ``REPRO_KERNEL_BACKEND`` environment
  variable picks the mode, for both kernels at once:

  - ``auto`` (default) — try to build/load the native kernel; fall back
    to the pure-NumPy paths silently if there is no toolchain (or the
    build fails).  Pure-Python environments keep working with zero
    behavior change: both backends are bit-identical.
  - ``numpy`` — never touch the compiler; the NumPy paths only.
  - ``native`` — require the native kernel; raise
    :class:`KernelBackendError` naming the missing toolchain otherwise.

* **Building** is one ``cc -O2 -fPIC -shared`` invocation (no
  setuptools, no ``Python.h``), cached as
  ``scoref-abi<V>-<source sha256 prefix>.so`` so a source edit or ABI
  bump can never reuse a stale artifact.  The cache directory is
  ``REPRO_KERNEL_CACHE`` if set, else ``core/_native/build/`` next to
  the source (gitignored), else a per-user temp directory when the
  package tree is read-only.  Publication is mkstemp + ``os.replace``,
  so concurrent builders (forked test workers) race benignly.

* **Loading** verifies the artifact's exported ABI version before any
  call.

Bit-identity is a hard contract, not an aspiration.  The native F kernel
computes the same minimum as the NumPy blocked-bitset path, over a
frontier bounded by an exact integer incumbent, and evaluates the final
shortfall with the identical float64 expression, so every score is
bit-equal.  The native sampler evaluates the same ``cdf < u`` predicate
on the same doubles as the NumPy inversion, so every code is equal.  See
``core/_native/README.md`` for both arguments, and
``tests/core/test_score_kernels.py``, ``tests/core/test_frontier_bound.py``
and ``tests/core/test_native_sampler.py`` for the enforcement.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "BACKEND_ENV",
    "CACHE_ENV",
    "ABI_VERSION",
    "KernelBackendError",
    "NativeKernel",
    "source_path",
    "compiler",
    "cache_dir",
    "artifact_path",
    "build_native",
    "load_native",
    "requested_mode",
    "resolve",
    "SELECTED_BACKEND",
    "NATIVE_KERNEL",
]

#: Environment variable selecting the backend mode.
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Environment variable overriding the compiled-artifact cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Exported-symbol contract version; must match the C source's
#: ``repro_scoref_abi_version()``.
ABI_VERSION = 2

_MODES = ("auto", "numpy", "native")


class KernelBackendError(RuntimeError):
    """The requested compiled-kernel backend cannot be provided."""


def source_path() -> Path:
    """Path of the native kernel's C source, shipped with the package."""
    return Path(__file__).resolve().parent / "_native" / "scoref.c"


def compiler() -> Optional[str]:
    """Absolute path of the C compiler, or ``None`` when there is none.

    Honors ``CC`` when set; otherwise looks for the POSIX ``cc``.
    """
    return shutil.which(os.environ.get("CC") or "cc")


def cache_dir() -> Path:
    """Directory holding compiled artifacts (not created here).

    ``REPRO_KERNEL_CACHE`` wins; the default is ``_native/build/`` next
    to the source (gitignored); a per-user temp directory serves
    read-only installs.
    """
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    build = source_path().parent / "build"
    try:
        build.mkdir(parents=True, exist_ok=True)
        probe = build / f".writable-{os.getpid()}"
        probe.touch()
        probe.unlink()
        return build
    except OSError:
        user = getattr(os, "getuid", os.getpid)()
        return Path(tempfile.gettempdir()) / f"repro-kernels-{user}"


def artifact_path() -> Path:
    """Cache location of the compiled kernel for the current source.

    Keyed on the ABI version and a source digest: editing ``scoref.c``
    (or bumping the ABI) changes the filename, so a stale artifact is
    never picked up.
    """
    digest = hashlib.sha256(source_path().read_bytes()).hexdigest()[:16]
    return cache_dir() / f"scoref-abi{ABI_VERSION}-{digest}.so"


def build_native(force: bool = False) -> Path:
    """Compile the native kernel if needed; return the artifact path.

    Raises :class:`KernelBackendError` when no toolchain is available or
    the compilation fails (with the compiler's stderr attached).
    """
    target = artifact_path()
    if target.exists() and not force:
        return target
    cc = compiler()
    if cc is None:
        raise KernelBackendError(
            "no C toolchain found (neither $CC nor `cc` on PATH); install "
            f"a compiler or set {BACKEND_ENV}=numpy for the pure-NumPy "
            "kernels"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(suffix=".so", dir=str(target.parent))
    os.close(fd)
    command = [cc, "-O2", "-fPIC", "-shared", "-o", temp, str(source_path())]
    try:
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise KernelBackendError(
                "native kernel build failed: "
                f"{' '.join(command)}\n{result.stderr}"
            )
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
    return target


class NativeKernel:
    """ctypes handle to one compiled kernel artifact (F score, sampler)."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        library = ctypes.CDLL(str(self.path))
        version = library.repro_scoref_abi_version
        version.restype = ctypes.c_int64
        version.argtypes = []
        found = int(version())
        if found != ABI_VERSION:
            raise KernelBackendError(
                f"native kernel {self.path} exports ABI {found}, "
                f"expected {ABI_VERSION}; rebuild with build_native(force=True)"
            )
        score = library.repro_score_f_batch
        score.restype = ctypes.c_int
        score.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double),
        ]
        self._score_f_batch = score
        sample = library.repro_sample_block
        sample.restype = ctypes.c_int
        sample.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_int64),
        ]
        self._sample_block = sample

    def score_f_batch(
        self, c0: np.ndarray, c1: np.ndarray, n: int
    ) -> np.ndarray:
        """Exact F scores for ``(count, m)`` X=0 / X=1 count matrices.

        The caller (``score_F_batch``) has already validated the counts;
        this only marshals the flat-array ABI.
        """
        c0 = np.ascontiguousarray(c0, dtype=np.int64)
        c1 = np.ascontiguousarray(c1, dtype=np.int64)
        if c0.shape != c1.shape or c0.ndim != 2:
            raise ValueError("c0/c1 must be equal-shape (count, m) matrices")
        count, m = c0.shape
        out = np.empty(count, dtype=np.float64)
        status = self._score_f_batch(
            c0.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            c1.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            ctypes.c_int64(count),
            ctypes.c_int64(m),
            ctypes.c_int64(int(n)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        if status != 0:
            raise KernelBackendError(
                f"native kernel {self.path} failed with status {status}"
            )
        return out

    def sample_block(
        self,
        attrs: np.ndarray,
        parents: np.ndarray,
        maps: np.ndarray,
        cdfs: np.ndarray,
        block: np.ndarray,
    ) -> None:
        """One ancestral draw over a sampling plan, in place.

        Row ``i`` of the ``(d, n)`` float64 ``block`` holds attribute
        ``i``'s uniforms on entry and its int64 codes on exit (read them
        through ``block.view(np.int64)``).  ``attrs`` (``(d, 5)``),
        ``parents`` (``(P, 4)``), ``maps`` and ``cdfs`` are the flat plan
        laid out in ``core/_native/README.md``.  Layouts are checked here;
        the C side proves every gather in range before touching the block,
        and a plan that fails raises :class:`KernelBackendError`.
        """
        for array, dtype in (
            (attrs, np.int64),
            (parents, np.int64),
            (maps, np.int64),
            (cdfs, np.float64),
            (block, np.float64),
        ):
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(
                    "sampling plan arrays must be C-contiguous "
                    f"{dtype.__name__}"
                )
        if block.ndim != 2 or not block.flags.writeable:
            raise ValueError("block must be a writeable (d, n) matrix")
        d, n = block.shape
        if attrs.shape != (d, 5) or parents.ndim != 2 or parents.shape[1] != 4:
            raise ValueError(
                f"plan headers must be (d, 5) and (P, 4) for d={d}; got "
                f"{attrs.shape} and {parents.shape}"
            )
        rows = np.empty(n, dtype=np.int64)
        status = self._sample_block(
            d,
            n,
            attrs.ctypes.data_as(_INT64_P),
            parents.ctypes.data_as(_INT64_P),
            parents.shape[0],
            maps.ctypes.data_as(_INT64_P),
            maps.size,
            cdfs.ctypes.data_as(_DOUBLE_P),
            cdfs.size,
            block.ctypes.data_as(_DOUBLE_P),
            rows.ctypes.data_as(_INT64_P),
        )
        if status != 0:
            raise KernelBackendError(
                f"native sampler {self.path} rejected the sampling plan "
                f"(status {status})"
            )


_INT64_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

_loaded: Dict[Path, NativeKernel] = {}


def load_native() -> NativeKernel:
    """Build (if needed) and load the native kernel, memoized per artifact."""
    path = build_native()
    if path not in _loaded:
        _loaded[path] = NativeKernel(path)
    return _loaded[path]


def requested_mode() -> str:
    """The ``REPRO_KERNEL_BACKEND`` mode, validated (default ``auto``)."""
    mode = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise KernelBackendError(
            f"{BACKEND_ENV} must be one of {'/'.join(_MODES)}, got {mode!r}"
        )
    return mode


def resolve(mode: Optional[str] = None) -> Tuple[str, Optional[NativeKernel]]:
    """Resolve a mode to ``('native', kernel)`` or ``('numpy', None)``.

    ``auto`` degrades to NumPy silently; ``native`` propagates the
    :class:`KernelBackendError` naming what is missing.
    """
    if mode is None:
        mode = requested_mode()
    if mode == "numpy":
        return "numpy", None
    if mode == "native":
        return "native", load_native()
    try:
        return "native", load_native()
    except KernelBackendError:
        return "numpy", None


#: Backend selected once at import; :mod:`repro.core.score_kernels` reads
#: these for every call that does not pass an explicit ``backend=``.
SELECTED_BACKEND, NATIVE_KERNEL = resolve()
