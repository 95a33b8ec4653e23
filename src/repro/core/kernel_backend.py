"""Compiled-kernel tier: backend selection and the on-demand C build.

Four hot loops have an optional *native* backend in one small C source
(``core/_native/scoref.c`` — a flat int64/double/byte array ABI,
deliberately free of ``Python.h``) compiled on demand with the system C
compiler and driven through :mod:`ctypes`:

* the batched ``F`` score (:func:`repro.core.score_kernels.score_F_batch`);
* ancestral sampling (:mod:`repro.core.sampler`), one call per draw;
* the CSV tokenizer under :func:`repro.data.io.read_csv` and both
  :class:`repro.data.io.CsvSource` passes;
* the CSV row assembler under :func:`repro.data.io.write_csv`.

This module owns everything about that tier:

* **Selection** happens once, at import, via :data:`SELECTED_BACKEND` /
  :data:`NATIVE_KERNEL`.  The ``REPRO_KERNEL_BACKEND`` environment
  variable picks the mode, for every kernel at once:

  - ``auto`` (default) — try to build/load the native kernel; fall back
    to the pure-NumPy paths silently if there is no toolchain (or the
    build fails).  Pure-Python environments keep working with zero
    behavior change: both backends are bit-identical.
  - ``numpy`` — never touch the compiler; the NumPy (and ``csv``
    module) paths only.
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
frontier bounded by the fractional relaxation against an exact integer
incumbent (or, when the majority assignment is the unique optimum, as
that assignment's shortfall), and evaluates the final shortfall with the
identical float64 expression, so every score is
bit-equal.  The native sampler evaluates the same ``cdf < u`` predicate
on the same doubles as the NumPy inversion, so every code is equal.  The
tokenizer transcribes ``csv.reader``'s states, so every field is equal,
and the assembler joins the labels ``csv.writer`` quoted, so every byte
is.  See ``core/_native/README.md`` for the arguments, and
``tests/core/test_score_kernels.py``, ``tests/core/test_frontier_bound.py``,
``tests/core/test_native_sampler.py`` and
``tests/data/test_csv_tokenizer.py`` for the enforcement.
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
ABI_VERSION = 3

#: ``repro_csv_tokenize`` statuses (0 is ok, 2 bad arguments).
CSV_FULL, CSV_RAGGED, CSV_FIELD_LIMIT, CSV_NOT_UTF8 = 1, 3, 4, 5

#: The tokenizer's state vector: byte position, rows in the id block,
#: entries used, entries indexed in the hash slots, arena bytes used, the
#: buffer a ``CSV_FULL`` names, the offset a ``CSV_NOT_UTF8`` rejects.
(
    CSV_POS, CSV_ROWS, CSV_USED, CSV_INDEXED, CSV_ARENA, CSV_WHICH, CSV_AT,
    CSV_STATE_FIELDS,
) = range(8)

#: The buffers a ``CSV_FULL`` status names.
CSV_IDS, CSV_SLOTS, CSV_ENTRIES, CSV_ARENA_BYTES = range(4)

#: One distinct-field entry holds CSV_ENTRY_FIELDS int64s: hash, arena
#: offset (field ENTRY_OFFSET), byte length, column, first-appearance id
#: in the column.
ENTRY_OFFSET, CSV_ENTRY_FIELDS = 1, 5

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
    """ctypes handle to one compiled kernel artifact (F score, sampler,
    CSV tokenizer and row assembler)."""

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
        tokenize = library.repro_csv_tokenize
        tokenize.restype = ctypes.c_int
        tokenize.argtypes = [
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int32),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
        ]
        self._csv_tokenize = tokenize
        assemble = library.repro_csv_assemble
        assemble.restype = ctypes.c_int
        assemble.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_uint8),
            ctypes.c_int64,
        ]
        self._csv_assemble = assemble

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


    def csv_tokenize(
        self,
        data: np.ndarray,
        nbytes: int,
        final: bool,
        delimiter: int,
        width: int,
        limit: int,
        slots: np.ndarray,
        entries: np.ndarray,
        arena: np.ndarray,
        counts: np.ndarray,
        ids: np.ndarray,
        state: np.ndarray,
    ) -> int:
        """Tokenize the complete records of ``data[state[CSV_POS]:nbytes]``
        and return the status; every buffer is the caller's.

        ``width`` is the fields per record, or -1 for the header record.
        ``slots`` (a power of two, -1 when empty), ``entries``
        (``(capacity, CSV_ENTRY_FIELDS)``), ``arena``, ``counts``
        (``width``) and ``ids`` (``(width, stride)`` int32) are laid out
        in ``core/_native/README.md``; ``state`` is updated in place.
        Layouts are checked here, so every index the C side forms is in
        range; a call it rejects raises :class:`KernelBackendError`.
        """
        for array, dtype in (
            (data, np.uint8),
            (slots, np.int64),
            (entries, np.int64),
            (arena, np.uint8),
            (counts, np.int64),
            (ids, np.int32),
            (state, np.int64),
        ):
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(
                    f"tokenizer buffers must be C-contiguous {dtype.__name__}"
                )
        if (
            not 0 <= nbytes <= data.size
            or entries.ndim != 2
            or entries.shape[1] != CSV_ENTRY_FIELDS
            or ids.ndim != 2
            or ids.shape[0] < width
            or counts.size < width
            or state.size != CSV_STATE_FIELDS
        ):
            raise ValueError("tokenizer buffers do not fit the call")
        status = self._csv_tokenize(
            data.ctypes.data_as(_UINT8_P),
            nbytes,
            int(final),
            delimiter,
            width,
            limit,
            slots.ctypes.data_as(_INT64_P),
            slots.size,
            entries.ctypes.data_as(_INT64_P),
            entries.shape[0],
            arena.ctypes.data_as(_UINT8_P),
            arena.size,
            counts.ctypes.data_as(_INT64_P),
            ids.ctypes.data_as(_INT32_P),
            ids.shape[1],
            state.ctypes.data_as(_INT64_P),
        )
        if status == 2:
            raise KernelBackendError(
                f"native CSV tokenizer {self.path} rejected its arguments"
            )
        return status

    def csv_assemble(
        self,
        codes: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        blob: np.ndarray,
        delimiter: np.ndarray,
        terminator: np.ndarray,
        out: np.ndarray,
    ) -> bool:
        """Join the rows of the ``(d, n)`` int64 ``codes`` into ``out``.

        Attribute ``j``'s label ``c`` is ``blob[offsets[k]:offsets[k+1]]``
        with ``k = counts[:j].sum() + c``; fields are joined by the
        ``delimiter`` bytes, rows ended by the ``terminator`` bytes, and
        ``out`` must be exactly the rows' length.  Returns ``False``,
        having written nothing, when a code is outside its attribute's
        labels; any other rejected call raises
        :class:`KernelBackendError`.
        """
        for array, dtype in (
            (codes, np.int64),
            (counts, np.int64),
            (offsets, np.int64),
            (blob, np.uint8),
            (delimiter, np.uint8),
            (terminator, np.uint8),
            (out, np.uint8),
        ):
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(
                    f"assembler buffers must be C-contiguous {dtype.__name__}"
                )
        if (
            codes.ndim != 2
            or counts.shape != (codes.shape[0],)
            or offsets.shape != (int(counts.sum()) + 1,)
        ):
            raise ValueError("assembler buffers do not fit the codes")
        d, n = codes.shape
        status = self._csv_assemble(
            codes.ctypes.data_as(_INT64_P),
            d,
            n,
            counts.ctypes.data_as(_INT64_P),
            offsets.ctypes.data_as(_INT64_P),
            blob.ctypes.data_as(_UINT8_P),
            blob.size,
            delimiter.ctypes.data_as(_UINT8_P),
            delimiter.size,
            terminator.ctypes.data_as(_UINT8_P),
            terminator.size,
            out.ctypes.data_as(_UINT8_P),
            out.size,
        )
        if status not in (0, 3):
            raise KernelBackendError(
                f"native CSV assembler {self.path} rejected its arguments "
                f"(status {status})"
            )
        return status == 0


_INT64_P = ctypes.POINTER(ctypes.c_int64)
_INT32_P = ctypes.POINTER(ctypes.c_int32)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)
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


#: Backend selected once at import.  The F kernel, the sampler and the CSV
#: codec read ``NATIVE_KERNEL`` on every call, so it is the one switch.
SELECTED_BACKEND, NATIVE_KERNEL = resolve()
