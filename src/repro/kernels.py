"""Kernel-backend diagnostic CLI: ``python -m repro.kernels``.

Prints which kernel backend this environment selected
(:mod:`repro.core.kernel_backend`), whether a C toolchain is available,
and where the compiled artifact lives — then runs a ~1-second self-check
of both native kernels and asserts they agree with NumPy bit-for-bit.
Exit status 0 means the reported backend is healthy; 1 means a check
failed (or a requested backend cannot be provided).

Typical uses::

    python -m repro.kernels                         # what am I running?
    REPRO_KERNEL_BACKEND=native python -m repro.kernels   # require the C tier

The F check re-scores a seeded randomized grid with the native kernel and
the pure-NumPy kernel when both are available; in a NumPy-only
environment it falls back to checking the batched kernel against the
per-candidate reference DP, so the exit code is meaningful everywhere.
The sampler check draws one block over a fixed small network with a
generalized parent natively and with the NumPy loop, and compares the
codes.  The CSV check tokenizes a fixed tricky file natively and with
``csv.reader``, and joins a fixed table's rows natively and as strings,
and compares the rows and the bytes.  Without the native kernel neither
has anything to compare with.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.core import kernel_backend, sampler
from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.core.score_kernels import _score_F, score_F_dp, validate_F_counts
from repro.data import io as data_io
from repro.data.attribute import Attribute
from repro.data.taxonomy import TaxonomyTree

#: Self-check shape: ~1 second of work on a small machine, while still
#: exercising the blocked-DP regime (m > enum threshold) where the native
#: kernel actually runs.
_CHECK_SEED = 20140622  # SIGMOD'14 flavor; any fixed seed works
_CHECK_N = 4000
_CHECK_CELLS = 20
_CHECK_COUNT = 400

#: Sampler check: tuples per block over the fixed network.
_SAMPLE_N = 4096


def _check_grid() -> np.ndarray:
    """Seeded randomized contingency batch covering the DP regime."""
    rng = np.random.default_rng(_CHECK_SEED)
    cells = 2 * _CHECK_CELLS
    probs = rng.dirichlet(np.ones(cells), size=_CHECK_COUNT)
    counts = np.vstack(
        [rng.multinomial(_CHECK_N, p) for p in probs]
    ).astype(np.int64)
    # Sprinkle zero-heavy rows: zero out cells and dump the mass into the
    # first cell so every candidate still sums to n.
    zero = rng.random(counts.shape) < 0.3
    zero[:, 0] = False
    removed = np.where(zero, counts, 0).sum(axis=1)
    counts[zero] = 0
    counts[:, 0] += removed
    return counts


def self_check() -> str:
    """Run the parity self-check; return a description of what was compared.

    Raises ``AssertionError`` (bit-mismatch) or
    :class:`~repro.core.kernel_backend.KernelBackendError` on failure.
    """
    counts = _check_grid()
    matrices = validate_F_counts(counts, _CHECK_N)
    reference = _score_F(matrices, _CHECK_N, None)
    if kernel_backend.NATIVE_KERNEL is not None:
        native = _score_F(matrices, _CHECK_N, kernel_backend.NATIVE_KERNEL)
        if not np.array_equal(reference, native):
            raise AssertionError(
                "native and numpy kernels disagree on the self-check grid"
            )
        return (
            f"native == numpy on {_CHECK_COUNT} candidates "
            f"(m={_CHECK_CELLS}, n={_CHECK_N}): bit-identical"
        )
    sample = slice(None, None, max(1, _CHECK_COUNT // 50))
    dp = np.array([score_F_dp(row, _CHECK_N) for row in counts[sample]])
    if not np.array_equal(dp, reference[sample]):
        raise AssertionError(
            "numpy kernel and reference DP disagree on the self-check grid"
        )
    return (
        f"numpy == reference DP on {dp.size} candidates "
        f"(m={_CHECK_CELLS}, n={_CHECK_N}): bit-identical"
    )


def _sampler_network():
    """Fixed network: p (16 bins) -> q | p at level 2 -> r | (p, q)."""
    labels = tuple(str(value) for value in range(16))
    attrs = [
        Attribute("p", labels, taxonomy=TaxonomyTree.balanced_binary(labels)),
        Attribute("q", ("x", "y", "z")),
        Attribute.binary("r"),
    ]
    network = BayesianNetwork(
        [
            APPair.make("p", []),
            APPair.make("q", [("p", 2)]),
            APPair.make("r", ["p", "q"]),
        ]
    )
    rng = np.random.default_rng(_CHECK_SEED)
    conditionals = (
        ConditionalTable("p", (), (), 16, rng.dirichlet(np.ones(16), 1)),
        ConditionalTable(
            "q", (("p", 2),), (4,), 3, rng.dirichlet(np.ones(3), 4)
        ),
        ConditionalTable(
            "r", (("p", 0), ("q", 0)), (16, 3), 2,
            rng.dirichlet(np.ones(2), 48),
        ),
    )
    return NoisyModel(network, conditionals), attrs


def sampler_check() -> str:
    """Compare the native sampler's codes with the NumPy loop's.

    Raises ``AssertionError`` on a mismatch, or
    :class:`~repro.core.kernel_backend.KernelBackendError` when the
    native sampler rejects the plan.
    """
    kernel = kernel_backend.NATIVE_KERNEL
    if kernel is None:
        return "numpy only: no native sampler to compare with"
    model, attrs = _sampler_network()
    plan = sampler._sampling_plan(model, sampler._check_schema(model, attrs))
    uniforms = np.random.default_rng(_CHECK_SEED).random(
        (len(attrs), _SAMPLE_N)
    )
    reference = uniforms.copy()
    sampler._numpy_block(plan, reference)
    native = uniforms.copy()
    kernel.sample_block(plan.attrs, plan.parents, plan.maps, plan.cdfs, native)
    if not np.array_equal(native.view(np.int64), reference.view(np.int64)):
        raise AssertionError(
            "native and numpy samplers disagree on the fixed network"
        )
    return (
        f"native == numpy on {_SAMPLE_N} tuples x {len(attrs)} attributes "
        "(one generalized parent): bit-identical"
    )


#: CSV check input: doubled quotes, CR LF inside quotes, a blank line, a
#: lone CR, non-ASCII text, a NUL, text after a closing quote, a quote
#: inside an unquoted field and a quote left open at EOF.
_CSV_TEXT = (
    'name,"no""te",3\r\n"a ""b""","x\r\ny",São\r\n\r\n'
    'Zürich,q\0r,"s"t\rw"x,"u,v",\n\né,  ," end'
)


def csv_check() -> str:
    """Compare the native tokenizer's rows with ``csv.reader``'s, and the
    native assembler's bytes with the string join's.

    Raises ``AssertionError`` on a mismatch.
    """
    kernel = kernel_backend.NATIVE_KERNEL
    if kernel is None:
        return "numpy only: no native CSV codec to compare with"
    reference = list(
        filter(None, csv.reader(io.StringIO(_CSV_TEXT, newline="")))
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "check.csv"
        path.write_bytes(_CSV_TEXT.encode())
        with data_io._CsvPass(path, ",") as parse:
            rows = [parse.header]
            for _, ids in parse.blocks():
                rows += [
                    [parse.fields[j][i] for j, i in enumerate(record)]
                    for record in ids.T.tolist()
                ]
    if rows != reference:
        raise AssertionError(
            f"native tokenizer read {rows!r}, csv.reader {reference!r}"
        )
    attrs = [
        Attribute(name, tuple(dict.fromkeys(values)))
        for name, values in zip(reference[0], zip(*reference))
    ]
    codes = np.random.default_rng(_CHECK_SEED).integers(0, 4, (3, 1000))
    chunk = {
        attr.name: column % attr.size for attr, column in zip(attrs, codes)
    }
    joined = data_io._RowWriter(attrs, ",", "\r\n", None)(chunk)
    assembled = data_io._RowWriter(attrs, ",", "\r\n", kernel)(chunk)
    if bytes(assembled) != joined:
        raise AssertionError("native assembler and string join disagree")
    return (
        f"native == csv module on {len(reference)} tricky records and "
        f"{len(joined)} written bytes: identical"
    )


def main(argv=None) -> int:
    print(f"requested mode   : {kernel_backend.requested_mode()} "
          f"(${kernel_backend.BACKEND_ENV})")
    print(f"selected backend : {kernel_backend.SELECTED_BACKEND}")
    cc = kernel_backend.compiler()
    print(f"compiler         : {cc or 'none found ($CC / cc)'}")
    print(f"cache directory  : {kernel_backend.cache_dir()}")
    artifact = kernel_backend.artifact_path()
    state = "present" if artifact.exists() else "not built"
    print(f"artifact         : {artifact} ({state})")
    status = 0
    checks = (
        ("self-check", self_check),
        ("sampler check", sampler_check),
        ("csv check", csv_check),
    )
    for label, check in checks:
        try:
            print(f"{label:<17}: {check()}")
        except (AssertionError, kernel_backend.KernelBackendError) as error:
            print(f"{label:<17}: FAILED — {error}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
