"""The compiled-kernel tier: selection, caching, fallback, end-to-end parity.

Three contracts:

* **Selection** — ``REPRO_KERNEL_BACKEND`` picks the mode; ``auto``
  degrades to NumPy *silently* when no toolchain exists, ``native``
  raises a :class:`~repro.core.kernel_backend.KernelBackendError` naming
  what is missing, ``numpy`` never touches the compiler.
* **Caching** — artifacts are keyed on ABI version + source digest and
  honor ``REPRO_KERNEL_CACHE``.
* **End-to-end invisibility** — a full ``PrivBayes.fit_sample`` release
  produces the *identical* network and synthetic-data fingerprint under
  both backends (fresh interpreter per backend, so the import-time
  selection is what is actually exercised).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernel_backend

NATIVE_AVAILABLE = True
try:
    kernel_backend.load_native()
except kernel_backend.KernelBackendError:
    NATIVE_AVAILABLE = False

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="no C toolchain for native kernel"
)

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(code, **env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


class TestSelection:
    def test_requested_mode_default_and_validation(self, monkeypatch):
        monkeypatch.delenv(kernel_backend.BACKEND_ENV, raising=False)
        assert kernel_backend.requested_mode() == "auto"
        monkeypatch.setenv(kernel_backend.BACKEND_ENV, "NumPy")
        assert kernel_backend.requested_mode() == "numpy"
        monkeypatch.setenv(kernel_backend.BACKEND_ENV, "cython")
        with pytest.raises(kernel_backend.KernelBackendError, match="cython"):
            kernel_backend.requested_mode()

    def test_numpy_mode_never_builds(self, monkeypatch):
        def exploding_build(force=False):  # pragma: no cover - must not run
            raise AssertionError("numpy mode must not touch the compiler")

        monkeypatch.setattr(kernel_backend, "build_native", exploding_build)
        assert kernel_backend.resolve("numpy") == ("numpy", None)

    def test_auto_falls_back_silently_without_toolchain(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(kernel_backend, "compiler", lambda: None)
        monkeypatch.setenv(kernel_backend.CACHE_ENV, str(tmp_path / "empty"))
        selected, kernel = kernel_backend.resolve("auto")
        assert selected == "numpy"
        assert kernel is None

    def test_native_mode_names_missing_toolchain(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernel_backend, "compiler", lambda: None)
        monkeypatch.setenv(kernel_backend.CACHE_ENV, str(tmp_path / "empty"))
        with pytest.raises(
            kernel_backend.KernelBackendError, match="no C toolchain"
        ):
            kernel_backend.resolve("native")

    def test_no_toolchain_fallback_still_scores(self, monkeypatch, tmp_path):
        """Under auto-without-compiler the F kernel keeps working (NumPy)."""
        from repro.core.score_kernels import score_F_batch, score_F_dp

        monkeypatch.setattr(kernel_backend, "compiler", lambda: None)
        monkeypatch.setenv(kernel_backend.CACHE_ENV, str(tmp_path / "empty"))
        selected, kernel = kernel_backend.resolve("auto")
        assert kernel is None
        monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", kernel)
        monkeypatch.setattr(kernel_backend, "SELECTED_BACKEND", selected)
        rng = np.random.default_rng(11)
        counts = rng.multinomial(300, np.ones(30) / 30, size=4)
        got = score_F_batch(counts, 300)
        ref = np.array([score_F_dp(row, 300) for row in counts])
        assert np.array_equal(got, ref)


class TestArtifactCache:
    def test_cache_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel_backend.CACHE_ENV, str(tmp_path))
        assert kernel_backend.cache_dir() == tmp_path
        assert kernel_backend.artifact_path().parent == tmp_path

    def test_artifact_name_keys_abi_and_source(self):
        name = kernel_backend.artifact_path().name
        assert name.startswith(f"scoref-abi{kernel_backend.ABI_VERSION}-")
        assert name.endswith(".so")

    @needs_native
    def test_build_into_fresh_cache_and_load(self, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel_backend.CACHE_ENV, str(tmp_path))
        built = kernel_backend.build_native()
        assert built.exists() and built.parent == tmp_path
        kernel = kernel_backend.NativeKernel(built)
        out = kernel.score_f_batch(
            np.array([[3, 2]], dtype=np.int64),
            np.array([[1, 4]], dtype=np.int64),
            10,
        )
        assert out.shape == (1,)


class TestDiagnosticCLI:
    def test_cli_reports_and_exits_zero(self):
        result = _run("import repro.kernels, sys; sys.exit(repro.kernels.main())")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "selected backend" in result.stdout
        assert "bit-identical" in result.stdout
        assert "sampler check" in result.stdout

    @needs_native
    def test_cli_native_mode(self):
        result = _run(
            "import repro.kernels, sys; sys.exit(repro.kernels.main())",
            REPRO_KERNEL_BACKEND="native",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "selected backend : native" in result.stdout
        assert "sampler check    : native == numpy" in result.stdout


_FINGERPRINT_CODE = """
import zlib
import numpy as np
from repro.core.privbayes import PrivBayes
from repro.core.scoring import ScoringCache
from repro.datasets import load_dataset

table = load_dataset("nltcs", n=600, seed=0)
model = PrivBayes(epsilon=1.6, beta=0.3, theta=4.0, score="F", mode="binary")
rng = np.random.default_rng(97)
fitted = model.fit(table, rng, scoring_cache=ScoringCache())
synthetic = fitted.sample(rng=rng)
rows = np.stack(
    [synthetic.column(a) for a in synthetic.attribute_names]
)
print(fitted.network.stable_fingerprint())
print(zlib.crc32(np.ascontiguousarray(rows).tobytes()))
"""


@needs_native
class TestEndToEndParity:
    def test_fit_sample_fingerprint_identical_across_backends(self):
        """A whole release is bit-identical under numpy and native backends.

        Fresh interpreter per backend so the import-time selection (not a
        per-call override) is what is tested.
        """
        runs = {}
        for mode in ("numpy", "native"):
            result = _run(_FINGERPRINT_CODE, REPRO_KERNEL_BACKEND=mode)
            assert result.returncode == 0, result.stderr
            runs[mode] = result.stdout
        assert runs["numpy"] == runs["native"]
        assert runs["numpy"].strip()
