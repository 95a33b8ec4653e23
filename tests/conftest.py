"""Shared fixtures: small deterministic tables used across the suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# The counting and scoring oracles in ``tests/core/core_reference.py`` are
# imported by module name from every test directory.
sys.path.insert(0, str(Path(__file__).resolve().parent / "core"))

from repro.core import kernel_backend
from repro.data.attribute import Attribute, AttributeKind
from repro.data.table import Table
from repro.data.taxonomy import TaxonomyTree


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run a test on each side of the one kernel switch.

    The F kernel, the sampler and the CSV codec read
    ``kernel_backend.NATIVE_KERNEL`` on every call, so pinning a side is
    setting it: ``None`` for the NumPy (and ``csv`` module) paths, the
    loaded kernel for the native ones.  The native side skips when there
    is no C toolchain.
    """
    kernel = None
    if request.param == "native":
        try:
            kernel = kernel_backend.load_native()
        except kernel_backend.KernelBackendError:
            pytest.skip("no C toolchain for the native kernels")
    monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", kernel)
    return request.param


@pytest.fixture
def binary_table(rng):
    """Four correlated binary attributes, n = 2000."""
    n = 2000
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.85, a, 1 - a)  # strongly follows a
    c = rng.integers(0, 2, n)
    d = np.where(rng.random(n) < 0.7, b ^ c, rng.integers(0, 2, n))
    attrs = [Attribute.binary(name) for name in "abcd"]
    return Table(attrs, {"a": a, "b": b, "c": c, "d": d})


@pytest.fixture
def mixed_table(rng):
    """Binary + categorical + taxonomied attributes, n = 1500."""
    n = 1500
    color_tax = TaxonomyTree.from_groups(
        ("red", "orange", "blue", "cyan"),
        (("warm", ("red", "orange")), ("cold", ("blue", "cyan"))),
    )
    color = rng.integers(0, 4, n)
    flag = (color < 2).astype(np.int64)
    flag = np.where(rng.random(n) < 0.9, flag, 1 - flag)
    size = rng.integers(0, 3, n)
    attrs = [
        Attribute(
            "color",
            ("red", "orange", "blue", "cyan"),
            AttributeKind.CATEGORICAL,
            taxonomy=color_tax,
        ),
        Attribute.binary("warm_flag"),
        Attribute("size", ("S", "M", "L")),
    ]
    return Table(attrs, {"color": color, "warm_flag": flag, "size": size})
