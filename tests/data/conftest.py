"""Fixtures for the CSV tests: one run per CSV backend."""

import pytest

from repro.core import kernel_backend


@pytest.fixture(params=["native", "numpy"])
def csv_backend(request, monkeypatch):
    """Run a test with the native tokenizer and assembler (skipped when
    the kernel is not loaded) and with the ``csv`` module path.

    ``repro.data.io`` reads ``kernel_backend.NATIVE_KERNEL`` at every
    call, so the NumPy run only has to unset it.
    """
    if request.param == "numpy":
        monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", None)
    elif kernel_backend.NATIVE_KERNEL is None:
        pytest.skip("the native kernel is not loaded")
    return request.param
