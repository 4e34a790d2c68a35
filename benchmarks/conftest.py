"""Shared fixtures for the benchmark files."""

from __future__ import annotations

import pytest

from repro.core import _native


@pytest.fixture
def python_loops():
    """``python_loops(factory)`` wraps an engine factory so that the engine
    it builds runs the Python loops, as on a machine without a C compiler:
    :func:`repro.core._native.load_library` reports no library while it
    builds."""

    def wrap(factory):
        def build(*args, **kwargs):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_native, "load_library", lambda: None)
                return factory(*args, **kwargs)

        return build

    return wrap
