"""Shared fixtures."""

import pytest

from gup_mirror import amplitude


@pytest.fixture
def quad_above_gate(monkeypatch):
    """amplitude.quad and amplitude.trapezoid returning their true values
    with an error estimate of 1, so every oracle amplitude lands above the
    convergence gate."""
    for name in ("quad", "trapezoid"):
        original = getattr(amplitude, name)

        def loose(*args, original=original, **kwargs):
            return original(*args, **kwargs)[0], 1.0

        monkeypatch.setattr(amplitude, name, loose)
