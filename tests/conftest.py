"""Shared fixtures."""

import pytest

from gup_mirror import amplitude


@pytest.fixture
def quad_above_gate(monkeypatch):
    """amplitude.quad returning its true value with an error estimate of 1,
    so every oracle amplitude lands above the convergence gate."""
    original = amplitude.quad

    def loose(*args, **kwargs):
        return original(*args, **kwargs)[0], 1.0

    monkeypatch.setattr(amplitude, "quad", loose)
