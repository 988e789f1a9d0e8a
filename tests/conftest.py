"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest

import bfly.engine


@pytest.fixture
def no_kept(monkeypatch):
    """The process's one kept set-up (engine._kept) emptied for the test and
    the process's own put back after, so that the test starts cold whatever
    ran before it and leaves the slot as it found it."""
    monkeypatch.setattr(bfly.engine, "_kept", None)
