"""Fixtures shared by the test files."""

from __future__ import annotations

import pytest

import bfly.engine
import bfly.parallel


@pytest.fixture
def no_kept(monkeypatch):
    """The process's one kept set-up (engine._kept) emptied for the test and
    the process's own put back after, so that the test starts cold whatever
    ran before it and leaves the slot as it found it."""
    monkeypatch.setattr(bfly.engine, "_kept", None)


@pytest.fixture
def reduce_scatter_rows(monkeypatch):
    """A list that gets a row "level,rank,k,entries" for every rank at each
    simulated reduce-scatter (parallel.reduce_scatter) from here on, ranks
    in order: the stage's level, read off the level shape the ranks' costs
    hold, the k bits of its team of 2^k and the entries each rank sends."""
    rows = []
    charge = bfly.parallel.reduce_scatter

    def spy(team, size, costs):
        entries = charge(team, size, costs)
        level, k = costs.shape[0].bit_length() - 1, team.bit_length() - 1
        rows.extend(f"{level},{rank},{k},{entries}" for rank in range(len(costs.flops)))
        return entries

    monkeypatch.setattr(bfly.parallel, "reduce_scatter", spy)
    return rows
