"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(n)`` makes the fork pool see n usable CPUs for one test."""

    def set_to(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return set_to
