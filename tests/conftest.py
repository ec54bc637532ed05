from __future__ import annotations

import multiprocessing.context
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The `processes` of every pool started, with `cpus(n)` setting the
    number of CPUs available to the process."""
    started = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def spy(self, processes=None, *args, **kwargs):
        started.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    return started, cpus
