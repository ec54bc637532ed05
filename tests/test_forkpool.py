"""The one fork pool: job order, pool sizes, and errors raised in a child."""

from __future__ import annotations

import inspect
import multiprocessing
import os
import pickle

import pytest

import gridshock.errors as errors_module
from gridshock.errors import GridShockError, ParseError, ValidationError
from gridshock.forkpool import available_cpus, fork_map


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 6])
    def test_results_in_job_order(self, pool_sizes, cpus):
        started, set_cpus = pool_sizes
        set_cpus(cpus)
        offset = 100
        # a closure does not pickle: the children inherit it through fork
        results = fork_map(lambda job: (job + offset, os.getpid()), list(range(9)), available_cpus())
        assert [value for value, _ in results] == list(range(100, 109))
        # one process is this one: no pool is started
        assert (os.getpid() in {pid for _, pid in results}) == (cpus == 1)
        assert started == ([cpus] if cpus > 1 else [])
        assert not multiprocessing.active_children()

    def test_no_more_processes_than_jobs(self, pool_sizes):
        started, _ = pool_sizes
        assert fork_map(abs, [-1, -2], 6) == [1, 2]
        assert started == [2]

    def test_no_jobs_start_no_pool(self, pool_sizes):
        started, _ = pool_sizes
        assert fork_map(abs, [], 2) == []
        assert started == []

    @pytest.mark.parametrize("processes, jobs", [(1, [-1, -2, -3]), (6, [-1])])
    def test_one_process_starts_no_pool(self, pool_sizes, processes, jobs):
        started, _ = pool_sizes
        assert fork_map(lambda job: (abs(job), os.getpid()), jobs, processes) == [
            (abs(job), os.getpid()) for job in jobs
        ]
        assert started == []


def child_failure(job):
    if job == 2:
        raise ParseError(f"bad row in job {job}", line=17)
    return job


class TestErrorsThroughThePool:
    def test_parse_error_pickle_round_trip(self):
        error = ParseError("bad number", line=4)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ParseError
        assert str(copy) == str(error) == "line 4: bad number"
        assert copy.line == 4
        without = pickle.loads(pickle.dumps(ParseError("no line")))
        assert (str(without), without.line) == ("no line", None)
        named = pickle.loads(pickle.dumps(ParseError("bad number", 4, "current.csv")))
        assert (str(named), named.line, named.file) == ("current.csv line 4: bad number", 4, "current.csv")

    def test_every_package_error_pickles(self):
        classes = [
            cls
            for _, cls in inspect.getmembers(errors_module, inspect.isclass)
            if issubclass(cls, GridShockError)
        ]
        assert ValidationError in classes
        for cls in classes:
            copy = pickle.loads(pickle.dumps(cls("refused")))
            assert type(copy) is cls and str(copy) == "refused"

    def test_child_error_reaches_the_caller(self, pool_sizes):
        started, set_cpus = pool_sizes
        set_cpus(2)
        with pytest.raises(ParseError) as excinfo:
            fork_map(child_failure, [0, 1, 2, 3], available_cpus())
        assert str(excinfo.value) == "line 17: bad row in job 2"
        assert excinfo.value.line == 17
        assert started == [2]
        assert not multiprocessing.active_children()
