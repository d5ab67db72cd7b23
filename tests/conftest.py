import os
import tracemalloc

import pytest

from denjoy_twist.cli import build_full_system
from denjoy_twist.profiles import calibrate_profiles
from denjoy_twist.sequences import SeqParams


class Built:
    """A fully built system bundle shared by tests (read-only), built by the
    CLI's own build path."""

    def __init__(self, params, profiles, swap_gamma=False):
        self.params = params
        self.profiles = profiles
        self.seqs, self.table, self.g, self.system = build_full_system(
            params, profiles, swap_gamma)


@pytest.fixture(scope="session")
def profiles():
    return calibrate_profiles(1e-13)


@pytest.fixture(scope="session")
def small(profiles):
    """Reduced truncation for unit tests."""
    return Built(SeqParams(truncation_M=64), profiles)


@pytest.fixture(scope="session")
def m16(profiles):
    """The smallest truncation the CLI tests run."""
    return Built(SeqParams(truncation_M=16), profiles)


@pytest.fixture(scope="session")
def desk(profiles):
    """The default desk-scale configuration (acceptance scale)."""
    return Built(SeqParams(), profiles)


@pytest.fixture(scope="session")
def swapped(profiles):
    """Profiles exchanged: the instability zone sits above the curve."""
    return Built(SeqParams(truncation_M=32), profiles, swap_gamma=True)


@pytest.fixture(scope="session")
def bench_build(profiles):
    """The benchmark's build size, M=4000."""
    return Built(SeqParams(truncation_M=4000), profiles)


@pytest.fixture
def traced_peak():
    """The tracemalloc peak, in bytes, of one call f(*args)."""
    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def traced_retained():
    """One call f(*args): its result and the tracemalloc bytes still held
    once it has returned, which is what the result keeps alive."""
    def retained(f, *args):
        tracemalloc.start()
        try:
            result = f(*args)
            return result, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return retained


@pytest.fixture
def one_cpu(monkeypatch):
    """The process may run on one CPU only, so fork_map forks nothing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
