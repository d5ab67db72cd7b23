import pytest

from denjoy_twist.circle_map import build_circle_homeo
from denjoy_twist.layout import build_gap_table
from denjoy_twist.profiles import calibrate_profiles
from denjoy_twist.sequences import SeqParams, build_sequences
from denjoy_twist.twist_map import build_twist_system


class Built:
    """A fully built system bundle shared by tests (read-only)."""

    def __init__(self, params, profiles, swap_gamma=False):
        self.params = params
        self.profiles = profiles
        self.seqs = build_sequences(params)
        self.table = build_gap_table(self.seqs)
        self.g = build_circle_homeo(self.table, self.seqs, profiles,
                                    swap_gamma=swap_gamma)
        self.system = build_twist_system(self.g, self.table, self.seqs)


@pytest.fixture(scope="session")
def profiles():
    return calibrate_profiles(1e-13)


@pytest.fixture(scope="session")
def small(profiles):
    """Reduced truncation for unit tests."""
    return Built(SeqParams(truncation_M=64), profiles)


@pytest.fixture(scope="session")
def desk(profiles):
    """The default desk-scale configuration (acceptance scale)."""
    return Built(SeqParams(), profiles)


@pytest.fixture(scope="session")
def swapped(profiles):
    """Profiles exchanged: the instability zone sits above the curve."""
    return Built(SeqParams(truncation_M=32), profiles, swap_gamma=True)
