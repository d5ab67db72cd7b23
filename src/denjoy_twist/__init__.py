"""Twist map of the annulus with an exactly invariant Denjoy-type graph.

The package builds, at finite truncation, a circle homeomorphism whose
derivative jumps along one wandering orbit, embeds it as the projected
dynamics on an invariant graph of an explicit symplectic twist map, and
verifies the construction's identities and estimates numerically.
"""

from .profiles import (
    CalibrationError,
    OneSidedLimitRequired,
    PlateauProfile,
    ProfileSet,
    calibrate_profiles,
    profile_eval,
    smooth_step,
)
from .sequences import (
    ConstructionError,
    GapSequences,
    SeqParams,
    build_sequences,
    verify_sequence_estimates,
)
from .layout import GapTable, SemiConjugacy, build_gap_table
from .circle_map import (
    CircleHomeo,
    RigidRotation,
    build_circle_homeo,
    rotation_number_estimate,
)
from .twist_map import (
    TwistSystem,
    build_twist_system,
    manifold_segment,
)

__version__ = "0.1.0"
