"""Twist map of the annulus with an exactly invariant Denjoy-type graph.

The package builds, at finite truncation, a circle homeomorphism whose
derivative jumps along one wandering orbit, embeds it as the projected
dynamics on an invariant graph of an explicit symplectic twist map, and
verifies the construction's identities and estimates numerically.
"""
