"""Kinematic-rectified speculative decoding simulator for 7-DoF action tokens."""

__version__ = "0.1.0"
