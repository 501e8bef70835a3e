"""Measurement-graph construction, capacity modeling and joint
routing/airtime/power optimization for wireless access/backhaul trees."""

__version__ = "0.1.0"
