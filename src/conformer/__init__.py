"""Conditional spatiotemporal transformer for incident-aware traffic
forecasting, with a self-contained autodiff substrate."""

__version__ = "0.1.0"
