"""Finite-size laboratory for overlap-coupled mean-field spin systems."""

__version__ = "0.1.0"
