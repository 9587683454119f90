"""Exact symbolic engine for CSM and Schubert class multiplication in the
type-A flag variety, with Bruhat-graph path rules and rim hook counting."""

__all__ = ["__version__"]

__version__ = "0.1.0"
