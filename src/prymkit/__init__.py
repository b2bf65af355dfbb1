"""prymkit: exact-rational verification of a pencil of bielliptic curves,
their Kummer-surface elliptic fibrations, and the associated genus-2 data.

The package root loads nothing: import names from the submodules, e.g.
`from prymkit.upoly import UPoly` or `from prymkit.genus2 import igusa_clebsch`."""

__version__ = "0.1.0"
