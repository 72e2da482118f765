"""Slice-regular quaternionic function arithmetic and numerical
verification of the four-dimensional Jensen formula, used through its
submodules; importing the package alone loads none of them."""

__version__ = "0.1.0"
