"""Exception types shared across modules.

Hypothesis violations (zeros/poles sitting where the Jensen formula's
hypotheses forbid them) form their own hierarchy so the CLI can map
them to a dedicated exit code.  Every class here is raised in the
package.  ``InvalidUnitError``, ``NormalNotRealError`` and
``InputFormatError``, defined where they are raised, derive from
``SliceRegError`` too: the CLI maps every named failure to one exit code.
"""

from __future__ import annotations


class SliceRegError(Exception):
    """Base class for package-specific failures."""


class ZeroPolynomialError(SliceRegError):
    """Operation undefined for the identically-zero polynomial."""


class ClassificationInconsistencyError(SliceRegError):
    """Zero/root bookkeeping failed a consistency check (tolerance issue)."""


class ZeroDenominatorError(SliceRegError):
    """Semiregular function with identically-zero denominator."""


class NonFiniteIntegrandError(SliceRegError):
    """Quadrature node hit a non-finite integrand value."""

    def __init__(self, msg: str, node=None):
        super().__init__(msg)
        self.node = node


class HypothesisViolationError(SliceRegError):
    """A hypothesis of the Jensen formula fails for the given input."""

    hypothesis = "unspecified"


class ZeroOnBoundaryError(HypothesisViolationError):
    hypothesis = "zero on the integration sphere"


class PoleOnBoundaryError(HypothesisViolationError):
    hypothesis = "pole on the integration sphere"


class ZeroAtOriginError(HypothesisViolationError):
    hypothesis = "zero at the origin"


class PoleAtOriginError(HypothesisViolationError):
    hypothesis = "pole at the origin"
