"""Exception types shared across the package."""


class DrotreeError(Exception):
    """Base class for all package errors."""


class ParseError(DrotreeError):
    """Instance file is not syntactically valid."""


class ValidationError(DrotreeError):
    """Instance parsed but violates a structural rule."""


class UnknownNode(DrotreeError):
    """A node id does not exist in the tree."""


class StageOutOfRange(DrotreeError):
    """Requested stage lies outside [1, T]."""


class NumericalBreakdown(DrotreeError):
    """A solve cannot be trusted: a simplex pivot fell below its
    breakdown threshold, a ratio test's minimum or an optimum's objective
    was not finite, or the simplex hit its iteration limit; a solver's
    own policy failed its check; a Benders lower bound exceeded its upper
    bound (the theta floor was not a valid bound); or an oracle's
    restricted optimum exceeded its baseline by more than eff_tolerance."""


class MissingXiField(DrotreeError):
    """A stage template references a field absent from a node's xi."""


class InstanceInfeasible(DrotreeError):
    """The full problem has no feasible policy."""


class InstanceUnbounded(DrotreeError):
    """The full problem is unbounded below."""


class InfeasiblePolicy(DrotreeError):
    """A supplied policy violates some node's constraints."""


class NotSolved(DrotreeError):
    """An operation needed a solve outcome that is missing or stale."""


class InvalidRemoval(DrotreeError):
    """A removal set is empty, non-homogeneous, or targets unknown ids."""


class ParamOutOfRange(DrotreeError):
    """A generator parameter lies outside its supported range."""
