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
    """Simplex pivot magnitude fell below the breakdown threshold."""


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
