"""Exception hierarchy for the BP-NTT reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from runtime
simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """An NTT / modulus / layout parameter is invalid or unsupported."""


class CapacityError(ParameterError):
    """A workload does not fit the requested SRAM subarray geometry."""


class LayoutError(ReproError):
    """A data-layout operation referenced rows/tiles inconsistently."""


class IsaError(ReproError):
    """An ISA instruction is malformed or illegal for the subarray."""


class ExecutionError(ReproError):
    """The SRAM executor hit an illegal state while running a program."""


class BackendError(ParameterError):
    """An execution backend is unknown, already registered, or unusable.

    Subclasses :class:`ParameterError` because a bad backend name is a
    configuration mistake: callers that already guard pool/serve calls
    with ``except ParameterError`` keep working unchanged.
    """


class SchedulerError(ParameterError):
    """A serving scheduler is unknown, already registered, or misconfigured.

    Subclasses :class:`ParameterError` for the same reason
    :class:`BackendError` does: a bad scheduler name or config is a
    configuration mistake, and callers guarding serve calls with
    ``except ParameterError`` keep working unchanged.
    """


class CheckError(ParameterError):
    """A static checker is unknown, already registered, or misconfigured.

    Subclasses :class:`ParameterError` like :class:`BackendError` and
    :class:`SchedulerError`: a bad checker name or an unreadable trace
    file is a configuration mistake, and callers guarding check calls
    with ``except ParameterError`` keep working unchanged.
    """


class VerificationError(ReproError):
    """An in-SRAM result disagrees with the gold (software) model."""


def require_count(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an ``int >= 1``.

    A ``bool`` is not a count, and neither is a float such as ``1.5``,
    which would otherwise surface deep inside a replay.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParameterError(f"{name} must be an int >= 1, got {value!r}")
