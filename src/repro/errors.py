"""Exception taxonomy for the Watchdog reproduction.

The paper's hardware raises an exception when a check µop fails (a dangling
pointer dereference, §3.2) or, with the bounds extension, when an access falls
outside the pointer's base/bound range (§8).  The runtime additionally detects
double frees and frees of non-heap pointers (§4.1).

All library errors derive from :class:`ReproError` so callers can catch the
whole family, while the safety violations derive from
:class:`MemorySafetyViolation` which mirrors the hardware exception.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A simulator or Watchdog configuration is inconsistent."""


class ProgramError(ReproError):
    """A program (IR or macro-instruction stream) is malformed."""


class CompiledTraceUnsupported(ProgramError):
    """The trace contains a shape the compiled pipeline does not pack.

    Raised for instructions with more than two register (or metadata)
    sources, and for µops whose fields overflow the packed word format; the
    simulator falls back to the reference object pipeline.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class AllocatorError(ReproError):
    """The runtime memory allocator was misused or is out of memory."""


class OutOfMemoryError(AllocatorError):
    """The heap (or lock-location region) cannot satisfy an allocation."""


class MemorySafetyViolation(ReproError):
    """Base class for violations detected by a checking scheme.

    Attributes
    ----------
    address:
        The virtual address whose access triggered the violation, if known.
    pc:
        Index of the offending macro instruction in the dynamic stream.
    """

    kind = "memory-safety"

    def __init__(self, message: str, address: int | None = None, pc: int | None = None):
        super().__init__(message)
        self.address = address
        self.pc = pc


class UseAfterFreeError(MemorySafetyViolation):
    """A check µop found a stale identifier (dangling pointer dereference)."""

    kind = "use-after-free"


class BoundsError(MemorySafetyViolation):
    """A bounds-check µop found an access outside [base, bound)."""

    kind = "out-of-bounds"


class DoubleFreeError(MemorySafetyViolation):
    """free() was called on a pointer whose identifier is already invalid."""

    kind = "double-free"


class InvalidFreeError(MemorySafetyViolation):
    """free() was called on a pointer that was never returned by malloc()."""

    kind = "invalid-free"


class UncheckedAccessError(MemorySafetyViolation):
    """Raised by the *functional* machine when an access hits unmapped memory.

    This is not a Watchdog detection; it signals that a program escaped the
    simulated address space entirely (useful for validating exploit payloads
    against an unprotected baseline).
    """

    kind = "unmapped-access"
