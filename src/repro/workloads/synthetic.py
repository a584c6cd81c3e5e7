"""Synthetic SPEC-like workload generator: the stream-level API.

Generates a dynamic macro-instruction trace whose mix matches a
:class:`~repro.workloads.profiles.BenchmarkProfile`: memory intensity,
pointer density, allocation/call behaviour, locality and branch behaviour.
The generator drives the *real* instrumented runtime and identifier machinery
to obtain concrete heap addresses and lock locations, so the trace exercises
the same allocator, shadow-address and lock-location code paths that a real
program would — only the instruction selection is synthetic.

Ops are produced by one event loop in the state core
(:class:`~repro.workloads.state_core.WorkloadCore`, natively through
:mod:`repro.workloads._ffcore` when a C compiler is available) straight in
the timing pipeline's input format: :class:`~repro.sim.trace.TraceTokens`
columns over the static shape table :data:`~repro.workloads.shapes.SHAPES`.
:class:`SyntheticWorkload` turns that loop into one continuous stream:
:meth:`emit` returns the next window's tokens, :meth:`fast_forward` runs the
same loop with its writes switched off, and an event split by a window
boundary waits in a pending buffer for the next window.
:class:`~repro.sim.trace.DynamicOp` objects exist only on demand — from
:meth:`generate`, or by iterating a token trace — for the reference object
pipeline and for tests.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List

from repro.errors import ConfigurationError
from repro.sim.trace import DynamicOp, TraceTokens
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.shapes import SHAPES
from repro.workloads.state_core import WorkloadCore

#: Ops per :meth:`SyntheticWorkload.generate` emission chunk.
_GENERATE_CHUNK = 4096

#: The empty token trace (no pending ops, a missing warm-up window, the
#: top-level streams of a sampled bundle).  Never mutated: every consumer
#: copies columns out of a token trace before extending them.
NO_OPS = TraceTokens(array("q"), array("q"), array("q"), array("q"), SHAPES)


class SyntheticWorkload(WorkloadCore):
    """Generates dynamic traces with a given benchmark's characteristics."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 0):
        #: Ops of an event split by a window boundary, waiting for the next
        #: window (`fast_forward` discards from it, `emit` drains it).
        self._pending = NO_OPS
        super().__init__(profile, seed=seed)

    def _take_pending(self, count: int) -> List[array]:
        """Remove up to ``count`` pending ops; return copies of their columns."""
        head = self._pending[:count]
        self._pending = self._pending[count:]
        return [head.tids, head.addrs, head.locks, head.mis]

    def _refuse_mid_event(self) -> None:
        if self._pending:
            raise ConfigurationError(
                "generate() cannot follow fast_forward()/emit() mid-event; "
                "use emit() to continue the continuous stream")

    # -- the continuous-stream window APIs (§9.1 sampled segmentation) ---------------
    def emit(self, count: int) -> TraceTokens:
        """The next ``count`` ops of the continuous stream, as tokens.

        An event split by the window boundary keeps its tail pending for the
        next :meth:`emit`/:meth:`fast_forward` call, so consecutive windows
        concatenate to the one continuous stream.
        """
        cols = self._take_pending(count)
        need = count - len(cols[0])
        if need > 0:
            self._emit_span(need, cols)
            if len(cols[0]) > count:
                self._pending = TraceTokens(
                    *(column[count:] for column in cols), SHAPES)
                for column in cols:
                    del column[count:]
        return TraceTokens(*cols, SHAPES)

    def fast_forward(self, count: int) -> None:
        """Advance the functional state across ``count`` ops of the stream.

        Emit-and-discard by construction: whole events run through the
        emitter's event loop with its writes switched off, and only the
        event straddling the window boundary is emitted, its tail kept
        pending.  The RNG position, allocator state, working set and
        locality cursors therefore end up exactly where ``emit(count)``
        would leave them.

        Because consecutive calls compose (``fast_forward(a + b)`` ≡
        ``fast_forward(a); fast_forward(b)``, both golden-pinned), any window
        of the continuous stream can be re-entered from a fresh workload —
        which is what :meth:`repro.workloads.streaming.SampleStream.segment`
        exploits to regenerate one §9.1 sample bit-identically on demand.
        """
        if count <= 0:
            return
        count -= len(self._take_pending(count)[0])
        if count > 0:
            count = self._emit_span(count, None)
        if count > 0:
            self.emit(count)

    # -- stand-alone traces ---------------------------------------------------------
    def trace(self, instructions: int) -> TraceTokens:
        """The next ``instructions`` ops, starting and ending on an event
        boundary: the tail of an event truncated by the limit is *discarded*
        (unsampled bundles depend on it).

        Cannot follow :meth:`emit`/:meth:`fast_forward` mid-event.
        """
        self._refuse_mid_event()
        tokens = self.emit(instructions)
        self._pending = NO_OPS
        return tokens

    def generate(self, instructions: int) -> Iterator[DynamicOp]:
        """Yield :meth:`trace`'s ops as :class:`DynamicOp` objects, lazily.

        The stand-alone streaming API of the reference pipeline: ops are
        emitted in chunks and materialized as they are consumed.
        """
        self._refuse_mid_event()
        try:
            remaining = instructions
            while remaining > 0:
                chunk = self.emit(min(remaining, _GENERATE_CHUNK))
                remaining -= len(chunk)
                yield from chunk
        finally:
            self._pending = NO_OPS
