"""Dynamic traces and trace expansion.

A *dynamic trace* is the sequence of macro-instruction instances a workload
executes, each annotated with the concrete effective address it touched (for
memory operations), the lock location of the object it points into (so check
µops know which lock word they read), and a branch-misprediction flag.  Both
the synthetic SPEC-like workloads and the functional machine produce dynamic
traces in this form.

The :class:`TraceExpander` turns a dynamic trace into the *timed µop* stream
consumed by the out-of-order timing model: baseline µops plus the Watchdog
µops injected by :class:`repro.core.uop_injection.UopInjector`, each tagged
with the address and cache port it accesses (data cache, shadow space, or the
lock location cache/port).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdentifier
from repro.core.uop_injection import UopInjector
from repro.isa.instructions import Instruction, Opcode, SINGLE_SOURCE_PROPAGATORS
from repro.isa.microops import MicroOp, UopKind
from repro.memory.address_space import AddressSpaceLayout
from repro.memory.pages import PageAccountant
from repro.memory.shadow import ShadowSpace
from repro.memory.hierarchy import PortKind


@dataclass
class DynamicOp:
    """One dynamic macro-instruction instance in a workload trace."""

    instruction: Instruction
    #: Effective address for memory operations.
    address: Optional[int] = None
    #: Lock location of the allocation the address falls in (what the check
    #: µop will read).  ``None`` means the access is through a register with
    #: no metadata (e.g. unannotated integer address).
    lock_address: Optional[int] = None
    #: Whether a branch instance was mispredicted (charged a refill penalty).
    mispredicted: bool = False


#: The "no address" value of a token column (``address`` or
#: ``lock_address`` of ``None``).  Every real address is non-negative.
NO_ADDRESS = -1


class TraceTokens:
    """A dynamic trace as four parallel int64 columns over a static table.

    ``tids[i]`` indexes ``insts`` (the static instruction of op ``i``);
    ``addrs``/``locks`` hold its effective and lock address, or
    :data:`NO_ADDRESS`; ``mis`` is 1 for a mispredicted branch.  The
    synthetic generator writes these columns directly, with its static
    shape table as ``insts``; :func:`repro.sim.compiled.tokenize` builds them
    from any other :class:`DynamicOp` trace.

    A token trace also reads as a sequence of :class:`DynamicOp`: iteration,
    indexing and equality with a tuple or list of ops materialize them, for
    the reference pipeline and for tests.
    """

    __slots__ = ("tids", "addrs", "locks", "mis", "insts")

    def __init__(self, tids, addrs, locks, mis, insts):
        self.tids = tids
        self.addrs = addrs
        self.locks = locks
        self.mis = mis
        #: One representative :class:`Instruction` per identity.
        self.insts = insts

    def __len__(self) -> int:
        return len(self.tids)

    def __iter__(self) -> Iterator[DynamicOp]:
        insts = self.insts
        for tid, address, lock, mis in zip(self.tids, self.addrs, self.locks,
                                           self.mis):
            yield DynamicOp(insts[tid],
                            None if address == NO_ADDRESS else address,
                            None if lock == NO_ADDRESS else lock,
                            bool(mis))

    def __getitem__(self, index):
        """A slice as tokens (sharing ``insts``); one op as a DynamicOp."""
        if isinstance(index, slice):
            return TraceTokens(self.tids[index], self.addrs[index],
                               self.locks[index], self.mis[index], self.insts)
        index = range(len(self))[index]
        return next(iter(self[index:index + 1]))

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceTokens):
            if other.insts is self.insts:
                return (self.tids == other.tids and self.addrs == other.addrs
                        and self.locks == other.locks and self.mis == other.mis)
        elif not isinstance(other, (tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceTokens({len(self)} ops)"


@dataclass
class TimedUop:
    """A µop annotated with the memory behaviour the timing model needs."""

    uop: MicroOp
    address: Optional[int] = None
    port: PortKind = PortKind.DATA
    is_write: bool = False
    mispredicted_branch: bool = False


# -- timing-annotation rules (the numeric form of :meth:`TraceExpander._annotate`) --
#
# For a fixed configuration the annotation of a µop is a pure function of its
# *kind*: which address it presents to the hierarchy (the dynamic op's data
# address, its shadow translation, its lock location, or the synthetic frame
# lock stack), which L1 port it uses, and whether it writes.  The compiled
# trace pipeline consumes these tables instead of re-running the if-chain per
# dynamic µop instance.

#: Address-derivation rules.
ADDR_NONE = 0      #: no memory access
ADDR_DATA = 1      #: the dynamic op's effective address
ADDR_SHADOW = 2    #: shadow translation of the effective address
ADDR_LOCK = 3      #: the dynamic op's lock location
ADDR_FRAME_PUSH = 4  #: push onto the synthetic frame-lock stack, then use
ADDR_FRAME_POP = 5   #: use the synthetic frame-lock stack top, then pop

#: kind -> (addr_rule, port, is_write).  Kinds not listed access no memory.
ANNOTATION_RULES = {
    UopKind.LOAD: (ADDR_DATA, PortKind.DATA, False),
    UopKind.STORE: (ADDR_DATA, PortKind.DATA, True),
    UopKind.SHADOW_LOAD: (ADDR_SHADOW, PortKind.SHADOW, False),
    UopKind.SHADOW_STORE: (ADDR_SHADOW, PortKind.SHADOW, True),
    UopKind.CHECK: (ADDR_LOCK, PortKind.LOCK, False),
    UopKind.SETIDENT: (ADDR_LOCK, PortKind.LOCK, True),
    UopKind.GETIDENT: (ADDR_LOCK, PortKind.LOCK, False),
    UopKind.LOCK_PUSH: (ADDR_FRAME_PUSH, PortKind.LOCK, True),
    UopKind.LOCK_POP: (ADDR_FRAME_POP, PortKind.LOCK, True),
}

#: Kinds whose execution latency comes from the memory hierarchy (loads).
HIERARCHY_LATENCY_KINDS = frozenset({
    UopKind.LOAD, UopKind.SHADOW_LOAD, UopKind.CHECK, UopKind.GETIDENT,
})

#: Kinds that access the hierarchy off the critical path (stores): the access
#: updates cache state and statistics but the µop retires at its fixed
#: latency.
STORE_ACCESS_KINDS = frozenset({
    UopKind.STORE, UopKind.SHADOW_STORE, UopKind.SETIDENT,
    UopKind.LOCK_PUSH, UopKind.LOCK_POP,
})

#: Kinds occupying the load queue / store queue.
LQ_KINDS = frozenset({UopKind.LOAD, UopKind.SHADOW_LOAD})
SQ_KINDS = frozenset({UopKind.STORE, UopKind.SHADOW_STORE})


class TraceExpander:
    """Expands a dynamic macro trace into the timed µop stream."""

    def __init__(self, config: WatchdogConfig,
                 pointer_identifier: Optional[PointerIdentifier] = None,
                 layout: Optional[AddressSpaceLayout] = None,
                 pages: Optional[PageAccountant] = None):
        self.config = config
        self.injector = UopInjector(config, pointer_identifier)
        self.shadow = ShadowSpace(layout or AddressSpaceLayout(),
                                  metadata_words=config.metadata_words)
        self.pages = pages
        #: Synthetic lock-stack pointer for LOCK_PUSH/LOCK_POP addresses.
        self._frame_lock = self.shadow.layout.lock_region.base + \
            self.shadow.layout.lock_region.size // 2

    # -- per-µop annotation -------------------------------------------------------
    def _annotate(self, uop: MicroOp, dop: DynamicOp) -> TimedUop:
        kind = uop.kind
        if kind in (UopKind.LOAD, UopKind.STORE):
            if self.pages is not None and dop.address is not None:
                self.pages.touch_data(dop.address, int(uop.size))
            return TimedUop(uop=uop, address=dop.address, port=PortKind.DATA,
                            is_write=kind is UopKind.STORE)
        if kind in (UopKind.SHADOW_LOAD, UopKind.SHADOW_STORE):
            shadow_addr = None
            if dop.address is not None:
                shadow_addr = self.shadow.shadow_address(dop.address)
                if self.pages is not None:
                    self.pages.touch_shadow(shadow_addr,
                                            size=self.config.metadata_words * 8)
            return TimedUop(uop=uop, address=shadow_addr, port=PortKind.SHADOW,
                            is_write=kind is UopKind.SHADOW_STORE)
        if kind in (UopKind.CHECK, UopKind.BOUNDS_CHECK):
            # The bounds comparison itself needs no memory access; only the
            # identifier check reads the lock location (§8).
            if kind is UopKind.BOUNDS_CHECK:
                return TimedUop(uop=uop, address=None, port=PortKind.DATA)
            return TimedUop(uop=uop, address=dop.lock_address, port=PortKind.LOCK)
        if kind in (UopKind.LOCK_PUSH, UopKind.LOCK_POP):
            if kind is UopKind.LOCK_PUSH:
                self._frame_lock += 8
            address = self._frame_lock
            if kind is UopKind.LOCK_POP:
                self._frame_lock = max(self._frame_lock - 8,
                                       self.shadow.layout.lock_region.base)
            return TimedUop(uop=uop, address=address, port=PortKind.LOCK, is_write=True)
        if kind in (UopKind.SETIDENT, UopKind.GETIDENT):
            return TimedUop(uop=uop, address=dop.lock_address, port=PortKind.LOCK,
                            is_write=kind is UopKind.SETIDENT)
        if kind is UopKind.BRANCH:
            return TimedUop(uop=uop, mispredicted_branch=dop.mispredicted)
        return TimedUop(uop=uop)

    def _copy_elimination_ablation(self, inst: Instruction) -> List[TimedUop]:
        """Extra metadata-copy µops when rename-time elimination is disabled."""
        if self.config.copy_elimination or not self.config.enabled:
            return []
        if inst.opcode not in SINGLE_SOURCE_PROPAGATORS:
            return []
        if inst.dest is None or not inst.dest.is_int:
            return []
        copy = MicroOp(kind=UopKind.META_SELECT, meta_dest=inst.dest,
                       meta_srcs=inst.srcs, injected=True, macro=inst,
                       macro_seq=self.injector.last_macro_seq)
        self.injector.stats.other_uops += 1
        return [TimedUop(uop=copy)]

    # -- expansion ------------------------------------------------------------------
    def expand(self, trace: Iterable[DynamicOp]) -> List[TimedUop]:
        """Expand a full dynamic trace into timed µops."""
        return list(self.iter_expand(trace))

    def iter_expand(self, trace: Iterable[DynamicOp]) -> Iterator[TimedUop]:
        """Lazily expand a dynamic trace (memory-friendly for long traces)."""
        for dop in trace:
            for uop in self.injector.expand(dop.instruction):
                yield self._annotate(uop, dop)
            for extra in self._copy_elimination_ablation(dop.instruction):
                yield extra

    @property
    def stats(self):
        """Injection statistics accumulated while expanding (Figure 8)."""
        return self.injector.stats

    @property
    def pointer_id_stats(self):
        """Pointer-identification statistics (Figure 5)."""
        return self.injector.pointer_identifier.stats
