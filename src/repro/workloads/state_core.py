"""State-evolution core of the synthetic workload generator: the emitter.

:class:`WorkloadCore` owns everything about a workload that *evolves* — the
RNG stream, the allocator-backed live-object set (slot arrays shared with
the optional native kernel), the hot/cold working-set structure, locality
cursors, and the call-depth / register-rotation bookkeeping — and the one
event loop that evolves it.  The loop writes each op it produces as token
columns (a :mod:`~repro.workloads.shapes` id, address, lock address and
misprediction flag; see :class:`~repro.sim.trace.TraceTokens`), or, in
*discard* mode, advances the state without writing anything: a §9.1 skip
window is emission with the writes switched off, so its RNG draws,
allocator traffic and cursor moves are the emitted stream's by
construction.

The loop exists twice, once per language: the compiled kernel
(:mod:`repro.workloads._ffcore`, ``ff_emit``) when available, and
:meth:`WorkloadCore._emit_span_py`, its draw-for-draw pure-Python mirror,
otherwise.  Both are verified column-for-column identical by the golden
fast-forward tests.  The stream-level API on top (pending split events,
``emit``/``fast_forward``/``generate``) is
:class:`~repro.workloads.synthetic.SyntheticWorkload`'s.

Object storage is *slot based*: every allocation gets a monotonically
increasing slot id addressing append-only parallel arrays (size, base
address, locality cursor, pointer-richness, lock location, allocation
record).  ``_order`` lists the live slots in insertion order (the cold-pool
window is its tail), ``_hot`` is the recently-touched slot list.  Slots are
never reused, so a freed slot that lingers in the hot set (the generator's
deliberate stale-reference behaviour) keeps addressing its frozen
base/size/cursor data, while the C kernel sees plain int64/int8 arrays it
can index directly.
"""

from __future__ import annotations

import random
import zlib
from array import array
from typing import Iterator, List, Optional

from repro.allocator.runtime import AllocationRecord, InstrumentedRuntime
from repro.core.identifier import IdentifierTable
from repro.memory.address_space import AddressSpace
from repro.sim.trace import NO_ADDRESS
from repro.workloads import _ffcore
from repro.workloads._ffcore import MAX_EVENT_OPS
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.shapes import (
    SH_ADDR_BUMP,
    SH_ALU_INT,
    SH_BRANCH,
    SH_CALL,
    SH_FADD,
    SH_GETIDENT,
    SH_MEM,
    SH_RET,
    SH_SETIDENT,
)

# The loops draw ``randbelow(6)`` for register picks, value-rotation and
# ALU-opcode choices: 6 is structural (shapes.NREGS, the register tuples'
# size), not a tunable, so it stays literal in both implementations.


class WorkloadCore:
    """Functional state of one synthetic workload, and its emitter."""

    #: Fraction of memory accesses directed at the global segment (always
    #: valid global identifier, §7) rather than heap objects.
    GLOBAL_ACCESS_FRACTION = 0.15
    #: Span of the frequently-touched global data (bytes).
    GLOBAL_SPAN_BYTES = 8 * 1024
    #: Number of recently-touched heap objects forming the hot set.
    HOT_SET_OBJECTS = 8
    #: Upper bound on the pool of heap objects cold accesses may reach within
    #: one phase; the pool slides over the full working set as objects churn,
    #: mimicking program phase behaviour instead of uniformly random traffic.
    COLD_POOL_OBJECTS = 192
    #: Retired (freed, unreferenced) slots tolerated in the append-only slot
    #: arrays before they are compacted.  Slots are never reused, so over a
    #: billion-instruction horizon the arrays would otherwise grow with every
    #: allocation ever made (~33 bytes/slot) even though only the live working
    #: set is reachable; compaction keeps the generator side flat too.
    COMPACT_RETIRED_SLOTS = 1_000_000

    def __init__(self, profile: BenchmarkProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        # crc32 rather than hash(): str hashing is randomized per process, and
        # the trace must be a pure function of (profile, seed) so that cached
        # results and worker processes agree with a serial in-process run.
        self.rng = random.Random((zlib.crc32(profile.name.encode()) & 0xFFFF) ^ seed)
        # The exact primitive randrange()/choice() consume; binding it keeps
        # every draw on the identical bit stream at a fraction of the cost.
        self._randbelow = self.rng._randbelow
        self.memory = AddressSpace()
        self.identifiers = IdentifierTable(self.memory)
        self.runtime = InstrumentedRuntime(self.memory, identifiers=self.identifiers)

        # Slot-based object storage (append-only; slots are never reused).
        self._slot_sizes = array("q")
        self._slot_bases = array("q")
        self._slot_cursors = array("q")
        self._slot_rich = array("b")
        self._slot_locks = array("q")
        #: Allocation records of live slots (``None`` once freed).
        self._slot_records: List[Optional[AllocationRecord]] = []
        self._order = array("q")
        self._hot: List[int] = []

        self._global_lock = self.identifiers.global_identifier().lock
        self._global_cursor = 0
        self._call_depth = 0
        self._value_rotation = 0
        self._allocation_counter = 0

        # Precomputed event/draw constants (pure functions of the profile).
        segment = self.memory.layout.globals_seg
        self._globals_base = segment.base
        self._global_span = min(segment.size, self.GLOBAL_SPAN_BYTES)
        self._global_ptr_span = min(self._global_span, 1024)
        self._alloc_probability = profile.allocs_per_kilo / 1000.0
        self._ac_probability = self._alloc_probability + profile.calls_per_kilo / 1000.0
        self._mem_hi = self._ac_probability + profile.memory_fraction
        self._br_hi = self._mem_hi + profile.branch_fraction
        typical = profile.typical_alloc_bytes
        self._size_low = max(16, typical // 2)
        width = typical * 2 + 1 - self._size_low
        self._size_nslots = (width + 15) // 16
        self._min_keep = max(4, profile.working_set_objects // 4)

        self._attach_ffcore()
        for _ in range(profile.working_set_objects):
            self._materialize_allocation(
                self._size_low + 16 * self._randbelow(self._size_nslots))

    def _attach_ffcore(self) -> None:
        """Load the native kernel and build its shared constant buffers.

        Called from ``__init__`` and again from ``__setstate__`` (the kernel
        handle and buffers are not picklable).  The kernel's in-place hot
        buffer holds 16 slots and its cold-pool candidate list
        ``MAX_COLD_POOL``, so hot sets beyond 15 entries or larger cold pools
        (no in-tree workload comes close) fall back to the pure-Python loop.
        """
        profile = self.profile
        fits = (self.HOT_SET_OBJECTS <= 15
                and self.COLD_POOL_OBJECTS <= _ffcore.MAX_COLD_POOL)
        self._ffcore = _ffcore.load() if fits else None
        if self._ffcore is None:
            return
        self._c_scalars = array("q", [0] * _ffcore.SCAL_SLOTS)
        self._c_hot = array("q", [0] * 16)
        self._c_consts_d = array("d", [
            self._alloc_probability, self._ac_probability, self._mem_hi,
            self._br_hi, profile.pointer_fraction,
            profile.word_integer_fraction,
            profile.word_integer_fraction + profile.fp_access_fraction,
            profile.fp_compute_fraction, profile.temporal_locality,
            profile.spatial_locality, self.GLOBAL_ACCESS_FRACTION,
            profile.load_fraction, profile.mispredict_rate])
        self._c_consts_i = array("q", [
            self._global_span, self._global_ptr_span,
            profile.working_set_objects, self._min_keep,
            self._size_low, self._size_nslots,
            self.COLD_POOL_OBJECTS, self.HOT_SET_OBJECTS,
            self._globals_base, self._global_lock])

    # -- pickling (the native kernel handle and bound method don't travel) ----------
    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_ffcore", "_randbelow", "_c_scalars", "_c_hot",
                    "_c_consts_d", "_c_consts_i"):
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._randbelow = self.rng._randbelow
        self._attach_ffcore()

    # -- working set ----------------------------------------------------------------
    def _materialize_allocation(self, size: int) -> int:
        """malloc ``size`` bytes and register the new slot (no RNG draws)."""
        if len(self._slot_sizes) - len(self._order) >= self.COMPACT_RETIRED_SLOTS:
            self._compact_slots()
        pointer, metadata = self.runtime.malloc(size)
        record = self.runtime.record_for(pointer)
        assert record is not None
        self._allocation_counter += 1
        slot = len(self._slot_sizes)
        self._slot_sizes.append(record.size)
        self._slot_bases.append(record.base)
        self._slot_cursors.append(0)
        # Whether this object is part of a pointer-rich data structure
        # (linked structures, pointer arrays).  Pointer loads/stores are
        # directed at these objects; plain data accesses go anywhere.
        self._slot_rich.append(1 if self._allocation_counter % 4 == 0 else 0)
        self._slot_locks.append(metadata.identifier.lock)
        self._slot_records.append(record)
        self._order.append(slot)
        self._hot.append(slot)
        if len(self._hot) > self.HOT_SET_OBJECTS:
            del self._hot[0]
        return slot

    def _compact_slots(self) -> None:
        """Renumber reachable slots densely, dropping retired array entries.

        Reachable means live (in ``_order``) or in the hot set (possibly
        freed but still addressable — the stale-reference quirk).  No RNG
        draws and no allocator traffic happen here, and slot *ids* never
        feed a draw or an address, so compaction is invisible to the
        emitted trace — pinned by the golden compaction tests.

        Every structure is mutated **in place**: ``_emit_span_py`` binds the
        slot arrays, order and hot list as locals for its whole span, so
        replacing the objects (rather than their contents) would
        desynchronize a compaction triggered mid-span.  (The native driver
        re-fetches buffer addresses around every allocator bounce, so
        in-place slice assignment is safe there too.)
        """
        keep = sorted(set(self._order) | set(self._hot))
        remap = {old: new for new, old in enumerate(keep)}
        for column in (self._slot_sizes, self._slot_bases, self._slot_cursors,
                       self._slot_rich, self._slot_locks):
            column[:] = array(column.typecode, (column[s] for s in keep))
        self._slot_records[:] = [self._slot_records[s] for s in keep]
        self._order[:] = array("q", (remap[s] for s in self._order))
        self._hot[:] = [remap[s] for s in self._hot]

    def _free_slot(self, index: int) -> int:
        """Free the live object at ``_order[index]`` (no RNG draws)."""
        order = self._order
        slot = order[index]
        del order[index]
        hot = self._hot
        if slot in hot:
            hot.remove(slot)  # first occurrence only, like list.remove(obj)
        record = self._slot_records[slot]
        self._slot_records[slot] = None
        self.runtime.free(record.base, record.metadata)
        return slot

    # -- the event loop ---------------------------------------------------------------
    def _emit_span(self, remaining: int, cols: Optional[list]) -> int:
        """Run the event loop over the next ``remaining`` ops.

        With ``cols`` (four ``array("q")`` columns: shape, address, lock,
        misprediction) every op is appended, and the event crossing the
        count is finished, so up to ``MAX_EVENT_OPS - 1`` ops past it land
        too.  With ``cols=None`` (discard mode) the loop only advances,
        whole events only, while ``>= MAX_EVENT_OPS`` ops remain.  Returns
        the unconsumed remainder: ``<= 0`` after emitting (minus the
        overrun), ``< MAX_EVENT_OPS`` after discarding.
        """
        if self._ffcore is not None:
            return self._emit_span_c(remaining, cols)
        return self._emit_span_py(remaining, cols)

    def _emit_span_c(self, remaining: int, cols: Optional[list]) -> int:
        """Drive the native kernel, bouncing out for allocator events."""
        emit = self._ffcore.ff_emit
        scal = self._c_scalars
        hotbuf = self._c_hot
        state = self.rng.getstate()
        mt = array("I", state[1][:624])
        mt_addr = mt.buffer_info()[0]
        scal[_ffcore.SCAL_MTI] = state[1][624]
        scal[_ffcore.SCAL_POS] = 0
        consts_d = self._c_consts_d.buffer_info()[0]
        consts_i = self._c_consts_i.buffer_info()[0]
        if cols is None:
            out = (None,) * 4
        else:
            start = len(cols[0])
            pad = bytes(8 * (remaining + MAX_EVENT_OPS - 1))
            for column in cols:
                column.frombytes(pad)
            out = tuple(column.buffer_info()[0] + 8 * start for column in cols)
        while True:
            hot = self._hot
            for i, slot in enumerate(hot):
                hotbuf[i] = slot
            scal[_ffcore.SCAL_REMAINING] = remaining
            scal[_ffcore.SCAL_VALUE_ROTATION] = self._value_rotation
            scal[_ffcore.SCAL_GLOBAL_CURSOR] = self._global_cursor
            scal[_ffcore.SCAL_CALL_DEPTH] = self._call_depth
            scal[_ffcore.SCAL_N_ORDER] = len(self._order)
            scal[_ffcore.SCAL_HOT_LEN] = len(hot)
            emit(mt_addr, scal.buffer_info()[0], consts_d, consts_i,
                 self._order.buffer_info()[0],
                 self._slot_sizes.buffer_info()[0],
                 self._slot_cursors.buffer_info()[0],
                 self._slot_rich.buffer_info()[0],
                 self._slot_bases.buffer_info()[0],
                 self._slot_locks.buffer_info()[0],
                 hotbuf.buffer_info()[0], *out)
            remaining = scal[_ffcore.SCAL_REMAINING]
            self._value_rotation = scal[_ffcore.SCAL_VALUE_ROTATION]
            self._global_cursor = scal[_ffcore.SCAL_GLOBAL_CURSOR]
            self._call_depth = scal[_ffcore.SCAL_CALL_DEPTH]
            self._hot = list(hotbuf[:scal[_ffcore.SCAL_HOT_LEN]])
            if scal[_ffcore.SCAL_REASON] != _ffcore.REASON_ALLOC:
                break
            # The kernel drew the event; apply its allocator effects and
            # give its ident ops the locks malloc/free just decided.
            locks = None if cols is None else cols[2]
            if scal[_ffcore.SCAL_FREED_INDEX] >= 0:
                slot = self._free_slot(scal[_ffcore.SCAL_FREED_INDEX])
                if locks is not None:
                    locks[start + scal[_ffcore.SCAL_GETIDENT_POS]] = \
                        self._slot_locks[slot]
            slot = self._materialize_allocation(scal[_ffcore.SCAL_ALLOC_SIZE])
            if locks is not None:
                locks[start + scal[_ffcore.SCAL_SETIDENT_POS]] = \
                    self._slot_locks[slot]
        self.rng.setstate((state[0], tuple(mt) + (scal[_ffcore.SCAL_MTI],),
                           state[2]))
        if cols is not None:
            end = start + scal[_ffcore.SCAL_POS]
            for column in cols:
                del column[end:]
        return remaining

    def _emit_span_py(self, remaining: int, cols: Optional[list]) -> int:
        """Pure-Python mirror of ``ff_emit`` (the no-compiler fallback).

        Draw-for-draw and column-for-column identical to the kernel; every
        helper is inlined onto locals because this loop runs once per op.
        """
        rng_random = self.rng.random
        randbelow = self._randbelow
        profile = self.profile
        alloc_p = self._alloc_probability
        ac_hi = self._ac_probability
        mem_hi = self._mem_hi
        br_hi = self._br_hi
        ptr_f = profile.pointer_fraction
        word_f = profile.word_integer_fraction
        wordfp_f = word_f + profile.fp_access_fraction
        fpc = profile.fp_compute_fraction
        temporal = profile.temporal_locality
        spatial = profile.spatial_locality
        load_f = profile.load_fraction
        mispredict = profile.mispredict_rate
        global_frac = self.GLOBAL_ACCESS_FRACTION
        cold_pool = self.COLD_POOL_OBJECTS
        hot_max = self.HOT_SET_OBJECTS
        span_g = self._global_span
        span_p = self._global_ptr_span
        globals_base = self._globals_base
        global_lock = self._global_lock
        ws = profile.working_set_objects
        min_keep = self._min_keep
        size_low = self._size_low
        size_nslots = self._size_nslots
        sizes = self._slot_sizes
        bases = self._slot_bases
        cursors = self._slot_cursors
        rich = self._slot_rich
        locks = self._slot_locks
        order = self._order
        hot = self._hot
        vr = self._value_rotation
        depth = self._call_depth
        gc = self._global_cursor
        sh_alu, sh_fadd, sh_branch = SH_ALU_INT, SH_FADD, SH_BRANCH
        sh_bump, sh_mem = SH_ADDR_BUMP, SH_MEM
        emit = cols is not None
        if emit:
            shapes, addrs, op_locks, mis = cols
            put_shape = shapes.append
            put_addr = addrs.append
            put_lock = op_locks.append
            put_mis = mis.append
        floor = 1 if emit else MAX_EVENT_OPS
        # Rich slots of the cold-pool window, listed on the first cold
        # pointer access and dropped by every allocation event (the only
        # thing that moves the window), like the kernel's per-call list.
        cold_rich = None

        def runtime_call(vr, ident_base, lock):
            """Six ALU ops, then the ident op on a drawn pointer register."""
            for _ in range(6):
                if rng_random() < fpc:
                    shape = SH_FADD + (randbelow(6) * 6 + randbelow(6)) * 6 \
                        + randbelow(6)
                else:
                    vr = (vr + 1) % 6
                    chain = 1 if rng_random() < 0.35 else 0
                    k = randbelow(6)
                    shape = SH_ALU_INT + (vr * 2 + chain) * 5 \
                        + (k - 1 if k > 1 else 0)
                if emit:
                    put_shape(shape); put_addr(NO_ADDRESS)
                    put_lock(NO_ADDRESS); put_mis(0)
            shape = ident_base + randbelow(6)
            if emit:
                put_shape(shape); put_addr(NO_ADDRESS)
                put_lock(lock); put_mis(0)
            return vr

        while remaining >= floor:
            roll = rng_random()
            if roll >= br_hi:  # ALU op
                if rng_random() < fpc:
                    shape = sh_fadd + (randbelow(6) * 6 + randbelow(6)) * 6 \
                        + randbelow(6)
                else:
                    vr = (vr + 1) % 6
                    chain = 1 if rng_random() < 0.35 else 0
                    k = randbelow(6)
                    shape = sh_alu + (vr * 2 + chain) * 5 \
                        + (k - 1 if k > 1 else 0)
                if emit:
                    put_shape(shape); put_addr(NO_ADDRESS)
                    put_lock(NO_ADDRESS); put_mis(0)
                remaining -= 1
            elif roll >= mem_hi:  # branch
                flag = 1 if rng_random() < mispredict else 0
                vr = (vr + 1) % 6
                if emit:
                    put_shape(sh_branch + vr); put_addr(NO_ADDRESS)
                    put_lock(NO_ADDRESS); put_mis(flag)
                remaining -= 1
            elif roll >= ac_hi:  # memory op
                roll2 = rng_random()
                store = 0 if rng_random() < load_f else 1
                cls = 0 if roll2 < ptr_f else 1 if roll2 < word_f \
                    else 2 if roll2 < wordfp_f else 3
                nbytes = 4 if cls == 3 else 8
                offset = 0
                if rng_random() < global_frac or not order:
                    span = span_p if cls == 0 else span_g
                    if rng_random() < spatial:
                        offset = gc % span
                        gc += nbytes
                    else:
                        offset = randbelow(span)
                    if emit:
                        address = globals_base + (offset & -nbytes)
                        lock = global_lock
                else:
                    if hot and rng_random() < temporal:
                        if cls == 0:
                            cands = [s for s in hot if rich[s]] or hot
                        else:
                            cands = hot
                        slot = cands[randbelow(len(cands))]
                    else:
                        n = len(order)
                        pool = n if n < cold_pool else cold_pool
                        start = n - pool
                        if cls == 0:
                            if cold_rich is None:
                                cold_rich = [s for s in order[start:]
                                             if rich[s]]
                            slot = cold_rich[randbelow(len(cold_rich))] \
                                if cold_rich \
                                else order[start + randbelow(pool)]
                        else:
                            slot = order[start + randbelow(pool)]
                        hot.append(slot)
                        if len(hot) > hot_max:
                            del hot[0]
                    size = sizes[slot]
                    limit = size - nbytes
                    if limit < 1:
                        limit = 1
                    if rng_random() < spatial:
                        offset = cursors[slot] % limit
                        bound = size if size > nbytes else nbytes
                        cursors[slot] = (cursors[slot] + nbytes) % bound
                    else:
                        offset = randbelow(limit)
                    if emit:
                        address = bases[slot] + (offset & -nbytes)
                        lock = locks[slot]
                ar = randbelow(6)  # address register
                if rng_random() < 0.25:  # pointer refresh
                    if emit:
                        put_shape(sh_bump + ar); put_addr(NO_ADDRESS)
                        put_lock(NO_ADDRESS); put_mis(0)
                    remaining -= 1
                if cls == 2:
                    data = randbelow(6)
                else:
                    vr = (vr + 1) % 6
                    data = vr
                if emit:
                    put_shape(sh_mem + ((cls * 2 + store) * 6 + ar) * 6 + data)
                    put_addr(address); put_lock(lock); put_mis(0)
                remaining -= 1
            elif roll >= alloc_p:  # call / return
                if depth < 16 and rng_random() < 0.6:
                    depth += 1
                    shape = SH_CALL
                elif depth > 0:
                    depth -= 1
                    shape = SH_RET
                else:
                    continue
                if emit:
                    put_shape(shape); put_addr(NO_ADDRESS)
                    put_lock(NO_ADDRESS); put_mis(0)
                remaining -= 1
            else:  # allocation event
                cold_rich = None
                n = len(order)
                if n >= ws and n > min_keep:
                    slot = self._free_slot(randbelow(n))
                    vr = runtime_call(vr, SH_GETIDENT, locks[slot])
                    remaining -= 7
                slot = self._materialize_allocation(
                    size_low + 16 * randbelow(size_nslots))
                vr = runtime_call(vr, SH_SETIDENT, locks[slot])
                remaining -= 7

        self._value_rotation = vr
        self._call_depth = depth
        self._global_cursor = gc
        return remaining

    # -- working-set introspection (used by the simulator's warm-up) --------------------
    def working_set_lines(self) -> Iterator[int]:
        """64-byte-aligned addresses of every line in the current working set.

        Covers all live heap objects and the hot global span; the simulator
        touches these (and their shadow lines) before the measured window so
        that the measured window reflects steady state rather than the cold
        start of a short synthetic trace.
        """
        bases = self._slot_bases
        sizes = self._slot_sizes
        for slot in self._order:
            base = bases[slot]
            end = base + sizes[slot]
            line = base & ~63
            while line < end:
                yield line
                line += 64
        line = self._globals_base
        end = line + self._global_span
        while line < end:
            yield line
            line += 64

    def lock_locations(self) -> Iterator[int]:
        """Lock-location addresses of every live object plus the global lock."""
        locks = self._slot_locks
        for slot in self._order:
            yield locks[slot]
        yield self._global_lock

    def snapshot_working_set(self):
        """Freeze the current working set for configuration-independent reuse.

        The returned snapshot answers the same two queries the simulator's
        warm-up asks of the live workload (`working_set_lines`,
        `lock_locations`) but is immutable and picklable, so one generated
        trace can be replayed under many Watchdog configurations — including
        in worker processes — without re-running the generator.
        """
        from repro.workloads.bundle import WorkingSetSnapshot

        return WorkingSetSnapshot(lines=tuple(self.working_set_lines()),
                                  locks=tuple(self.lock_locations()))

    @property
    def live_objects(self) -> int:
        return len(self._order)
