"""Trace-driven out-of-order timing model.

This model replays a timed µop stream (baseline plus Watchdog-injected µops)
through a dependence-, window- and port-limited approximation of the Table 2
core.  It captures the effects the paper's evaluation attributes Watchdog's
overhead to:

* extra µops consuming front-end (rename/dispatch) and issue bandwidth
  (Figure 8 vs Figure 7: "the execution time overhead is lower than the µop
  overhead because these µops are off the critical path"),
* check µops contending for data-cache load ports unless the dedicated lock
  location cache provides extra bandwidth (Figure 9),
* shadow metadata accesses adding cache pressure (§9.3 idealized-shadow
  ablation),
* metadata dependences being kept *off* the program's critical path thanks to
  decoupled metadata (§6.2): injected µops depend on the address register's
  data value and on metadata, but program µops never depend on metadata.

The model is not cycle-accurate — it is a behavioural dependence-graph
scheduler — but every structural limit (widths, ROB/IQ/LQ/SQ occupancy, port
counts, cache latencies, branch refill) is enforced, which is what determines
the *relative* overheads the paper reports.
"""

from __future__ import annotations

import functools
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional

from repro.core.config import WatchdogConfig
from repro.isa.microops import UopKind, WATCHDOG_KINDS
from repro.isa.registers import NUM_REG_SLOTS, ArchReg
from repro.memory.hierarchy import MemoryHierarchy, PortKind
from repro.pipeline.config import MachineConfig
from repro.pipeline.resources import FunctionalUnits
from repro.sim.trace import TimedUop

# -- per-µop flag word of the compiled stream format ----------------------------------
# Bits 0-4 hold the UopKind code; the compiler (repro.sim.compiled) packs
# these and the array scheduler below consumes them.
FLAG_KIND_MASK = 31
FLAG_LQ = 32          #: µop occupies the load queue
FLAG_SQ = 64          #: µop occupies the store queue
FLAG_BRANCH = 128     #: µop is a branch
FLAG_MISPREDICT = 256  #: branch instance was mispredicted


@functools.lru_cache(maxsize=64)
def _derived_hierarchy_config(base, lock_cache_enabled: bool,
                              ideal_shadow: bool):
    """The machine's hierarchy config with the Watchdog knobs applied.

    Memoized: sweeps construct one core per cell, and rebuilding the frozen
    config dataclass (validation included) thousands of times is measurable.
    """
    return base.__class__(
        l1d=base.l1d, l2=base.l2, l3=base.l3, lock_cache=base.lock_cache,
        l1d_prefetcher=base.l1d_prefetcher, l2_prefetcher=base.l2_prefetcher,
        l1_tlb=base.l1_tlb, lock_tlb=base.lock_tlb,
        dram_latency=base.dram_latency,
        lock_cache_enabled=lock_cache_enabled, ideal_shadow=ideal_shadow)


@dataclass
class TimingResult:
    """Cycle count and supporting statistics for one timing run."""

    cycles: int
    total_uops: int
    injected_uops: int
    macro_instructions: int
    memory_accesses: int
    lock_cache_misses: int
    l1d_misses: int
    port_waits: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed µops per cycle."""
        return self.total_uops / self.cycles if self.cycles else 0.0

    @property
    def uop_overhead(self) -> float:
        base = self.total_uops - self.injected_uops
        return self.injected_uops / base if base else 0.0


class OutOfOrderCore:
    """Dependence/port/window-limited replay of a timed µop stream."""

    def __init__(self, machine: Optional[MachineConfig] = None,
                 watchdog: Optional[WatchdogConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 timecore: Optional[bool] = None):
        self.machine = machine or MachineConfig()
        self.watchdog = watchdog or WatchdogConfig()
        if hierarchy is None:
            # The Watchdog configuration decides whether the lock cache exists
            # and whether shadow accesses are idealized.
            hierarchy = MemoryHierarchy(_derived_hierarchy_config(
                self.machine.hierarchy, self.watchdog.lock_cache_enabled,
                self.watchdog.ideal_shadow))
        self.hierarchy = hierarchy
        #: Native timing core knob: ``None`` uses the kernel when available
        #: (still subject to ``REPRO_TIMECORE=0``), ``False`` forces the
        #: Python loops.  Propagated to the hierarchy's batch paths.
        self.timecore = timecore
        if timecore is not None:
            self.hierarchy.native_override = bool(timecore)
        self.units = FunctionalUnits(self.machine.functional_units, self.watchdog)

    # -- helpers -----------------------------------------------------------------
    def _memory_latency(self, timed: TimedUop) -> int:
        if timed.address is None:
            return self.machine.latency_for(timed.uop.kind)
        return self.hierarchy.access(timed.address, is_write=timed.is_write,
                                     port=timed.port)

    def _latency(self, timed: TimedUop) -> int:
        kind = timed.uop.kind
        if kind in (UopKind.LOAD, UopKind.SHADOW_LOAD, UopKind.CHECK,
                    UopKind.GETIDENT):
            return self._memory_latency(timed)
        if kind in (UopKind.STORE, UopKind.SHADOW_STORE, UopKind.SETIDENT,
                    UopKind.LOCK_PUSH, UopKind.LOCK_POP):
            # Stores retire from the store queue; their cache access is off the
            # critical path but still consumes hierarchy bandwidth/state.
            if timed.address is not None:
                self.hierarchy.access(timed.address, is_write=True, port=timed.port)
            return self.machine.latency_for(kind)
        return self.machine.latency_for(kind)

    # -- the scheduler -----------------------------------------------------------
    def simulate(self, timed_uops: Iterable[TimedUop]) -> TimingResult:
        """Replay the stream and return the cycle count."""
        machine = self.machine
        ready: Dict[ArchReg, int] = {}
        meta_ready: Dict[ArchReg, int] = {}

        rob: Deque[int] = deque()          # commit times of in-flight µops
        iq: Deque[int] = deque()           # issue times of dispatched µops
        lq: Deque[int] = deque()           # completion times of in-flight loads
        sq: Deque[int] = deque()           # completion times of in-flight stores

        dispatch_cycle = machine.fetch_latency + machine.rename_latency
        dispatched_in_cycle = 0
        fetch_stall_until = 0

        last_commit_time = 0
        commits_in_cycle = 0
        commit_cycle = 0

        total_uops = 0
        injected_uops = 0
        macro_instructions = 0
        memory_accesses = 0
        seen_macros = set()
        last_macro_seq = -1

        for timed in timed_uops:
            uop = timed.uop
            total_uops += uop.uop_cost
            if uop.is_injected:
                injected_uops += uop.uop_cost
            macro_seq = uop.macro_seq
            if macro_seq >= 0:
                # Injector-stamped µops: stamps are monotonic per dynamic
                # macro instance and shared by all µops of one expansion, so
                # a simple change detector counts macro instructions exactly
                # (unlike ``id()``, stamps are never reused after GC).
                if macro_seq != last_macro_seq:
                    last_macro_seq = macro_seq
                    macro_instructions += 1
            elif uop.macro is not None and id(uop.macro) not in seen_macros:
                # Hand-built µop streams without stamps fall back to object
                # identity with periodic clearing (best-effort).
                seen_macros.add(id(uop.macro))
                macro_instructions += 1
                if len(seen_macros) > 65536:
                    seen_macros.clear()
            if timed.address is not None:
                memory_accesses += 1

            # ---- dispatch: front-end width, ROB/IQ/LQ/SQ occupancy ----------
            if dispatched_in_cycle >= machine.dispatch_width:
                dispatch_cycle += 1
                dispatched_in_cycle = 0
            dispatch_time = max(dispatch_cycle, fetch_stall_until)

            if len(rob) >= machine.rob_entries:
                dispatch_time = max(dispatch_time, rob.popleft())
            elif rob and rob[0] <= dispatch_time:
                rob.popleft()
            if len(iq) >= machine.iq_entries:
                dispatch_time = max(dispatch_time, iq.popleft())
            elif iq and iq[0] <= dispatch_time:
                iq.popleft()
            # LQ/SQ: like the ROB/IQ, entries whose µop has completed by the
            # dispatch point have left the queue — drain them before deciding
            # whether the queue is actually full and must stall dispatch.
            if uop.kind in (UopKind.LOAD, UopKind.SHADOW_LOAD):
                while lq and lq[0] <= dispatch_time:
                    lq.popleft()
                if len(lq) >= machine.lq_entries:
                    dispatch_time = max(dispatch_time, lq.popleft())
            elif uop.kind in (UopKind.STORE, UopKind.SHADOW_STORE):
                while sq and sq[0] <= dispatch_time:
                    sq.popleft()
                if len(sq) >= machine.sq_entries:
                    dispatch_time = max(dispatch_time, sq.popleft())

            if dispatch_time > dispatch_cycle:
                dispatch_cycle = dispatch_time
                dispatched_in_cycle = 0
            dispatched_in_cycle += uop.uop_cost

            # ---- issue: data + metadata dependences, then a port -------------
            operands_ready = dispatch_time + machine.dispatch_latency
            for src in uop.srcs:
                operands_ready = max(operands_ready, ready.get(src, 0))
            for src in uop.meta_srcs:
                operands_ready = max(operands_ready, meta_ready.get(src, 0))

            pool = self.units.pool_for(uop.kind)
            start = pool.reserve(operands_ready, occupancy=uop.uop_cost)
            latency = self._latency(timed)
            completion = start + latency

            # ---- writeback ----------------------------------------------------
            if uop.dest is not None and uop.kind not in WATCHDOG_KINDS:
                ready[uop.dest] = completion
            if uop.meta_dest is not None:
                meta_ready[uop.meta_dest] = completion

            # ---- branch misprediction refill ---------------------------------
            if uop.kind is UopKind.BRANCH and timed.mispredicted_branch:
                fetch_stall_until = max(fetch_stall_until,
                                        completion + machine.branch_misprediction_penalty)

            # ---- in-order commit ---------------------------------------------
            commit_time = max(completion, last_commit_time)
            if commit_time == commit_cycle:
                commits_in_cycle += uop.uop_cost
                if commits_in_cycle >= machine.commit_width:
                    commit_time += 1
                    commits_in_cycle = 0
            else:
                commit_cycle = commit_time
                commits_in_cycle = uop.uop_cost
            last_commit_time = commit_time

            # ---- occupancy bookkeeping -----------------------------------------
            rob.append(commit_time)
            iq.append(start)
            if uop.kind in (UopKind.LOAD, UopKind.SHADOW_LOAD):
                lq.append(completion)
            elif uop.kind in (UopKind.STORE, UopKind.SHADOW_STORE):
                sq.append(commit_time)

        cycles = max(last_commit_time, 1)
        port_waits = {name: pool.average_wait()
                      for name, pool in self.units.all_pools().items()}
        return TimingResult(
            cycles=cycles,
            total_uops=total_uops,
            injected_uops=injected_uops,
            macro_instructions=macro_instructions,
            memory_accesses=memory_accesses,
            lock_cache_misses=self.hierarchy.lock_cache.misses,
            l1d_misses=self.hierarchy.l1d.misses,
            port_waits=port_waits,
        )

    # -- the array scheduler -------------------------------------------------------
    def simulate_compiled(self, stream) -> TimingResult:
        """Replay a :class:`~repro.sim.compiled.CompiledStream`.

        Bit-identical to :meth:`simulate` over the equivalent ``TimedUop``
        stream (the golden equivalence tests enforce this), but consuming
        the stream's packed µop words instead of objects, in two passes:

        1. the memory hierarchy replays the packed access sequence in one
           batch (access order equals program order, so cache state and load
           latencies are independent of scheduling decisions),
        2. a tight integer loop schedules dispatch, operand readiness (flat
           register-slot scoreboards), port reservation, completion and
           in-order commit.

        When the native timing core is available (and ``timecore`` is not
        ``False``), both passes run inside the C kernel instead, with
        bit-identical results.
        """
        lib = self._native_lib()
        if lib is not None:
            return self._simulate_compiled_native(stream, lib)
        lats = stream.lat_template[:]
        self.hierarchy.access_batch(stream.mem_addr, stream.mem_spec,
                                    stream.mem_pos, lats)
        return self._schedule_python(stream, lats)

    def schedule_compiled(self, stream, lats) -> TimingResult:
        """Run only the scheduler pass over an already-filled latency array.

        The fused :meth:`simulate_compiled` replays the hierarchy and
        schedules in one call; a multi-core simulation instead interleaves
        the cores' hierarchy replays in epochs (so shared-level contention
        is ordered across cores) and then schedules each core's stream over
        the latencies its epochs produced.  Scheduling is per-core state
        only, so given equal latencies the result is bit-identical to the
        fused path — on the native and the Python scheduler alike.
        """
        lib = self._native_lib()
        if lib is not None:
            if not (isinstance(lats, array) and lats.typecode == "q"):
                lats = array("q", lats)
            return self._schedule_native(stream, lats, lib)
        return self._schedule_python(stream, lats)

    def _native_lib(self):
        """The loaded timing core, or ``None`` when disabled or unavailable."""
        if self.timecore is False:
            return None
        from repro.native import _timecore
        return _timecore.load()

    def _schedule_python(self, stream, lats) -> TimingResult:
        """Pass 2 of :meth:`simulate_compiled`: the Python array scheduler.

        Decodes the stream's packed words per call (no memo: a stream that
        is scheduled once pays once, and nothing extra stays pinned).
        """
        from repro.native._timecore import unpack_entry_words

        machine = self.machine

        # kind code -> port-pool index, honouring the Watchdog configuration
        # (check µops fall back to the data load ports without a lock cache).
        pools = list(self.units.all_pools().values())
        pool_index = {id(pool): i for i, pool in enumerate(pools)}
        pool_map = [0] * len(UopKind)
        for kind in UopKind:
            pool_map[kind.code] = pool_index[id(self.units.pool_for(kind))]
        free_times = [pool._next_free for pool in pools]
        pool_uses = [0] * len(pools)
        pool_waits = [0] * len(pools)

        ready = [0] * NUM_REG_SLOTS
        meta_ready = [0] * NUM_REG_SLOTS

        # FIFO queues as append-only lists with explicit head cursors (the
        # compiled loop never touches more than len(stream) entries, and
        # cursor arithmetic beats deque method calls).
        rob: list = []
        iq: list = []
        lq: list = []
        sq: list = []
        rob_append = rob.append
        iq_append = iq.append
        lq_append = lq.append
        sq_append = sq.append
        rob_head = iq_head = lq_head = sq_head = 0
        rob_len = iq_len = lq_len = sq_len = 0
        rob_size = machine.rob_entries
        iq_size = machine.iq_entries
        lq_size = machine.lq_entries
        sq_size = machine.sq_entries

        dispatch_width = machine.dispatch_width
        dispatch_latency = machine.dispatch_latency
        commit_width = machine.commit_width
        mispredict_penalty = machine.branch_misprediction_penalty

        dispatch_cycle = machine.fetch_latency + machine.rename_latency
        dispatched = 0
        fetch_stall = 0
        last_commit = 0
        commits = 0
        commit_cycle = 0

        for (flags, cost, dest, s0, s1, md, ms0, ms1), latency in \
                zip(unpack_entry_words(stream.words), lats):
            # ---- dispatch: front-end width, window occupancy ----------------
            if dispatched >= dispatch_width:
                dispatch_cycle += 1
                dispatched = 0
            t = dispatch_cycle
            if fetch_stall > t:
                t = fetch_stall
            if rob_len >= rob_size:
                v = rob[rob_head]
                rob_head += 1
                rob_len -= 1
                if v > t:
                    t = v
            elif rob_len and rob[rob_head] <= t:
                rob_head += 1
                rob_len -= 1
            if iq_len >= iq_size:
                v = iq[iq_head]
                iq_head += 1
                iq_len -= 1
                if v > t:
                    t = v
            elif iq_len and iq[iq_head] <= t:
                iq_head += 1
                iq_len -= 1
            if flags & 96:
                if flags & FLAG_LQ:
                    while lq_len and lq[lq_head] <= t:
                        lq_head += 1
                        lq_len -= 1
                    if lq_len >= lq_size:
                        v = lq[lq_head]
                        lq_head += 1
                        lq_len -= 1
                        if v > t:
                            t = v
                else:
                    while sq_len and sq[sq_head] <= t:
                        sq_head += 1
                        sq_len -= 1
                    if sq_len >= sq_size:
                        v = sq[sq_head]
                        sq_head += 1
                        sq_len -= 1
                        if v > t:
                            t = v
            if t > dispatch_cycle:
                dispatch_cycle = t
                dispatched = cost
            else:
                dispatched += cost

            # ---- issue: operand readiness, then a port ----------------------
            r = t + dispatch_latency
            if s0 >= 0:
                v = ready[s0]
                if v > r:
                    r = v
                if s1 >= 0:
                    v = ready[s1]
                    if v > r:
                        r = v
            if ms0 >= 0:
                v = meta_ready[ms0]
                if v > r:
                    r = v
                if ms1 >= 0:
                    v = meta_ready[ms1]
                    if v > r:
                        r = v
            p = pool_map[flags & 31]
            free = free_times[p]
            b = min(free)
            if b > r:
                start = b
                pool_waits[p] += b - r
            else:
                start = r
            free[free.index(b)] = start + cost
            pool_uses[p] += 1
            completion = start + latency

            # ---- writeback ---------------------------------------------------
            if dest >= 0:
                ready[dest] = completion
            if md >= 0:
                meta_ready[md] = completion

            # ---- branch misprediction refill --------------------------------
            if flags & FLAG_MISPREDICT:
                v = completion + mispredict_penalty
                if v > fetch_stall:
                    fetch_stall = v

            # ---- in-order commit --------------------------------------------
            c = completion
            if last_commit > c:
                c = last_commit
            if c == commit_cycle:
                commits += cost
                if commits >= commit_width:
                    c += 1
                    commits = 0
            else:
                commit_cycle = c
                commits = cost
            last_commit = c

            # ---- occupancy bookkeeping --------------------------------------
            rob_append(c)
            rob_len += 1
            iq_append(start)
            iq_len += 1
            if flags & FLAG_LQ:
                lq_append(completion)
                lq_len += 1
            elif flags & FLAG_SQ:
                sq_append(c)
                sq_len += 1

        for pool, uses, waited in zip(pools, pool_uses, pool_waits):
            pool.uses += uses
            pool.total_wait += waited
        port_waits = {name: pool.average_wait()
                      for name, pool in self.units.all_pools().items()}
        return TimingResult(
            cycles=max(last_commit, 1),
            total_uops=stream.total_uops,
            injected_uops=stream.injected_uops,
            macro_instructions=stream.macro_instructions,
            memory_accesses=stream.memory_accesses,
            lock_cache_misses=self.hierarchy.lock_cache.misses,
            l1d_misses=self.hierarchy.l1d.misses,
            port_waits=port_waits,
        )

    def _simulate_compiled_native(self, stream, lib) -> TimingResult:
        """Run both passes of :meth:`simulate_compiled` in the C kernel."""
        # The latency prefill is the stream's own arena; copy before the
        # hierarchy writes load latencies into it.
        lats = stream.lat_template[:]
        if len(stream.mem_addr):
            self.hierarchy._batch_native(lib, stream.mem_addr, stream.mem_spec,
                                         stream.mem_pos, lats, True)
        return self._schedule_native(stream, lats, lib)

    def _schedule_native(self, stream, lats, lib) -> TimingResult:
        """Pass 2 of :meth:`_simulate_compiled_native`: the C scheduler.

        ``lats`` is the post-hierarchy int64 latency array.
        """
        words = stream.words
        machine = self.machine
        pools = list(self.units.all_pools().values())
        pool_index = {id(pool): i for i, pool in enumerate(pools)}
        pool_map = array("q", bytes(8 * len(UopKind)))
        for kind in UopKind:
            pool_map[kind.code] = pool_index[id(self.units.pool_for(kind))]
        offsets = [0]
        flat_free: list = []
        for pool in pools:
            flat_free.extend(pool._next_free)
            offsets.append(len(flat_free))
        pool_free = array("q", flat_free)
        pool_off = array("q", offsets)
        pool_uses = array("q", bytes(8 * len(pools)))
        pool_waits = array("q", bytes(8 * len(pools)))
        # 64 slots covers every register index the packed format can encode,
        # independent of NUM_REG_SLOTS.
        ready = array("q", bytes(8 * 64))
        meta_ready = array("q", bytes(8 * 64))
        robq = array("q", bytes(8 * machine.rob_entries))
        iqq = array("q", bytes(8 * machine.iq_entries))
        lqq = array("q", bytes(8 * machine.lq_entries))
        sqq = array("q", bytes(8 * machine.sq_entries))
        cfg = array("q", (machine.dispatch_width, machine.dispatch_latency,
                          machine.commit_width,
                          machine.branch_misprediction_penalty,
                          machine.fetch_latency + machine.rename_latency,
                          machine.rob_entries, machine.iq_entries,
                          machine.lq_entries, machine.sq_entries))
        last_commit = lib.sched_run(
            cfg.buffer_info()[0], words.buffer_info()[0],
            lats.buffer_info()[0], len(words), ready.buffer_info()[0],
            meta_ready.buffer_info()[0], pool_map.buffer_info()[0],
            pool_free.buffer_info()[0], pool_off.buffer_info()[0],
            pool_uses.buffer_info()[0], pool_waits.buffer_info()[0],
            robq.buffer_info()[0], iqq.buffer_info()[0],
            lqq.buffer_info()[0], sqq.buffer_info()[0])

        for i, pool in enumerate(pools):
            # In-place: FunctionalUnits hands out the same list objects.
            pool._next_free[:] = pool_free[pool_off[i]:pool_off[i + 1]]
            pool.uses += pool_uses[i]
            pool.total_wait += pool_waits[i]
        port_waits = {name: pool.average_wait()
                      for name, pool in self.units.all_pools().items()}
        return TimingResult(
            cycles=max(last_commit, 1),
            total_uops=stream.total_uops,
            injected_uops=stream.injected_uops,
            macro_instructions=stream.macro_instructions,
            memory_accesses=stream.memory_accesses,
            lock_cache_misses=self.hierarchy.lock_cache.misses,
            l1d_misses=self.hierarchy.l1d.misses,
            port_waits=port_waits,
        )
