"""The Table 2 memory hierarchy.

Models the cache hierarchy the paper simulates (§9.1, Table 2):

* 32KB 8-way L1 data cache (3 cycles) with a 4-stream prefetcher,
* 256KB 8-way private L2 (10 cycles) with an 8-stream prefetcher,
* 16MB 16-way shared L3 (25 cycles),
* DRAM behind a dual-channel DDR bus (16ns latency, ~50 core cycles at
  3.2GHz; we charge an end-to-end miss penalty),
* an optional 4KB 8-way *lock location cache* that is a peer of the L1 caches
  and is accessed by check µops and identifier allocation/deallocation
  (§4.2, Figure 4c), with its own small TLB,
* a small L1 data TLB; shadow accesses translate like normal accesses (§3.3).

The hierarchy returns a latency per access and accumulates hit/miss
statistics.  Distinct access *classes* let the Watchdog core route shadow
metadata accesses and lock-location accesses appropriately, including the
"idealized shadow accesses" ablation of §9.3 (metadata accesses occupy ports
but never miss and never displace data).
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.prefetcher import PrefetcherConfig, StreamPrefetcher
from repro.memory.tlb import TLB, TLBConfig


class PortKind(enum.Enum):
    """Which L1-level structure an access uses.

    ``DATA`` — the normal L1 data cache (program loads/stores and, when the
    lock location cache is disabled, check µops too).
    ``LOCK`` — the dedicated lock location cache.
    ``SHADOW`` — shadow metadata accesses; they use the L1 data cache but are
    tagged separately so the ideal-shadow ablation can special-case them.
    """

    DATA = "data"
    LOCK = "lock"
    SHADOW = "shadow"


#: Small-int port codes used by the compiled trace pipeline's packed access
#: specs (``spec = port | is_write << 2 | use_latency << 3``).
PORT_DATA, PORT_LOCK, PORT_SHADOW = 0, 1, 2
PORT_CODES = {PortKind.DATA: PORT_DATA, PortKind.LOCK: PORT_LOCK,
              PortKind.SHADOW: PORT_SHADOW}
SPEC_WRITE = 4
SPEC_USE_LATENCY = 8


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry and latency parameters (defaults follow Table 2)."""

    l1d: CacheConfig = CacheConfig("L1D", size_bytes=32 * 1024, associativity=8,
                                   block_bytes=64, hit_latency=3)
    l2: CacheConfig = CacheConfig("L2", size_bytes=256 * 1024, associativity=8,
                                  block_bytes=64, hit_latency=10)
    l3: CacheConfig = CacheConfig("L3", size_bytes=16 * 1024 * 1024, associativity=16,
                                  block_bytes=64, hit_latency=25)
    lock_cache: CacheConfig = CacheConfig("LockLoc", size_bytes=4 * 1024,
                                          associativity=8, block_bytes=64,
                                          hit_latency=3)
    l1d_prefetcher: PrefetcherConfig = PrefetcherConfig(streams=4, depth=4)
    l2_prefetcher: PrefetcherConfig = PrefetcherConfig(streams=8, depth=16)
    l1_tlb: TLBConfig = TLBConfig("DTLB", entries=64, miss_penalty=20)
    lock_tlb: TLBConfig = TLBConfig("LockTLB", entries=16, miss_penalty=20)
    dram_latency: int = 200
    #: Whether the dedicated lock location cache exists (Figure 9 ablation).
    lock_cache_enabled: bool = True
    #: Idealize shadow accesses: occupy ports, never miss, never allocate
    #: (§9.3 cache-pressure isolation experiment).
    ideal_shadow: bool = False


#: Access-class names in counter-slot order.  :class:`HierarchyStats` keeps
#: one integer counter pair per class; the dict views callers consume are
#: materialized on read.
_STAT_KINDS = ("data", "lock", "lock-on-data", "shadow", "shadow-ideal")
_STAT_INDEX = {name: i for i, name in enumerate(_STAT_KINDS)}

#: Shared-level (L2 / L3 / lock-location-cache) counters attributed to the
#: core that issued the access.  On a single-core hierarchy these mirror the
#: shared caches' own counters; on a multi-core hierarchy each core's stats
#: carry only its own share of the contention, while the cache objects
#: accumulate the global totals.
_SHARED_KEYS = ("l2_hits", "l2_misses", "l3_hits", "l3_misses",
                "lock_hits", "lock_misses", "lock_evictions",
                "lock_writebacks")


class HierarchyStats:
    """Aggregated access counts by class.

    The per-access path (:meth:`record`) is two integer-list stores rather
    than two string-keyed dict updates; ``accesses``/``total_latency``
    materialize dicts holding exactly the classes that were recorded, so
    readers see the same shape as before.
    """

    __slots__ = ("_counts", "_latency", "shared")

    def __init__(self):
        self._counts = [0] * len(_STAT_KINDS)
        self._latency = [0] * len(_STAT_KINDS)
        #: Per-core attribution of shared-level traffic (see
        #: :data:`_SHARED_KEYS`).  The demand paths fold into it; warm-up
        #: traffic is folded only where both the Python and native paths
        #: count it (L2/L3), and callers reset stats after warming anyway.
        self.shared = dict.fromkeys(_SHARED_KEYS, 0)

    def record(self, kind: str, latency: int) -> None:
        index = _STAT_INDEX[kind]
        self._counts[index] += 1
        self._latency[index] += latency

    def fold(self, kind: str, count: int, latency: int) -> None:
        """Merge one batch's accumulated count/latency for ``kind``."""
        index = _STAT_INDEX[kind]
        self._counts[index] += count
        self._latency[index] += latency

    @property
    def accesses(self) -> Dict[str, int]:
        return {name: count
                for name, count in zip(_STAT_KINDS, self._counts) if count}

    @property
    def total_latency(self) -> Dict[str, int]:
        return {name: latency
                for name, latency, count in zip(_STAT_KINDS, self._latency,
                                                self._counts) if count}

    def average_latency(self, kind: str) -> float:
        index = _STAT_INDEX.get(kind)
        if index is None or not self._counts[index]:
            return 0.0
        return self._latency[index] / self._counts[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchyStats):
            return NotImplemented
        return (self._counts == other._counts
                and self._latency == other._latency
                and self.shared == other.shared)

    def __repr__(self) -> str:
        return (f"HierarchyStats(accesses={self.accesses}, "
                f"total_latency={self.total_latency}, "
                f"shared={{{', '.join(f'{k}: {v}' for k, v in self.shared.items() if v)}}})")


class SharedMemoryBackend:
    """The shared levels of a (possibly multi-core) memory hierarchy.

    Holds the L2, the inclusive L3, the lock location cache and the L2
    prefetcher.  A single-core :class:`MemoryHierarchy` builds a private
    backend implicitly; a multi-core simulation builds one backend and hands
    it to every core's hierarchy, so the cores contend for the same shared
    state while keeping their L1s, L1 prefetchers and TLBs private.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        self.lock_cache = Cache(self.config.lock_cache)
        self.l2_prefetcher = StreamPrefetcher(self.config.l2_prefetcher,
                                              self.l2)

    def _tc_sync(self) -> None:
        """Rebuild the shared-level OrderedDicts from the native arenas.

        Once any attached core has run a native batch or native working-set
        warm-up, the shared-role arenas (``_tc_shared``) are the
        authoritative L2/L3/lock-cache state; later cores' native warm-ups
        fill them in place.  Only a Python-path reader or writer syncs.
        Popping the dict also invalidates every core's exported
        ``_tc_state`` (each holds a reference to it — see
        :func:`repro.native._timecore.attach_state`), so their next native
        batch re-exports against the rebuilt structures instead of running
        on arenas that no longer reflect reality.
        """
        state = self.__dict__.pop("_tc_shared", None)
        if state is not None:
            from repro.native import _timecore
            _timecore.import_shared_state(state, self)

    def reset_stats(self) -> None:
        for cache in (self.l2, self.l3, self.lock_cache):
            cache.reset_stats()
        self.l2_prefetcher.reset_stats()


class MemoryHierarchy:
    """L1D + lock location cache + L2 + L3 + DRAM with prefetchers and TLBs."""

    #: Per-instance override for the native timing core on the batch paths:
    #: ``None`` defers to the kernel's availability (and its
    #: ``REPRO_TIMECORE`` kill switch), ``False`` forces the Python loops,
    #: ``True`` is merely an explicit "use it when available".
    native_override: Optional[bool] = None

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 shared: Optional[SharedMemoryBackend] = None,
                 core_id: int = 0):
        if shared is None:
            shared = SharedMemoryBackend(config)
        elif config is not None and config != shared.config:
            raise ConfigurationError(
                "hierarchy config does not match the shared backend's")
        self.config = shared.config
        self.shared = shared
        self.core_id = core_id
        self.l1d = Cache(self.config.l1d)
        # The shared levels are plain attribute references into the backend:
        # every existing consumer (hot loops, arena marshalling, stats
        # readers) sees the same objects whether the backend is private to
        # this core or contended by several.
        self.l2 = shared.l2
        self.l3 = shared.l3
        self.lock_cache = shared.lock_cache
        self.l1d_prefetcher = StreamPrefetcher(self.config.l1d_prefetcher, self.l1d)
        self.l2_prefetcher = shared.l2_prefetcher
        self.dtlb = TLB(self.config.l1_tlb)
        self.lock_tlb = TLB(self.config.lock_tlb)
        self.stats = HierarchyStats()

    # -- lower levels --------------------------------------------------------
    def _access_beyond_l1(self, address: int, is_write: bool) -> int:
        """Access L2, then L3, then DRAM; return the added latency.

        Besides the shared caches' own (global) counters, the hit/miss is
        attributed to this core's ``stats.shared`` block — the quantity a
        multi-core simulation reports per core while the cache objects
        accumulate totals across all cores.
        """
        shared = self.stats.shared
        if self.l2.lookup(address, is_write):
            shared["l2_hits"] += 1
            return self.config.l2.hit_latency
        shared["l2_misses"] += 1
        self.l2_prefetcher.on_miss(address)
        if self.l3.lookup(address, is_write):
            shared["l3_hits"] += 1
            return self.config.l2.hit_latency + self.config.l3.hit_latency
        shared["l3_misses"] += 1
        return (self.config.l2.hit_latency + self.config.l3.hit_latency
                + self.config.dram_latency)

    # -- public access points --------------------------------------------------
    def access(self, address: int, is_write: bool = False,
               port: PortKind = PortKind.DATA) -> int:
        """Perform one access and return its total latency in cycles."""
        if self._tc_dirty():
            self._tc_sync()
        if port is PortKind.LOCK and self.config.lock_cache_enabled:
            return self._lock_access(address, is_write)
        if port is PortKind.SHADOW and self.config.ideal_shadow:
            # Idealized shadow: occupies a port (charged by the pipeline
            # model) but always behaves like an L1 hit and allocates nothing.
            latency = self.config.l1d.hit_latency
            self.stats.record("shadow-ideal", latency)
            return latency
        return self._data_access(address, is_write, port)

    def _data_access(self, address: int, is_write: bool, port: PortKind) -> int:
        latency = self.dtlb.access(address) + self.config.l1d.hit_latency
        if not self.l1d.lookup(address, is_write):
            self.l1d_prefetcher.on_miss(address)
            latency += self._access_beyond_l1(address, is_write)
        # The shared L3 is inclusive (as on the Sandy Bridge parts Table 2
        # mirrors): every demanded line is tracked there, so lines evicted
        # from the private levels — or installed into them by the prefetchers
        # — are found again in the L3 rather than re-fetched from memory.
        self.l3.install(address)
        kind = "shadow" if port is PortKind.SHADOW else (
            "lock-on-data" if port is PortKind.LOCK else "data")
        self.stats.record(kind, latency)
        return latency

    def _lock_access(self, address: int, is_write: bool) -> int:
        latency = self.lock_tlb.access(address) + self.config.lock_cache.hit_latency
        lock = self.lock_cache
        shared = self.stats.shared
        evictions = lock.evictions
        writebacks = lock.writebacks
        if lock.lookup(address, is_write):
            shared["lock_hits"] += 1
        else:
            shared["lock_misses"] += 1
            # lookup() evicts only on a miss, so the deltas land here.
            shared["lock_evictions"] += lock.evictions - evictions
            shared["lock_writebacks"] += lock.writebacks - writebacks
            latency += self._access_beyond_l1(address, is_write)
        self.l3.install(address)
        self.stats.record("lock", latency)
        return latency

    # -- batched access (compiled trace pipeline) -----------------------------
    #
    # The compiled pipeline separates hierarchy replay from µop scheduling:
    # the access *order* of a timed µop stream is its program order, so all
    # cache/TLB/prefetcher state transitions — and the load latencies the
    # scheduler needs — can be produced in one tight pass.  The two methods
    # below are semantically identical to calling :meth:`access` once per
    # element in sequence; they inline the L1/TLB hit paths and keep the
    # counters in locals, which is where the per-access overhead lives.

    def access_batch(self, addrs, specs, positions, lats) -> None:
        """Replay a demand-access sequence, filling per-µop load latencies.

        ``specs`` carries ``port | is_write << 2 | use_latency << 3`` per
        access; accesses with the use-latency bit store their latency into
        ``lats[positions[i]]`` (loads); the rest only update hierarchy state
        and statistics (stores retire at fixed latency off the critical
        path).  State transitions and statistics are bit-identical to the
        equivalent :meth:`access` sequence.

        When the native timing core is available (and not overridden off),
        the whole batch is replayed by the C kernel instead — with identical
        results by construction (see :mod:`repro.native._timecore`).  The
        stream compiler hands in ``array("q")`` columns, which the kernel
        consumes with zero per-batch marshalling; any other sequence type
        is converted on entry.
        """
        if len(addrs) and self.native_override is not False:
            from repro.native import _timecore
            lib = _timecore.load()
            if lib is not None:
                self._batch_native(lib, addrs, specs, positions, lats, True)
                return
        if self._tc_dirty():
            self._tc_sync()
        config = self.config
        lock_en = config.lock_cache_enabled
        ideal = config.ideal_shadow
        l1 = self.l1d
        l1_sets = l1._sets
        l1_nsets = l1.config.num_sets
        l1_bb = l1.config.block_bytes
        l1_assoc = l1.config.associativity
        l1_lat = config.l1d.hit_latency
        l1_hits = l1_misses = l1_evd = l1_wb = 0
        lk = self.lock_cache
        lk_sets = lk._sets
        lk_nsets = lk.config.num_sets
        lk_bb = lk.config.block_bytes
        lk_assoc = lk.config.associativity
        lk_lat = config.lock_cache.hit_latency
        lk_hits = lk_misses = lk_evd = lk_wb = 0
        l3 = self.l3
        l3_sets = l3._sets
        l3_nsets = l3.config.num_sets
        l3_bb = l3.config.block_bytes
        l3_assoc = l3.config.associativity
        l3_evd = l3_wb = 0
        dtlb = self.dtlb
        dtlb_map = dtlb._entries
        dtlb_pb = dtlb.config.page_bytes
        dtlb_cap = dtlb.config.entries
        dtlb_pen = dtlb.config.miss_penalty
        dtlb_hits = dtlb_misses = 0
        ltlb = self.lock_tlb
        ltlb_map = ltlb._entries
        ltlb_pb = ltlb.config.page_bytes
        ltlb_cap = ltlb.config.entries
        ltlb_pen = ltlb.config.miss_penalty
        ltlb_hits = ltlb_misses = 0
        dtlb_last = ltlb_last = -1
        beyond = self._access_beyond_l1
        prefetch = self.l1d_prefetcher.on_miss
        counts = [0, 0, 0]
        waits = [0, 0, 0]

        for a, spec, pos in zip(addrs, specs, positions):
            port = spec & 3
            if port == 1 and lock_en:
                # -- dedicated lock location cache (no L1 prefetcher) -------
                page = a // ltlb_pb
                if page == ltlb_last:
                    ltlb_hits += 1
                    lat = lk_lat
                elif page in ltlb_map:
                    ltlb_map.move_to_end(page)
                    ltlb_hits += 1
                    ltlb_last = page
                    lat = lk_lat
                else:
                    ltlb_misses += 1
                    if len(ltlb_map) >= ltlb_cap:
                        ltlb_map.popitem(last=False)
                    ltlb_map[page] = True
                    ltlb_last = page
                    lat = ltlb_pen + lk_lat
                block = a // lk_bb
                idx = block % lk_nsets
                cset = lk_sets.get(idx)
                if cset is None:
                    cset = lk_sets[idx] = OrderedDict()
                if block in cset:
                    cset.move_to_end(block)
                    lk_hits += 1
                    if spec & 4:
                        cset[block] = True
                else:
                    lk_misses += 1
                    if len(cset) >= lk_assoc:
                        _, dirty = cset.popitem(last=False)
                        lk_evd += 1
                        if dirty:
                            lk_wb += 1
                    cset[block] = True if spec & 4 else False
                    lat += beyond(a, bool(spec & 4))
            elif port == 2 and ideal:
                # Idealized shadow: a port-occupying L1 hit, no allocation.
                lat = l1_lat
                counts[2] += 1
                waits[2] += lat
                if spec & 8:
                    lats[pos] = lat
                continue
            else:
                # -- the L1 data cache (data, shadow, lock-on-data) ----------
                page = a // dtlb_pb
                if page == dtlb_last:
                    dtlb_hits += 1
                    lat = l1_lat
                elif page in dtlb_map:
                    dtlb_map.move_to_end(page)
                    dtlb_hits += 1
                    dtlb_last = page
                    lat = l1_lat
                else:
                    dtlb_misses += 1
                    if len(dtlb_map) >= dtlb_cap:
                        dtlb_map.popitem(last=False)
                    dtlb_map[page] = True
                    dtlb_last = page
                    lat = dtlb_pen + l1_lat
                block = a // l1_bb
                idx = block % l1_nsets
                cset = l1_sets.get(idx)
                if cset is None:
                    cset = l1_sets[idx] = OrderedDict()
                if block in cset:
                    cset.move_to_end(block)
                    l1_hits += 1
                    if spec & 4:
                        cset[block] = True
                else:
                    l1_misses += 1
                    if len(cset) >= l1_assoc:
                        _, dirty = cset.popitem(last=False)
                        l1_evd += 1
                        if dirty:
                            l1_wb += 1
                    cset[block] = True if spec & 4 else False
                    prefetch(a)
                    lat += beyond(a, bool(spec & 4))
            # inclusive L3 install (demand accesses of every class)
            block = a // l3_bb
            idx = block % l3_nsets
            cset = l3_sets.get(idx)
            if cset is None:
                cset = l3_sets[idx] = OrderedDict()
            if block in cset:
                cset.move_to_end(block)
            else:
                if len(cset) >= l3_assoc:
                    _, dirty = cset.popitem(last=False)
                    l3_evd += 1
                    if dirty:
                        l3_wb += 1
                cset[block] = False
            counts[port] += 1
            waits[port] += lat
            if spec & 8:
                lats[pos] = lat

        # -- merge local counters back into the shared statistics ------------
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.evictions += l1_evd
        l1.writebacks += l1_wb
        lk.hits += lk_hits
        lk.misses += lk_misses
        lk.evictions += lk_evd
        lk.writebacks += lk_wb
        shared = self.stats.shared
        shared["lock_hits"] += lk_hits
        shared["lock_misses"] += lk_misses
        shared["lock_evictions"] += lk_evd
        shared["lock_writebacks"] += lk_wb
        l3.evictions += l3_evd
        l3.writebacks += l3_wb
        dtlb.hits += dtlb_hits
        dtlb.misses += dtlb_misses
        ltlb.hits += ltlb_hits
        ltlb.misses += ltlb_misses
        names = ("data",
                 "lock" if lock_en else "lock-on-data",
                 "shadow-ideal" if ideal else "shadow")
        for code in (0, 1, 2):
            if counts[code]:
                self.stats.fold(names[code], counts[code], waits[code])

    def warm_batch(self, addrs, specs) -> None:
        """Replay accesses for warm-up: state transitions only, no counters.

        Callers reset every statistic right after warming, so only cache,
        TLB and prefetcher *state* is observable — skipping the counters
        makes the warm-up replay considerably cheaper.  ``specs`` is either
        a per-access sequence or one int applied to every address.  Shadow
        accesses under the ideal-shadow ablation change no state and are
        skipped entirely (matching :meth:`access`).
        """
        if len(addrs) and self.native_override is not False:
            from repro.native import _timecore
            lib = _timecore.load()
            if lib is not None:
                self._batch_native(lib, addrs, specs, None, None, False)
                return
        if self._tc_dirty():
            self._tc_sync()
        if isinstance(specs, int):
            specs = itertools.repeat(specs)
        config = self.config
        lock_en = config.lock_cache_enabled
        ideal = config.ideal_shadow
        l1 = self.l1d
        l1_sets = l1._sets
        l1_nsets = l1.config.num_sets
        l1_bb = l1.config.block_bytes
        l1_assoc = l1.config.associativity
        lk = self.lock_cache
        lk_sets = lk._sets
        lk_nsets = lk.config.num_sets
        lk_bb = lk.config.block_bytes
        lk_assoc = lk.config.associativity
        l3 = self.l3
        l3_sets = l3._sets
        l3_nsets = l3.config.num_sets
        l3_bb = l3.config.block_bytes
        l3_assoc = l3.config.associativity
        dtlb_map = self.dtlb._entries
        dtlb_pb = self.dtlb.config.page_bytes
        dtlb_cap = self.dtlb.config.entries
        ltlb_map = self.lock_tlb._entries
        ltlb_pb = self.lock_tlb.config.page_bytes
        ltlb_cap = self.lock_tlb.config.entries
        dtlb_last = ltlb_last = -1
        beyond = self._access_beyond_l1
        prefetch = self.l1d_prefetcher.on_miss

        for a, spec in zip(addrs, specs):
            port = spec & 3
            if port == 1 and lock_en:
                page = a // ltlb_pb
                if page != ltlb_last:
                    if page in ltlb_map:
                        ltlb_map.move_to_end(page)
                    else:
                        if len(ltlb_map) >= ltlb_cap:
                            ltlb_map.popitem(last=False)
                        ltlb_map[page] = True
                    ltlb_last = page
                block = a // lk_bb
                idx = block % lk_nsets
                cset = lk_sets.get(idx)
                if cset is None:
                    cset = lk_sets[idx] = OrderedDict()
                if block in cset:
                    cset.move_to_end(block)
                    if spec & 4:
                        cset[block] = True
                else:
                    if len(cset) >= lk_assoc:
                        cset.popitem(last=False)
                    cset[block] = True if spec & 4 else False
                    beyond(a, bool(spec & 4))
            elif port == 2 and ideal:
                continue
            else:
                page = a // dtlb_pb
                if page != dtlb_last:
                    if page in dtlb_map:
                        dtlb_map.move_to_end(page)
                    else:
                        if len(dtlb_map) >= dtlb_cap:
                            dtlb_map.popitem(last=False)
                        dtlb_map[page] = True
                    dtlb_last = page
                block = a // l1_bb
                idx = block % l1_nsets
                cset = l1_sets.get(idx)
                if cset is None:
                    cset = l1_sets[idx] = OrderedDict()
                if block in cset:
                    cset.move_to_end(block)
                    if spec & 4:
                        cset[block] = True
                else:
                    if len(cset) >= l1_assoc:
                        cset.popitem(last=False)
                    cset[block] = True if spec & 4 else False
                    prefetch(a)
                    beyond(a, bool(spec & 4))
            block = a // l3_bb
            idx = block % l3_nsets
            cset = l3_sets.get(idx)
            if cset is None:
                cset = l3_sets[idx] = OrderedDict()
            if block in cset:
                cset.move_to_end(block)
            else:
                if len(cset) >= l3_assoc:
                    cset.popitem(last=False)
                cset[block] = False

    def _batch_native(self, lib, addrs, specs, positions, lats,
                      collect: bool) -> None:
        """Replay one batch through an already-loaded native timing core.

        The marshalling (OrderedDicts to int64 arenas and back) lives with
        the kernel in :mod:`repro.native._timecore`; this indirection exists
        so the kernel's load-time self-test can drive a candidate library
        against hierarchies whose ``native_override`` forces the Python path.
        """
        from repro.native import _timecore
        _timecore.run_batch(lib, self, addrs, specs, positions, lats, collect)

    def _tc_dirty(self) -> bool:
        """True when native arenas are the authoritative hierarchy state.

        Either this core's private arenas (``_tc_state``) or the backend's
        shared-level arenas (``_tc_shared``) may be live: with several cores
        attached to one backend, *another* core's native batch or native
        working-set warm-up makes the shared L2/L3/lock-cache OrderedDicts
        stale even if this core never exported private state.
        """
        return ("_tc_state" in self.__dict__
                or "_tc_shared" in self.shared.__dict__)

    def _tc_sync_private(self) -> None:
        """Rebuild only this core's private structures (L1/TLBs/L1
        prefetcher) from its native arenas, leaving the shared levels live.

        The native working-set warm-up uses this: it fills the shared
        arenas in place and mutates no Python structure but the private
        TLBs.  Importing returns the state's pooled arenas (see
        ``_timecore._ARENAS``), so the next export reuses them.  No-op when
        this core has no exported state.
        """
        state = self.__dict__.pop("_tc_state", None)
        if state is not None:
            from repro.native import _timecore
            _timecore.import_private_state(state, self)

    def _tc_sync(self) -> None:
        """Rebuild every OrderedDict structure from the native arena state.

        After a native batch or native working-set warm-up the int64 arenas
        are the authoritative cache/TLB/prefetcher state and the
        OrderedDicts are stale; counters and stats are always exact.  Every
        Python path that reads or mutates the structures directly syncs
        first; the compiled flow with the kernel loaded never needs to (it
        consumes counters only, and its warm-up fills the live shared
        arenas in place).  Private roles import from this core's state
        (:meth:`_tc_sync_private`), shared roles from the backend's — the
        latter invalidating every other core's exported state along the
        way.  No-op when no native batch has run.
        """
        self._tc_sync_private()
        self.shared._tc_sync()

    # -- statistics ----------------------------------------------------------
    def lock_cache_mpki(self, instructions: int) -> float:
        """Lock location cache misses per 1000 instructions (§9.3)."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.lock_cache.misses / instructions

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.l3, self.lock_cache):
            cache.reset_stats()
        self.dtlb.reset_stats()
        self.lock_tlb.reset_stats()
        self.l1d_prefetcher.reset_stats()
        self.l2_prefetcher.reset_stats()
        self.stats = HierarchyStats()
