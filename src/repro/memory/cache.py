"""Set-associative cache model with LRU replacement.

Used for every level of the Table 2 hierarchy, including the 4KB lock
location cache of §4.2 (which uses "the same tagging, block size, and state
bits" as the other caches).  The model is a behavioural hit/miss simulator:
it tracks tags per set with LRU ordering and reports whether each access hit,
which the hierarchy converts into a latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    block_bytes: int = 64
    hit_latency: int = 3

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.block_bytes <= 0:
            raise ConfigurationError(f"cache {self.name}: sizes must be positive")
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ConfigurationError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"assoc*block ({self.associativity}*{self.block_bytes})")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    latency: int
    evicted_block: Optional[int] = None


class Cache:
    """One level of cache with LRU replacement and per-set tag arrays."""

    def __init__(self, config: CacheConfig):
        self.config = config
        #: set index -> OrderedDict of block address -> dirty flag (LRU order:
        #: oldest first).  Sets are allocated on first touch: a 16MB L3 has
        #: 16384 sets, and eagerly building an OrderedDict for each made
        #: hierarchy construction a measurable per-simulation cost.
        self._sets: Dict[int, OrderedDict] = {}
        # Geometry bound to plain attributes: the hot paths (and the native
        # kernel's arena marshalling) must not pay a property call per access.
        self._num_sets = config.num_sets
        self._block_bytes = config.block_bytes
        self._assoc = config.associativity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- geometry -----------------------------------------------------------
    def block_address(self, address: int) -> int:
        return address // self._block_bytes

    def set_index(self, block_address: int) -> int:
        return block_address % self._num_sets

    def _set_for(self, index: int) -> OrderedDict:
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set

    # -- access --------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Access ``address``; allocate on miss; return hit/miss and latency."""
        block = address // self._block_bytes
        cache_set = self._set_for(block % self._num_sets)

        if block in cache_set:
            cache_set.move_to_end(block)
            if is_write:
                cache_set[block] = True
            self.hits += 1
            return AccessResult(hit=True, latency=self.config.hit_latency)

        self.misses += 1
        evicted = None
        if len(cache_set) >= self._assoc:
            evicted, dirty = cache_set.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        cache_set[block] = is_write
        return AccessResult(hit=False, latency=self.config.hit_latency,
                            evicted_block=evicted)

    def lookup(self, address: int, is_write: bool = False) -> bool:
        """Demand access returning only hit/miss (no :class:`AccessResult`).

        State transitions and statistics are identical to :meth:`access`;
        this is the allocation-free variant the memory hierarchy's hot loops
        use — the caller derives the latency from the cache's configuration.
        """
        block = address // self._block_bytes
        cache_set = self._sets.get(block % self._num_sets)
        if cache_set is None:
            cache_set = self._sets[block % self._num_sets] = OrderedDict()
        if block in cache_set:
            cache_set.move_to_end(block)
            if is_write:
                cache_set[block] = True
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self._assoc:
            _, dirty = cache_set.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        cache_set[block] = is_write
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        block = address // self._block_bytes
        cache_set = self._sets.get(block % self._num_sets)
        return cache_set is not None and block in cache_set

    def install(self, address: int) -> None:
        """Install a block without counting it as a demand access (prefetch)."""
        block = address // self._block_bytes
        cache_set = self._set_for(block % self._num_sets)
        if block in cache_set:
            cache_set.move_to_end(block)
            return
        if len(cache_set) >= self._assoc:
            _, dirty = cache_set.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
        cache_set[block] = False

    # -- statistics ------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def misses_per_kilo_accesses(self) -> float:
        return 1000.0 * self.miss_rate

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def flush(self) -> None:
        self._sets.clear()
