"""Native timing core: the compiled pipeline's two hot loops in C.

The compiled trace pipeline runs each (trace × configuration) cell in two
passes — a batched memory-hierarchy replay
(:meth:`repro.memory.hierarchy.MemoryHierarchy.access_batch` /
:meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_batch`) and the
dispatch/ready/port-reservation/commit integer scheduler
(:meth:`repro.pipeline.core.OutOfOrderCore.simulate_compiled`).  Both are
pure integer state machines over packed arrays, which caps the Python
interpreter at a few hundred thousand µops per second.  This module compiles
them to a small C kernel through the shared :mod:`repro.native.build`
machinery (system cc, first use, cached on disk, self-tested at load).

* ``hier_batch`` — the flattened int64 form of the OrderedDict cache sets,
  TLBs and prefetcher streams (see ``MemoryHierarchy._batch_native``, which
  exports the state, runs the kernel and imports it back), plus the packed
  ``(addrs, specs, positions)`` access sequence, writing latencies into
  ``lats`` and counter deltas into a counter block.  One entry point serves
  both the counted (``access_batch``) and warm-up (``warm_batch``) variants,
  toggled by the ``collect`` config slot.  It reproduces the state
  transitions of calling :meth:`MemoryHierarchy.access` once per element.
* ``sched_run`` — per-µop words (flags, cost and the six register-slot
  operands in one int64 each), the post-hierarchy latency array, the
  flattened port-pool free times, and ring buffers for the ROB/IQ/LQ/SQ
  occupancy queues.  The stream compiler emits these words directly
  (:meth:`repro.sim.compiled.StreamCompiler.compile_measured`, through
  :func:`pack_entry_words`), so the kernel takes ``CompiledStream.words``
  as built.  It is a statement-for-statement replica of the Python array
  scheduler (``OutOfOrderCore._schedule_python``).

Every counter, LRU movement, latency and stall decision lands on the same
value as the Python path: the load-time self-test plus the timecore golden
tests enforce bit-identical ``TimingResult``/``HierarchyStats`` output.  The
kernel is strictly optional: ``REPRO_TIMECORE=0``, a missing compiler, a
failed build or a failed self-test all fall back to the Python path
silently.
"""

from __future__ import annotations

import ctypes
import weakref
from array import array
from collections import OrderedDict
from pathlib import Path

from repro.errors import CompiledTraceUnsupported
from repro.native import build

#: Number of int64 counter slots ``hier_batch`` accumulates into (layout
#: documented in the C source; applied back by :func:`run_batch`).
N_COUNTERS = 28

#: Layout indices of the hierarchy config block (:func:`_config_array`).
CFG_COLLECT = 2
CFG_STRIDE = 3

_SOURCE = r"""
/* Native timing core: batched hierarchy replay + the array scheduler.
 *
 * hier_batch reproduces a sequence of
 * repro.memory.hierarchy.MemoryHierarchy.access calls; sched_run replicates
 * repro.pipeline.core.OutOfOrderCore._schedule_python statement for
 * statement.  Any change to those Python paths must be mirrored here (the
 * load-time self-test and the timecore golden tests enforce equality).
 *
 * State encoding (produced by the run_batch marshaller in _timecore.py):
 *   cache set:  `assoc` consecutive int64 slots per set, oldest first,
 *               compacted; 0 = empty, else ((block + 1) << 1) | dirty.
 *   TLB:        `entries` slots, oldest first, 0 = empty, else page + 1.
 *   prefetcher: [count, last_block0, dir0, last_block1, dir1, ...].
 * These are exact images of the OrderedDict/list structures: a hit moves
 * the entry to the newest slot (move_to_end), an eviction drops slot 0
 * (popitem(last=False)).
 *
 * cfg layout (31 int64 slots):
 *   0 lock_cache_enabled, 1 ideal_shadow, 2 collect, 3 spec_stride,
 *   4-7   l1  num_sets, assoc, block_bytes, hit_latency,
 *   8-11  l2  ditto,   12-15 l3 ditto,   16-19 lock cache ditto,
 *   20 dram_latency,
 *   21-23 dtlb entries, page_bytes, miss_penalty,  24-26 lock tlb ditto,
 *   27-28 l1 prefetcher streams, depth,  29-30 l2 prefetcher ditto.
 *
 * counter layout (28 int64 slots, deltas the caller adds back):
 *   0-3   l1 hits, misses, evictions, writebacks,   4-7 l2,  8-11 l3,
 *   12-15 lock cache,  16-17 dtlb hits, misses,  18-19 lock tlb,
 *   20 l1-prefetches issued, 21 l2-prefetches issued,
 *   22-24 class access counts (data, lock, shadow),  25-27 class latency.
 *
 * collect=0 is warm_batch: identical state transitions, but the L1/lock
 * demand, TLB and L3-install counters stay untouched (L2/L3 demand and
 * prefetch issue still count).  warm_batch resets every statistic right
 * after, so no warm-up counter is ever observed.
 */
#include <stdint.h>
#include <string.h>

typedef long long i64;

/* Demand access to one ordered set.  Returns 1 on hit (entry moved to
 * newest, dirty |= write); on miss inserts (evicting the oldest if full)
 * and reports the eviction through *evicted / *wb. */
static i64 set_demand(i64 *ways, i64 assoc, i64 key, i64 dirty,
                      i64 *evicted, i64 *wb)
{
    i64 i, n = 0, hit = -1, e;
    for (i = 0; i < assoc; i++) {
        if (!ways[i])
            break;
        n = i + 1;
        if ((ways[i] >> 1) == key)
            hit = i;
    }
    if (hit >= 0) {
        e = ways[hit] | dirty;
        memmove(ways + hit, ways + hit + 1, (size_t)(n - 1 - hit) * 8);
        ways[n - 1] = e;
        return 1;
    }
    *evicted = 0;
    *wb = 0;
    if (n >= assoc) {
        *evicted = 1;
        if (ways[0] & 1)
            *wb = 1;
        memmove(ways, ways + 1, (size_t)(assoc - 1) * 8);
        n = assoc - 1;
    }
    ways[n] = (key << 1) | dirty;
    return 0;
}

/* Install without demand counting (prefetch / inclusive-L3 install):
 * refresh LRU if present (keeping the dirty bit), else insert clean,
 * accumulating evictions/writebacks into the given counter slots. */
static void set_install(i64 *ways, i64 assoc, i64 key, i64 *evicted, i64 *wb)
{
    i64 i, n = 0, hit = -1, e;
    for (i = 0; i < assoc; i++) {
        if (!ways[i])
            break;
        n = i + 1;
        if ((ways[i] >> 1) == key)
            hit = i;
    }
    if (hit >= 0) {
        e = ways[hit];
        memmove(ways + hit, ways + hit + 1, (size_t)(n - 1 - hit) * 8);
        ways[n - 1] = e;
        return;
    }
    if (n >= assoc) {
        *evicted += 1;
        if (ways[0] & 1)
            *wb += 1;
        memmove(ways, ways + 1, (size_t)(assoc - 1) * 8);
        n = assoc - 1;
    }
    ways[n] = key << 1;
}

/* Fully-associative LRU TLB access; returns 1 on hit. */
static i64 tlb_access(i64 *ent, i64 cap, i64 key)
{
    i64 i, n = 0, hit = -1;
    for (i = 0; i < cap; i++) {
        if (!ent[i])
            break;
        n = i + 1;
        if (ent[i] == key)
            hit = i;
    }
    if (hit >= 0) {
        memmove(ent + hit, ent + hit + 1, (size_t)(n - 1 - hit) * 8);
        ent[n - 1] = key;
        return 1;
    }
    if (n >= cap) {
        memmove(ent, ent + 1, (size_t)(cap - 1) * 8);
        n = cap - 1;
    }
    ent[n] = key;
    return 0;
}

/* StreamPrefetcher.on_miss: find a stream within `depth` blocks (first
 * match wins); allocate (oldest stream dropped, no issue) when none, else
 * retarget the stream and install the next `depth` blocks. */
static void pf_on_miss(i64 *pf, i64 streams, i64 depth, i64 *ways, i64 nsets,
                       i64 assoc, i64 block, i64 *evicted, i64 *wb,
                       i64 *issued)
{
    i64 n = pf[0], i, si = -1, d, dir;
    for (i = 0; i < n; i++) {
        d = block - pf[1 + 2 * i];
        if (d < 0)
            d = -d;
        if (d <= depth) {
            si = i;
            break;
        }
    }
    if (si < 0) {
        if (n >= streams) {
            memmove(pf + 1, pf + 3, (size_t)(2 * (streams - 1)) * 8);
            n = streams - 1;
        }
        pf[1 + 2 * n] = block;
        pf[2 + 2 * n] = 1;
        pf[0] = n + 1;
        return;
    }
    dir = block >= pf[1 + 2 * si] ? 1 : -1;
    pf[1 + 2 * si] = block;
    pf[2 + 2 * si] = dir;
    for (i = 1; i <= depth; i++) {
        i64 b = block + i * dir;
        if (b < 0)
            continue;
        *issued += 1;
        set_install(ways + (b % nsets) * assoc, assoc, b + 1, evicted, wb);
    }
}

/* MemoryHierarchy._access_beyond_l1: L2 demand (prefetcher on miss), then
 * L3 demand, then DRAM; returns the added latency.  L2/L3 counters always
 * accumulate, warm-up included. */
static i64 beyond_l1(const i64 *cfg, i64 *ctr, i64 *l2w, i64 *l3w, i64 *pf2,
                     i64 a, i64 write)
{
    i64 ev, wb;
    i64 block = a / cfg[10];
    if (set_demand(l2w + (block % cfg[8]) * cfg[9], cfg[9], block + 1, write,
                   &ev, &wb)) {
        ctr[4] += 1;
        return cfg[11];
    }
    ctr[5] += 1;
    ctr[6] += ev;
    ctr[7] += wb;
    pf_on_miss(pf2, cfg[29], cfg[30], l2w, cfg[8], cfg[9], block,
               &ctr[6], &ctr[7], &ctr[21]);
    block = a / cfg[14];
    if (set_demand(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                   write, &ev, &wb)) {
        ctr[8] += 1;
        return cfg[11] + cfg[15];
    }
    ctr[9] += 1;
    ctr[10] += ev;
    ctr[11] += wb;
    return cfg[11] + cfg[15] + cfg[20];
}

long long hier_batch(const long long *cfg, long long *ctr,
                     long long *l1w, long long *l2w, long long *l3w,
                     long long *lkw, long long *dtlb, long long *ltlb,
                     long long *pf1, long long *pf2, long long n,
                     const long long *addrs, const long long *specs,
                     const long long *pos, long long *lats)
{
    const i64 lock_en = cfg[0], ideal = cfg[1], collect = cfg[2];
    const i64 stride = cfg[3];
    i64 dtlb_last = -1, ltlb_last = -1;
    i64 k, ev, wb, dummy = 0;
    for (k = 0; k < n; k++) {
        i64 a = addrs[k];
        i64 spec = specs[k * stride];
        i64 port = spec & 3;
        i64 write = (spec >> 2) & 1;
        i64 lat, block, hit, page;
        if (port == 1 && lock_en) {
            /* -- dedicated lock location cache (no L1 prefetcher) ------- */
            page = a / cfg[25];
            if (page == ltlb_last) {
                ctr[18] += collect;
                lat = cfg[19];
            } else if (tlb_access(ltlb, cfg[24], page + 1)) {
                ctr[18] += collect;
                ltlb_last = page;
                lat = cfg[19];
            } else {
                ctr[19] += collect;
                ltlb_last = page;
                lat = cfg[26] + cfg[19];
            }
            block = a / cfg[18];
            hit = set_demand(lkw + (block % cfg[16]) * cfg[17], cfg[17],
                             block + 1, write, &ev, &wb);
            if (hit) {
                ctr[12] += collect;
            } else {
                if (collect) {
                    ctr[13] += 1;
                    ctr[14] += ev;
                    ctr[15] += wb;
                }
                lat += beyond_l1(cfg, ctr, l2w, l3w, pf2, a, write);
            }
        } else if (port == 2 && ideal) {
            /* Idealized shadow: a port-occupying L1 hit, no allocation. */
            if (collect) {
                lat = cfg[7];
                ctr[24] += 1;
                ctr[27] += lat;
                if (spec & 8)
                    lats[pos[k]] = lat;
            }
            continue;
        } else {
            /* -- the L1 data cache (data, shadow, lock-on-data) ---------- */
            page = a / cfg[22];
            if (page == dtlb_last) {
                ctr[16] += collect;
                lat = cfg[7];
            } else if (tlb_access(dtlb, cfg[21], page + 1)) {
                ctr[16] += collect;
                dtlb_last = page;
                lat = cfg[7];
            } else {
                ctr[17] += collect;
                dtlb_last = page;
                lat = cfg[23] + cfg[7];
            }
            block = a / cfg[6];
            hit = set_demand(l1w + (block % cfg[4]) * cfg[5], cfg[5],
                             block + 1, write, &ev, &wb);
            if (hit) {
                ctr[0] += collect;
            } else {
                if (collect) {
                    ctr[1] += 1;
                    ctr[2] += ev;
                    ctr[3] += wb;
                }
                pf_on_miss(pf1, cfg[27], cfg[28], l1w, cfg[4], cfg[5], block,
                           &ctr[2], &ctr[3], &ctr[20]);
                lat += beyond_l1(cfg, ctr, l2w, l3w, pf2, a, write);
            }
        }
        /* inclusive L3 install (demand accesses of every class) */
        block = a / cfg[14];
        if (collect)
            set_install(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                        &ctr[10], &ctr[11]);
        else
            set_install(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                        &dummy, &dummy);
        if (collect) {
            ctr[22 + port] += 1;
            ctr[25 + port] += lat;
            if (spec & 8)
                lats[pos[k]] = lat;
        }
    }
    return 0;
}

/* Write the indices of non-empty sets into `out`; returns how many.  Lets
 * the Python import walk only the touched sets of a 16384-set L3. */
long long occ_scan(const long long *ways, long long nsets, long long assoc,
                   long long *out)
{
    i64 i, n = 0;
    for (i = 0; i < nsets; i++)
        if (ways[i * assoc])
            out[n++] = i;
    return n;
}

/* sim.compiled._install_tail's inner loop: sequential warm install of `n`
 * addresses (clean lines; LRU refresh on re-touch, silent oldest-first
 * eviction when a set is full — no counters, warm-up is unobserved). */
long long warm_fill(i64 *ways, i64 nsets, i64 assoc, i64 block_bytes,
                    i64 n, const i64 *addrs)
{
    i64 k, block, dummy = 0;
    for (k = 0; k < n; k++) {
        block = addrs[k] / block_bytes;
        set_install(ways + (block % nsets) * assoc, assoc, block + 1,
                    &dummy, &dummy);
    }
    return 0;
}

/* OutOfOrderCore.simulate_compiled's integer scheduler.
 *
 * uops[k] packs one µop (pack_entry_words): bits 0-8 flags (kind code |
 * LQ 32 | SQ 64 | branch 128 | mispredict 256), bits 9-14 µop cost, then
 * six 6-bit register-slot fields (value + 1; 0 = none) for dest, s0, s1,
 * meta-dest, ms0, ms1 at bits 15/21/27/33/39/45.
 *
 * cfg: 0 dispatch_width, 1 dispatch_latency, 2 commit_width,
 *      3 mispredict_penalty, 4 first dispatch cycle (fetch+rename),
 *      5-8 ROB/IQ/LQ/SQ sizes.
 *
 * robq/iqq/lqq/sqq are caller-provided ring buffers of the queue sizes
 * (occupancy never exceeds size at append time, so size slots suffice).
 * pool_free is the concatenation of every pool's next-free list (offsets in
 * pool_off); final values are left in place for the caller to copy back.
 * Returns the last commit cycle. */
long long sched_run(const long long *cfg, const long long *uops,
                    const long long *lats, long long n, long long *ready,
                    long long *meta_ready, const long long *pool_map,
                    long long *pool_free, const long long *pool_off,
                    long long *pool_uses, long long *pool_waits,
                    long long *robq, long long *iqq, long long *lqq,
                    long long *sqq)
{
    const i64 DW = cfg[0], DL = cfg[1], CW = cfg[2], MP = cfg[3];
    const i64 ROB = cfg[5], IQ = cfg[6], LQ = cfg[7], SQ = cfg[8];
    i64 dispatch_cycle = cfg[4], dispatched = 0, fetch_stall = 0;
    i64 last_commit = 0, commits = 0, commit_cycle = 0;
    i64 rob_h = 0, rob_n = 0, iq_h = 0, iq_n = 0;
    i64 lq_h = 0, lq_n = 0, sq_h = 0, sq_n = 0;
    i64 k, i, v, idx;
    for (k = 0; k < n; k++) {
        i64 w = uops[k];
        i64 flags = w & 511;
        i64 cost = (w >> 9) & 63;
        i64 t, r, p, lo, hi, b, bi, start, completion, c, slot;

        /* ---- dispatch: front-end width, window occupancy -------------- */
        if (dispatched >= DW) {
            dispatch_cycle += 1;
            dispatched = 0;
        }
        t = dispatch_cycle;
        if (fetch_stall > t)
            t = fetch_stall;
        if (rob_n >= ROB) {
            v = robq[rob_h];
            if (++rob_h == ROB)
                rob_h = 0;
            rob_n -= 1;
            if (v > t)
                t = v;
        } else if (rob_n && robq[rob_h] <= t) {
            if (++rob_h == ROB)
                rob_h = 0;
            rob_n -= 1;
        }
        if (iq_n >= IQ) {
            v = iqq[iq_h];
            if (++iq_h == IQ)
                iq_h = 0;
            iq_n -= 1;
            if (v > t)
                t = v;
        } else if (iq_n && iqq[iq_h] <= t) {
            if (++iq_h == IQ)
                iq_h = 0;
            iq_n -= 1;
        }
        if (flags & 96) {
            if (flags & 32) {
                while (lq_n && lqq[lq_h] <= t) {
                    if (++lq_h == LQ)
                        lq_h = 0;
                    lq_n -= 1;
                }
                if (lq_n >= LQ) {
                    v = lqq[lq_h];
                    if (++lq_h == LQ)
                        lq_h = 0;
                    lq_n -= 1;
                    if (v > t)
                        t = v;
                }
            } else {
                while (sq_n && sqq[sq_h] <= t) {
                    if (++sq_h == SQ)
                        sq_h = 0;
                    sq_n -= 1;
                }
                if (sq_n >= SQ) {
                    v = sqq[sq_h];
                    if (++sq_h == SQ)
                        sq_h = 0;
                    sq_n -= 1;
                    if (v > t)
                        t = v;
                }
            }
        }
        if (t > dispatch_cycle) {
            dispatch_cycle = t;
            dispatched = cost;
        } else {
            dispatched += cost;
        }

        /* ---- issue: operand readiness, then a port -------------------- */
        r = t + DL;
        slot = ((w >> 15) & 63) - 1;  /* dest (consumed at writeback) */
        i = ((w >> 21) & 63) - 1;     /* s0 */
        if (i >= 0) {
            if (ready[i] > r)
                r = ready[i];
            i = ((w >> 27) & 63) - 1; /* s1 (only considered when s0 set) */
            if (i >= 0 && ready[i] > r)
                r = ready[i];
        }
        i = ((w >> 39) & 63) - 1;     /* ms0 */
        if (i >= 0) {
            if (meta_ready[i] > r)
                r = meta_ready[i];
            i = ((w >> 45) & 63) - 1; /* ms1 (only considered when ms0 set) */
            if (i >= 0 && meta_ready[i] > r)
                r = meta_ready[i];
        }
        p = pool_map[flags & 31];
        lo = pool_off[p];
        hi = pool_off[p + 1];
        bi = lo;
        b = pool_free[lo];
        for (i = lo + 1; i < hi; i++)
            if (pool_free[i] < b) {
                b = pool_free[i];
                bi = i;
            }
        if (b > r) {
            start = b;
            pool_waits[p] += b - r;
        } else {
            start = r;
        }
        pool_free[bi] = start + cost;
        pool_uses[p] += 1;
        completion = start + lats[k];

        /* ---- writeback ------------------------------------------------ */
        if (slot >= 0)
            ready[slot] = completion;
        slot = ((w >> 33) & 63) - 1;  /* meta dest */
        if (slot >= 0)
            meta_ready[slot] = completion;

        /* ---- branch misprediction refill ------------------------------ */
        if (flags & 256) {
            v = completion + MP;
            if (v > fetch_stall)
                fetch_stall = v;
        }

        /* ---- in-order commit ------------------------------------------ */
        c = completion;
        if (last_commit > c)
            c = last_commit;
        if (c == commit_cycle) {
            commits += cost;
            if (commits >= CW) {
                c += 1;
                commits = 0;
            }
        } else {
            commit_cycle = c;
            commits = cost;
        }
        last_commit = c;

        /* ---- occupancy bookkeeping ------------------------------------ */
        idx = rob_h + rob_n;
        if (idx >= ROB)
            idx -= ROB;
        robq[idx] = c;
        rob_n += 1;
        idx = iq_h + iq_n;
        if (idx >= IQ)
            idx -= IQ;
        iqq[idx] = start;
        iq_n += 1;
        if (flags & 32) {
            idx = lq_h + lq_n;
            if (idx >= LQ)
                idx -= LQ;
            lqq[idx] = completion;
            lq_n += 1;
        } else if (flags & 64) {
            idx = sq_h + sq_n;
            if (idx >= SQ)
                idx -= SQ;
            sqq[idx] = c;
            sq_n += 1;
        }
    }
    return last_commit;
}
"""


def _bind(so_path: Path):
    lib = ctypes.CDLL(str(so_path))
    p, q = ctypes.c_void_p, ctypes.c_longlong
    lib.hier_batch.restype = q
    lib.hier_batch.argtypes = [p] * 10 + [q] + [p] * 4
    lib.occ_scan.restype = q
    lib.occ_scan.argtypes = [p, q, q, p]
    lib.warm_fill.restype = q
    lib.warm_fill.argtypes = [p, q, q, q, q, p]
    lib.sched_run.restype = q
    lib.sched_run.argtypes = [p, p, p, q] + [p] * 11
    return lib


def pack_entry_words(uops):
    """Pack per-µop ``(flags, cost, dest, s0, s1, md, ms0, ms1)`` tuples
    into kernel words (layout at ``sched_run`` in the C source).

    Raises :class:`~repro.errors.CompiledTraceUnsupported` when a field
    overflows its width (a register slot outside -1..62, flags outside
    0..511 or a cost outside 0..63); the simulator then falls back to the
    reference pipeline.
    """
    words = array("q", bytes(8 * len(uops)))
    for i, (flags, cost, dest, s0, s1, md, ms0, ms1) in enumerate(uops):
        d = dest + 1
        a = s0 + 1
        b = s1 + 1
        m = md + 1
        x = ms0 + 1
        y = ms1 + 1
        # Nonzero iff any slot is outside 0..63 (i.e. -1..62 pre-shift),
        # flags outside 0..511 or cost outside 0..63.
        if (d | a | b | m | x | y) & -64 or flags & -512 or cost & -64:
            raise CompiledTraceUnsupported(
                f"µop fields {uops[i]} overflow the packed word format")
        words[i] = (flags | cost << 9 | d << 15 | a << 21 | b << 27
                    | m << 33 | x << 39 | y << 45)
    return words


def unpack_entry_words(words):
    """Per-µop ``(flags, cost, dest, s0, s1, md, ms0, ms1)`` tuples of
    packed kernel words (the inverse of :func:`pack_entry_words`)."""
    return [(w & 511, (w >> 9) & 63,
             ((w >> 15) & 63) - 1, ((w >> 21) & 63) - 1,
             ((w >> 27) & 63) - 1, ((w >> 33) & 63) - 1,
             ((w >> 39) & 63) - 1, ((w >> 45) & 63) - 1)
            for w in words]


#: Reusable int64 arenas.  String keys are per-role scratch arenas ("occ",
#: "ctr") recycled across calls; integer keys are free lists of pooled
#: state-export arenas by element count, recycled across *hierarchies* (see
#: :func:`_acquire_arena` / :func:`_release_arenas`) — a fresh cell's L3
#: export (16384 sets x 16 ways = 2MB) reuses a dead cell's arena instead
#: of allocating and zeroing a new one.  The engine is single-threaded per
#: process (parallelism is process-based), so sharing is safe.
_ARENAS = {}

#: Pooled arenas kept per size; beyond this, released arenas are dropped to
#: the allocator.  Sweeps run cells serially, so a handful per size covers
#: even a multi-core mix (one private set per core plus the shared set).
_POOL_LIMIT = 16


def _arena(role: str, size: int, zero: bool = True):
    """The per-role scratch arena, grown and (by default) zeroed."""
    arena = _ARENAS.get(role)
    if arena is None or len(arena) < size:
        arena = _ARENAS[role] = array("q", bytes(8 * size))
    elif zero:
        ctypes.memset(arena.buffer_info()[0], 0, 8 * len(arena))
    return arena


def _acquire_arena(size: int):
    """A zeroed ``size``-element int64 arena, reused from the pool if one
    of exactly this size is free, freshly allocated otherwise."""
    free = _ARENAS.get(size)
    if free:
        arena = free.pop()
        ctypes.memset(arena.buffer_info()[0], 0, 8 * size)
        return arena
    return array("q", bytes(8 * size))


def _release_arenas(arenas) -> None:
    """Return state-export arenas to the pool (capped per size)."""
    for arena in arenas:
        free = _ARENAS.setdefault(len(arena), [])
        if len(free) < _POOL_LIMIT:
            free.append(arena)


def _retire_state(state) -> None:
    """Release a state dict's pooled arenas (at most once per state).

    Routed through the ``weakref.finalize`` registered at export so that an
    explicit import-back and the owner's garbage collection can both trigger
    the release without ever double-pooling an arena.
    """
    release = state.pop("_release", None)
    if release is not None:
        release()


#: Role names of the shared-level arenas (kept in the backend's
#: ``_tc_shared`` dict and aliased into every attached core's ``_tc_state``).
_SHARED_ROLES = ("l2", "l3", "lk", "pf2")


def _private_parts(h):
    """Per-core structures (L1, TLBs, L1 prefetcher) with their role names."""
    caches = ((h.l1d, "l1"),)
    tlbs = ((h.dtlb, "dtlb"), (h.lock_tlb, "ltlb"))
    pfs = ((h.l1d_prefetcher, "pf1"),)
    return caches, tlbs, pfs


def _shared_parts(backend):
    """Shared-level structures (L2/L3/lock cache, L2 prefetcher) by role."""
    caches = ((backend.l2, "l2"), (backend.l3, "l3"),
              (backend.lock_cache, "lk"))
    tlbs = ()
    pfs = ((backend.l2_prefetcher, "pf2"),)
    return caches, tlbs, pfs


def _export_parts(state, caches, tlbs, pfs) -> None:
    """Flatten the given OrderedDict structures into pooled arenas.

    Every arena comes from :func:`_acquire_arena` (zeroed, recycled across
    hierarchies) and is recorded in ``state["_arenas"]`` so the state's
    finalizer can return it to the pool when the owner dies or syncs back.
    """
    acquired = state.setdefault("_arenas", [])
    for cache, role in caches:
        assoc = cache._assoc
        arena = _acquire_arena(cache._num_sets * assoc)
        acquired.append(arena)
        for idx, cset in cache._sets.items():
            i = idx * assoc
            for block, dirty in cset.items():
                arena[i] = (block + 1) << 1 | dirty
                i += 1
        state[role] = arena
    for tlb, role in tlbs:
        arena = _acquire_arena(tlb.config.entries)
        acquired.append(arena)
        i = 0
        for page in tlb._entries:
            arena[i] = page + 1
            i += 1
        state[role] = arena
    for pf, role in pfs:
        arena = _acquire_arena(1 + 2 * pf.config.streams)
        acquired.append(arena)
        arena[0] = len(pf._streams)
        i = 1
        for s in pf._streams:
            arena[i] = s.last_block
            arena[i + 1] = s.direction
            i += 2
        state[role] = arena


def _export_state(lib, h):
    """Flatten the hierarchy's OrderedDict state into persistent arenas.

    The arenas become the *authoritative* copy of the cache/TLB/prefetcher
    state: subsequent batches run the kernel directly on them with no
    per-batch marshalling, and the OrderedDicts are only rebuilt if someone
    asks (``MemoryHierarchy._tc_sync``) — the production flow never does: it
    reads counters, which are applied back after every batch, and its
    working-set warm-up fills the live arenas in place (:func:`cache_fill`).

    Private roles (L1/TLBs/L1 prefetcher) get fresh arenas per hierarchy;
    the shared roles (L2/L3/lock cache/L2 prefetcher) live in one arena set
    registered on the backend (``_tc_shared``) and are *aliased* into every
    attached core's state — the kernel then runs all cores' batches against
    the same shared-level memory, which is exactly the contention a
    multi-core replay needs.  ``state["shared"]`` keeps the identity of the
    backend dict the aliases came from, so :func:`attach_state` can detect
    when a shared-level sync has made them stale.
    """
    state = {"lib": lib, "cfg": _config_array(h.config)}
    _export_parts(state, *_private_parts(h))
    # When the hierarchy dies (or its state is imported back) the arenas
    # return to the pool; the finalizer closes over the arena list only, so
    # it neither pins the hierarchy nor can release twice.
    state["_release"] = weakref.finalize(h, _release_arenas, state["_arenas"])
    backend = h.shared
    tc_shared = backend.__dict__.get("_tc_shared")
    if tc_shared is None:
        tc_shared = {"lib": lib}
        _export_parts(tc_shared, *_shared_parts(backend))
        tc_shared["_release"] = weakref.finalize(
            backend, _release_arenas, tc_shared["_arenas"])
        backend.__dict__["_tc_shared"] = tc_shared
    state["shared"] = tc_shared
    for role in _SHARED_ROLES:
        state[role] = tc_shared[role]
    return state


def _import_parts(state, caches, tlbs, pfs) -> None:
    """Rebuild the given Python OrderedDict structures from arena state."""
    from repro.memory.prefetcher import _Stream

    lib = state["lib"]
    for cache, role in caches:
        assoc = cache._assoc
        nsets = cache._num_sets
        arena = state[role]
        occ = _arena("occ", nsets, zero=False)
        count = lib.occ_scan(arena.buffer_info()[0], nsets, assoc,
                             occ.buffer_info()[0])
        sets = {}
        for j in range(count):
            idx = occ[j]
            cset = OrderedDict()
            base = idx * assoc
            for i in range(base, base + assoc):
                e = arena[i]
                if not e:
                    break
                cset[(e >> 1) - 1] = bool(e & 1)
            sets[idx] = cset
        cache._sets = sets
    for tlb, role in tlbs:
        arena = state[role]
        entries = OrderedDict()
        for i in range(tlb.config.entries):
            e = arena[i]
            if not e:
                break
            entries[e - 1] = True
        tlb._entries = entries
    for pf, role in pfs:
        arena = state[role]
        pf._streams = [_Stream(last_block=arena[1 + 2 * i],
                               direction=arena[2 + 2 * i])
                       for i in range(arena[0])]


def import_private_state(state, h) -> None:
    """Rebuild one core's private structures (L1/TLBs/L1 prefetcher) and
    return the state's arenas to the pool."""
    _import_parts(state, *_private_parts(h))
    _retire_state(state)


def import_shared_state(state, backend) -> None:
    """Rebuild the backend's shared-level structures (L2/L3/lock/pf2) and
    return the state's arenas to the pool."""
    _import_parts(state, *_shared_parts(backend))
    _retire_state(state)


def _config_array(config):
    """The 31-slot int64 config block ``hier_batch`` expects (layout in C)."""
    levels = []
    for c in (config.l1d, config.l2, config.l3, config.lock_cache):
        levels += [c.num_sets, c.associativity, c.block_bytes, c.hit_latency]
    return array("q", [
        1 if config.lock_cache_enabled else 0,
        1 if config.ideal_shadow else 0,
        0, 0,  # collect / spec-stride, set per batch
        *levels,
        config.dram_latency,
        config.l1_tlb.entries, config.l1_tlb.page_bytes,
        config.l1_tlb.miss_penalty,
        config.lock_tlb.entries, config.lock_tlb.page_bytes,
        config.lock_tlb.miss_penalty,
        config.l1d_prefetcher.streams, config.l1d_prefetcher.depth,
        config.l2_prefetcher.streams, config.l2_prefetcher.depth])


def attach_state(lib, h):
    """The hierarchy's persistent arena state, exporting it on first use.

    A shared-level sync (:meth:`SharedMemoryBackend._tc_sync`) pops the
    backend's ``_tc_shared`` dict, which strands the aliases every attached
    core's state holds.  That staleness is detected here by identity: the
    private arenas are still authoritative, so they are imported back into
    the OrderedDicts, and the whole state is re-exported fresh (re-creating
    — or re-joining — the backend's shared arenas).
    """
    state = h.__dict__.get("_tc_state")
    if state is not None \
            and state["shared"] is not h.shared.__dict__.get("_tc_shared"):
        import_private_state(state, h)
        del h.__dict__["_tc_state"]
        state = None
    if state is None:
        state = h.__dict__["_tc_state"] = _export_state(lib, h)
    return state


def cache_fill(state, role, cache, pieces, limit) -> None:
    """Native form of :func:`repro.sim.compiled._install_tail`.

    Installs the last ``limit`` addresses of ``pieces`` (concatenated, in
    order) into the cache's live arena — for the shared roles, the backend's
    arena every attached core aliases; ``None`` installs everything.
    """
    if limit is not None:
        kept = []
        remaining = limit
        for piece in reversed(pieces):
            if remaining <= 0:
                break
            if len(piece) > remaining:
                piece = piece[len(piece) - remaining:]
            kept.append(piece)
            remaining -= len(piece)
        pieces = reversed(kept)
    tail = array("q")
    for piece in pieces:
        tail.extend(piece)
    if len(tail):
        state["lib"].warm_fill(
            state[role].buffer_info()[0], cache._num_sets, cache._assoc,
            cache._block_bytes, len(tail), tail.buffer_info()[0])


def run_batch(lib, h, addrs, specs, positions, lats, collect: bool) -> None:
    """Replay one access batch through the C kernel, in place of the
    per-access loop of ``access_batch`` (``collect=True``) / ``warm_batch``
    (False).

    On the first batch of a hierarchy the OrderedDict cache sets, TLBs and
    prefetcher streams are flattened into persistent int64 arenas
    (``h._tc_state``); later batches run the kernel on them directly.
    Counter deltas and stats are applied back after every batch, so all
    statistics stay exact at all times — only the OrderedDict *structures*
    go stale, and ``MemoryHierarchy._tc_sync`` rebuilds them on demand.
    ``specs`` may be a per-access sequence or a single int (warm-up);
    ``positions``/``lats`` are ignored when not collecting.
    """
    n = len(addrs)
    if not (isinstance(addrs, array) and addrs.typecode == "q"):
        addrs = array("q", addrs)
    if isinstance(specs, int):
        stride = 0
        specs = array("q", (specs,))
    else:
        stride = 1
        if not (isinstance(specs, array) and specs.typecode == "q"):
            specs = array("q", specs)
    pos_ptr = lat_ptr = None
    lats_q = lats_out = None
    if collect:
        if not (isinstance(positions, array) and positions.typecode == "q"):
            positions = array("q", positions)
        if isinstance(lats, array) and lats.typecode == "q":
            lats_q = lats
        else:
            lats_q = array("q", lats)
            lats_out = lats  # write the kernel's latencies back at the end
        pos_ptr = positions.buffer_info()[0]
        lat_ptr = lats_q.buffer_info()[0]

    state = attach_state(lib, h)
    cfg = state["cfg"]
    cfg[CFG_COLLECT] = 1 if collect else 0
    cfg[CFG_STRIDE] = stride
    ctr = _arena("ctr", N_COUNTERS)

    lib.hier_batch(
        cfg.buffer_info()[0], ctr.buffer_info()[0],
        state["l1"].buffer_info()[0], state["l2"].buffer_info()[0],
        state["l3"].buffer_info()[0], state["lk"].buffer_info()[0],
        state["dtlb"].buffer_info()[0], state["ltlb"].buffer_info()[0],
        state["pf1"].buffer_info()[0], state["pf2"].buffer_info()[0],
        n, addrs.buffer_info()[0], specs.buffer_info()[0], pos_ptr, lat_ptr)

    h.l1d.hits += ctr[0]
    h.l1d.misses += ctr[1]
    h.l1d.evictions += ctr[2]
    h.l1d.writebacks += ctr[3]
    h.l2.hits += ctr[4]
    h.l2.misses += ctr[5]
    h.l2.evictions += ctr[6]
    h.l2.writebacks += ctr[7]
    h.l3.hits += ctr[8]
    h.l3.misses += ctr[9]
    h.l3.evictions += ctr[10]
    h.l3.writebacks += ctr[11]
    h.lock_cache.hits += ctr[12]
    h.lock_cache.misses += ctr[13]
    h.lock_cache.evictions += ctr[14]
    h.lock_cache.writebacks += ctr[15]
    h.dtlb.hits += ctr[16]
    h.dtlb.misses += ctr[17]
    h.lock_tlb.hits += ctr[18]
    h.lock_tlb.misses += ctr[19]
    h.l1d_prefetcher.prefetches_issued += ctr[20]
    h.l2_prefetcher.prefetches_issued += ctr[21]
    # Per-core attribution of the shared-level traffic.  The lock counters
    # are collect-gated in the kernel and therefore zero here when warming;
    # the L2/L3 ones are not, but warm_batch resets them right after.
    shared = h.stats.shared
    shared["l2_hits"] += ctr[4]
    shared["l2_misses"] += ctr[5]
    shared["l3_hits"] += ctr[8]
    shared["l3_misses"] += ctr[9]
    shared["lock_hits"] += ctr[12]
    shared["lock_misses"] += ctr[13]
    shared["lock_evictions"] += ctr[14]
    shared["lock_writebacks"] += ctr[15]
    if collect:
        names = ("data",
                 "lock" if h.config.lock_cache_enabled else "lock-on-data",
                 "shadow-ideal" if h.config.ideal_shadow else "shadow")
        for code in (0, 1, 2):
            if ctr[22 + code]:
                h.stats.fold(names[code], ctr[22 + code], ctr[25 + code])
        if lats_out is not None:
            lats_out[:] = lats_q


def _self_test_hier(lib) -> bool:
    """The hierarchy kernel must match a sequence of ``access()`` calls."""
    import random

    from repro.memory.cache import CacheConfig
    from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
    from repro.memory.prefetcher import PrefetcherConfig
    from repro.memory.tlb import TLBConfig

    rng = random.Random(20120609)
    geometry = dict(
        l1d=CacheConfig("L1D", size_bytes=1024, associativity=2,
                        block_bytes=64, hit_latency=3),
        l2=CacheConfig("L2", size_bytes=4096, associativity=4,
                       block_bytes=64, hit_latency=10),
        l3=CacheConfig("L3", size_bytes=16384, associativity=4,
                       block_bytes=64, hit_latency=25),
        lock_cache=CacheConfig("LockLoc", size_bytes=512, associativity=2,
                               block_bytes=64, hit_latency=3),
        l1d_prefetcher=PrefetcherConfig(streams=2, depth=3),
        l2_prefetcher=PrefetcherConfig(streams=2, depth=4),
        l1_tlb=TLBConfig("DTLB", entries=4, miss_penalty=20),
        lock_tlb=TLBConfig("LockTLB", entries=2, miss_penalty=20),
        dram_latency=200)
    for lock_en, ideal in ((True, False), (False, True), (True, True)):
        config = HierarchyConfig(lock_cache_enabled=lock_en,
                                 ideal_shadow=ideal, **geometry)
        # Tiny geometry + mixed address locality: every path (hits, misses,
        # evictions, writebacks, TLB churn, both prefetch directions, lock
        # and shadow ports, idealized shadow) triggers within ~2k accesses.
        addrs, specs, positions = [], [], []
        for _ in range(1500):
            region = rng.randrange(3)
            if region == 0:
                a = rng.randrange(4096)
            elif region == 1:
                a = rng.randrange(1 << 20)
            else:
                a = rng.randrange(64) * 64 + rng.randrange(4) * (1 << 18)
            addrs.append(a)
            specs.append(rng.randrange(3) | rng.randrange(2) << 2 | 8)
            positions.append(len(positions))
        base = rng.randrange(1 << 16)
        for i in range(120):  # a descending run: negative-direction streams
            addrs.append(base + 64 * (120 - i))
            specs.append(8)
            positions.append(len(positions))
        # With native_override off, the batch methods are plain loops over
        # MemoryHierarchy.access — the reference the kernel must reproduce.
        ref = MemoryHierarchy(config)
        ref.native_override = False
        ker = MemoryHierarchy(config)
        lats_ref = [0] * len(addrs)
        lats_ker = array("q", bytes(8 * len(addrs)))
        ref.access_batch(addrs, specs, positions, lats_ref)
        ker._batch_native(lib, addrs, specs, positions, lats_ker, True)
        if list(lats_ker) != lats_ref or not _same_hierarchy(ref, ker):
            return False
        # Warm-up (collect=0) must leave the same state with zero counters.
        # The Python warm-up is the access loop above plus reset_stats(), so
        # the per-access-spec case reuses that reference; the scalar-spec
        # case (stride 0) needs only a short run of its own.
        ker_w = MemoryHierarchy(config)
        ker_w._batch_native(lib, addrs, specs, None, None, False)
        ker_w.reset_stats()
        ref.reset_stats()
        if not _same_hierarchy(ref, ker_w):
            return False
        ref_w = MemoryHierarchy(config)
        ref_w.native_override = False
        ker_w = MemoryHierarchy(config)
        ref_w.warm_batch(addrs[:300], 0)
        ker_w._batch_native(lib, addrs[:300], 0, None, None, False)
        ker_w.reset_stats()
        if not _same_hierarchy(ref_w, ker_w):
            return False
        # warm_fill must match the Python working-set install
        # (sim.compiled._install_tail) including tail-limit semantics.
        from repro.sim.compiled import _install_tail
        ref_f = MemoryHierarchy(config)
        ker_f = MemoryHierarchy(config)
        pieces = (addrs[:40], addrs[40:])
        state = attach_state(lib, ker_f)
        for cache_of, role, limit in (
                (lambda h: h.l1d, "l1", 6),
                (lambda h: h.l2, "l2", None)):
            _install_tail(cache_of(ref_f), pieces, limit)
            cache_fill(state, role, cache_of(ker_f), pieces, limit)
        if not _same_hierarchy(ref_f, ker_f):
            return False
    return True


def _same_hierarchy(a, b) -> bool:
    """Full state + counter equality, including LRU order."""
    a._tc_sync()
    b._tc_sync()
    for ca, cb in ((a.l1d, b.l1d), (a.l2, b.l2), (a.l3, b.l3),
                   (a.lock_cache, b.lock_cache)):
        if (ca.hits, ca.misses, ca.evictions, ca.writebacks) != \
                (cb.hits, cb.misses, cb.evictions, cb.writebacks):
            return False
        if set(ca._sets) != set(cb._sets):
            return False
        for idx, sa in ca._sets.items():
            if list(sa.items()) != list(cb._sets[idx].items()):
                return False
    for ta, tb in ((a.dtlb, b.dtlb), (a.lock_tlb, b.lock_tlb)):
        if (ta.hits, ta.misses) != (tb.hits, tb.misses):
            return False
        if list(ta._entries) != list(tb._entries):
            return False
    for pa, pb in ((a.l1d_prefetcher, b.l1d_prefetcher),
                   (a.l2_prefetcher, b.l2_prefetcher)):
        if pa.prefetches_issued != pb.prefetches_issued:
            return False
        if [(s.last_block, s.direction) for s in pa._streams] != \
                [(s.last_block, s.direction) for s in pb._streams]:
            return False
    return a.stats == b.stats


def _self_test_sched(lib) -> bool:
    """The scheduler kernel must match ``_schedule_python`` exactly."""
    import random
    from types import SimpleNamespace

    from repro.core.config import WatchdogConfig
    from repro.isa.microops import UopKind
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.core import OutOfOrderCore

    rng = random.Random(42)
    # Tiny windows and widths so every structural stall (ROB/IQ/LQ/SQ full,
    # dispatch width, commit width, fetch refill) occurs within ~1k µops.
    machine = MachineConfig(rob_entries=12, iq_entries=6, lq_entries=3,
                            sq_entries=3, dispatch_width=2, commit_width=2,
                            branch_misprediction_penalty=5)
    kinds = list(UopKind)
    uops, lat_template = [], []
    for _ in range(1200):
        kind = rng.choice(kinds)
        flags = kind.code
        if kind in (UopKind.LOAD, UopKind.SHADOW_LOAD):
            flags |= 32
        elif kind in (UopKind.STORE, UopKind.SHADOW_STORE):
            flags |= 64
        if kind is UopKind.BRANCH:
            flags |= 128
            if rng.random() < 0.3:
                flags |= 256
        s0 = rng.randrange(-1, 32)
        ms0 = rng.randrange(-1, 32)
        uops.append((flags, rng.choice((1, 1, 1, 2, 4)),
                     rng.randrange(-1, 32), s0,
                     rng.randrange(-1, 32) if s0 >= 0 else -1,
                     rng.randrange(-1, 32), ms0,
                     rng.randrange(-1, 32) if ms0 >= 0 else -1))
        lat_template.append(rng.choice((1, 1, 3, 3, 13, 23, 258)))
    stream = SimpleNamespace(
        words=pack_entry_words(uops), lat_template=array("q", lat_template),
        mem_pos=array("q"), mem_addr=array("q"), mem_spec=array("q"),
        total_uops=sum(u[1] for u in uops), injected_uops=0,
        macro_instructions=len(uops), memory_accesses=0)
    for config in (WatchdogConfig.isa_assisted_uaf(),
                   WatchdogConfig.no_lock_cache()):
        ref_core = OutOfOrderCore(machine=machine, watchdog=config,
                                  timecore=False)
        ker_core = OutOfOrderCore(machine=machine, watchdog=config)
        ref_result = ref_core.simulate_compiled(stream)
        ker_result = ker_core._simulate_compiled_native(stream, lib)
        if ker_result != ref_result:
            return False
        for rp, kp in zip(ref_core.units.all_pools().values(),
                          ker_core.units.all_pools().values()):
            if (rp._next_free, rp.uses, rp.total_wait) != \
                    (kp._next_free, kp.uses, kp.total_wait):
                return False
    return True


def _self_test(lib):
    """All kernels must reproduce the Python path before being trusted.

    Returns ``(ok, detail)`` — the failing stage's name lets the loader's
    refusal message say *which* kernel diverged.
    """
    for check, stage in ((_self_test_hier, "hier_batch/warm_fill"),
                         (_self_test_sched, "sched_run")):
        if not check(lib):
            return False, stage
    return True, None


def load():
    """The compiled timing core, or ``None`` when unavailable (memoized)."""
    return build.load_kernel("timecore", _SOURCE, switch_env="REPRO_TIMECORE",
                             dir_env="REPRO_TIMECORE_DIR", bind=_bind,
                             self_test=_self_test)


def status():
    """Why the last :func:`load` decision went the way it did (or ``None``)."""
    return build.status("timecore")
