"""Optional native kernel for the workload emitter.

The state-evolution core (:mod:`repro.workloads.state_core`) must emit the
generator's ops — or, in a §9.1 skip window, only advance past them — while
keeping the Mersenne-Twister position bit-identical to the pure-Python
emitter, which caps a Python loop at roughly a million ops per second.  This
module compiles a small C kernel (through the shared
:mod:`repro.native.build` machinery: the system C compiler, at first use,
cached on disk) that replicates CPython's MT19937 primitives — ``random()``
is two tempered words combined as ``genrand_res53`` and ``_randbelow(n)`` is
``getrandbits(n.bit_length())`` with rejection — and runs the one event loop
(``ff_emit``) over the core's shared slot arrays.  The twister is generated
in blocks: each twist regenerates all 624 state words and tempers them in
one vectorized pass, so a draw is a single load, and a call entering
mid-block tempers the block's remaining words once; the state handed back
to :mod:`random` is CPython's own ``(mt, mti)``.  The rich slots of the
cold-pool window are listed once per call (the window only moves at an
allocation bounce, which ends the call), so a cold pointer access is one
bounded draw into that list.

Given output buffers, ``ff_emit`` writes each op as token columns — a
:mod:`~repro.workloads.shapes` id, the address, the lock address and the
misprediction flag — finishing the event that crosses the requested count
(so up to ``MAX_EVENT_OPS - 1`` ops past it).  Given NULL buffers it only
advances, whole events only, while at least ``MAX_EVENT_OPS`` ops remain:
fast-forward is this same loop with the writes switched off.  Allocation
events bounce back to Python after their draws: the caller applies the
malloc/free against the real
:class:`~repro.allocator.runtime.InstrumentedRuntime` and patches the lock of
the event's GETIDENT/SETIDENT op.

The kernel is strictly optional: when no compiler is available, compilation
fails, the self-test disagrees with :mod:`random`, or ``REPRO_FFCORE=0`` is
set, :func:`load` returns ``None`` and the core runs the pure-Python mirror
of the loop.  Both are verified bit-identical, column for column, by the
golden fast-forward tests.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from pathlib import Path

from repro.native import build
from repro.sim.trace import NO_ADDRESS
from repro.workloads import shapes

#: Upper bound on the dynamic ops a single event can produce (an allocation
#: event that both frees and allocates: two 7-op runtime-call sequences).
MAX_EVENT_OPS = 14
#: Largest cold-pool window the kernel's per-call candidate list holds.
MAX_COLD_POOL = 256

#: ``scal`` slot layout shared with the C kernel (int64 in/out registers).
SCAL_REMAINING = 0
SCAL_VALUE_ROTATION = 1
SCAL_GLOBAL_CURSOR = 2
SCAL_CALL_DEPTH = 3
SCAL_N_ORDER = 4
SCAL_HOT_LEN = 5
SCAL_MTI = 6
SCAL_REASON = 7
SCAL_FREED_INDEX = 8
SCAL_ALLOC_SIZE = 9
#: Ops written so far (the next write position in the output buffers).
SCAL_POS = 10
#: Buffer positions of a bounced allocation event's GETIDENT (-1 when the
#: event freed nothing) and SETIDENT ops, whose locks Python patches.
SCAL_GETIDENT_POS = 11
SCAL_SETIDENT_POS = 12
SCAL_SLOTS = 16

#: ``ff_emit`` return/``SCAL_REASON`` codes.
REASON_DONE = 0
REASON_ALLOC = 1

_DEFINES = "".join(f"#define {name} {value}LL\n" for name, value in (
    ("MAX_EVENT_OPS", MAX_EVENT_OPS), ("MAX_COLD_POOL", MAX_COLD_POOL),
    ("NO_ADDR", NO_ADDRESS),
    ("SH_ALU_INT", shapes.SH_ALU_INT), ("SH_FADD", shapes.SH_FADD),
    ("SH_BRANCH", shapes.SH_BRANCH), ("SH_ADDR_BUMP", shapes.SH_ADDR_BUMP),
    ("SH_MEM", shapes.SH_MEM), ("SH_CALL", shapes.SH_CALL),
    ("SH_RET", shapes.SH_RET), ("SH_GETIDENT", shapes.SH_GETIDENT),
    ("SH_SETIDENT", shapes.SH_SETIDENT)))

_SOURCE = _DEFINES + r"""
/* Emit kernel: exact replica of the WorkloadCore event loop.
 *
 * MT19937 follows CPython's _randommodule.c: the 624-word state plus index
 * round-trips through random.Random.getstate()/setstate(), rnd53() is
 * genrand_res53 (two tempered words) before its exact scaling by 2^-53,
 * randbelow() is
 * _randbelow_with_getrandbits (top bits of one word, rejection-resampled).
 * Words are produced in tempered 624-word blocks (twist() below); entry
 * mid-block tempers the rest of the current block once (mt_init()).  The
 * event loop lists the cold-pool window's rich slots once per call.
 * Any change to the draw sequence here must match state_core.py exactly.
 */
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

/* The state words stay in the caller's buffer (``mt``/``mti`` is exactly
 * CPython's state); ``out`` holds their tempered outputs.  One twist
 * regenerates all 624 words and tempers them into ``out`` in the same
 * pass, four lanes at a time, so a draw is a single load. */
typedef uint32_t v4u __attribute__((vector_size(16)));
typedef struct {
    uint32_t *mt;
    int64_t mti;
    uint32_t out[MT_N] __attribute__((aligned(16)));
} MT;

static inline uint32_t temper(uint32_t y) {
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

static inline v4u temper4(v4u y) {
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* The state buffer has no alignment guarantee: lanes move through memcpy,
 * which compiles to unaligned vector loads and stores. */
static inline v4u load4(const uint32_t *p) {
    v4u v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* mt[kk..kk+3] from mt[kk..kk+4] and the four words ``far`` points at
 * (mt[kk + M], or the already-regenerated mt[kk + M - N]): no lane reads
 * a word another lane writes, since every dependence spans >= 227 words. */
static inline void twist4(uint32_t *mt, uint32_t *out, int kk,
                          const uint32_t *far) {
    v4u y = (load4(mt + kk) & 0x80000000u) | (load4(mt + kk + 1) & 0x7fffffffu);
    v4u v = load4(far) ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
    memcpy(mt + kk, &v, sizeof v);
    v = temper4(v);
    memcpy(out + kk, &v, sizeof v);
}

static inline void twist1(uint32_t *mt, uint32_t *out, int kk, uint32_t far,
                          uint32_t next) {
    uint32_t y = (mt[kk] & 0x80000000u) | (next & 0x7fffffffu);
    mt[kk] = far ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
    out[kk] = temper(mt[kk]);
}

static __attribute__((noinline)) void twist(MT *st) {
    uint32_t *mt = st->mt, *out = st->out;
    int kk;
    for (kk = 0; kk + 4 <= MT_N - MT_M; kk += 4)        /* 0..223 */
        twist4(mt, out, kk, mt + kk + MT_M);
    for (; kk < MT_N - MT_M; kk++)                      /* 224..226 */
        twist1(mt, out, kk, mt[kk + MT_M], mt[kk + 1]);
    for (; kk + 4 <= MT_N - 1; kk += 4)                 /* 227..622 */
        twist4(mt, out, kk, mt + kk + (MT_M - MT_N));
    twist1(mt, out, MT_N - 1, mt[MT_M - 1], mt[0]);
    st->mti = 0;
}

/* Enter mid-block: temper the words still to be drawn from this state. */
static void mt_init(MT *st, uint32_t *mtstate, int64_t mti) {
    int64_t i;
    st->mt = mtstate;
    st->mti = mti;
    for (i = mti; i < MT_N; i++)
        st->out[i] = temper(mtstate[i]);
}

static inline uint32_t genrand(MT *st) {
    if (__builtin_expect(st->mti >= MT_N, 0))
        twist(st);
    return st->out[st->mti++];
}

/* random() times 2^53: the integer k that genrand_res53 returns as k/2^53.
 * The loop compares it against thresh(p), never converting to double. */
static inline uint64_t rnd53(MT *st) {
    uint64_t a = genrand(st) >> 5;
    return (a << 26) | (genrand(st) >> 6);
}

/* The T with (rnd53() < T) == (random() < p): k/2^53 < p exactly when
 * k < p*2^53 (scaling by 2^53 is exact), i.e. when k < ceil(p*2^53). */
static uint64_t thresh(double p) {
    double r;
    uint64_t t;
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return 1ULL << 53;
    r = p * 9007199254740992.0;
    t = (uint64_t)r;
    return (double)t < r ? t + 1 : t;
}

static int64_t randbelow(MT *st, int64_t n) {
    int shift = 32 - (64 - __builtin_clzll((uint64_t)n));
    uint32_t r = genrand(st) >> shift;
    while ((int64_t)r >= n)
        r = genrand(st) >> shift;
    return (int64_t)r;
}

/* One ALU op: fp roll, then either three fp-register picks (FADD) or a
 * value-register rotation, a dependent-chain roll and an opcode choice. */
static int64_t alu(MT *st, uint64_t fp_compute, uint64_t chain_p,
                   int64_t *vr) {
    int64_t d, a, k;
    int chain;
    if (rnd53(st) < fp_compute) {
        d = randbelow(st, 6);
        a = randbelow(st, 6);
        return SH_FADD + (d * 6 + a) * 6 + randbelow(st, 6);
    }
    *vr = (*vr + 1) % 6;
    chain = rnd53(st) < chain_p;
    k = randbelow(st, 6);
    return SH_ALU_INT + (*vr * 2 + chain) * 5 + (k < 2 ? 0 : k - 1);
}

/* Write one op (the shape expression is evaluated, and its draws taken,
 * whether or not the op is written). */
#define PUT(sh, ad, lk, ms) do {                                        \
        int64_t sh_ = (sh);                                             \
        if (emit) {                                                     \
            o_shape[pos] = sh_; o_addr[pos] = (ad);                     \
            o_lock[pos] = (lk); o_mis[pos] = (ms);                      \
            pos++;                                                      \
        }                                                               \
        remaining--;                                                    \
    } while (0)

/* The malloc/free runtime-call body: six ALU ops, then the ident op on a
 * drawn pointer register (its lock is patched by the caller). */
#define RUNTIME_CALL(ident_base, ident_pos) do {                        \
        int i_;                                                         \
        for (i_ = 0; i_ < 6; i_++)                                      \
            PUT(alu(&st, fpc, chain_p, &vr), NO_ADDR, NO_ADDR, 0);      \
        ident_pos = pos;                                                \
        PUT((ident_base) + randbelow(&st, 6), NO_ADDR, NO_ADDR, 0);     \
    } while (0)

/* The event loop.  ``emit`` is a compile-time constant in each of its two
 * instantiations (see ff_emit), so the discard copy carries no writes and
 * no address arithmetic — only the draws and state updates. */
static inline __attribute__((always_inline)) long long event_loop(
    uint32_t *mtstate, long long *scal, const double *cd,
    const long long *ci, const long long *order, const long long *sizes,
    long long *cursors, const signed char *rich, const long long *bases,
    const long long *locks, long long *hot, long long *o_shape,
    long long *o_addr, long long *o_lock, long long *o_mis, const int emit)
{
    MT st;
    int64_t remaining = scal[0], vr = scal[1], gc = scal[2], depth = scal[3];
    int64_t n_order = scal[4], hot_len = scal[5], pos = scal[10];
    const uint64_t alloc_p = thresh(cd[0]), ac_hi = thresh(cd[1]);
    const uint64_t mem_hi = thresh(cd[2]), br_hi = thresh(cd[3]);
    const uint64_t ptr_f = thresh(cd[4]), word_f = thresh(cd[5]);
    const uint64_t wordfp_f = thresh(cd[6]), fpc = thresh(cd[7]);
    const uint64_t temporal = thresh(cd[8]), spatial = thresh(cd[9]);
    const uint64_t global_frac = thresh(cd[10]), load_f = thresh(cd[11]);
    const uint64_t mispredict = thresh(cd[12]), chain_p = thresh(0.35);
    const uint64_t bump_p = thresh(0.25), call_p = thresh(0.6);
    const int64_t span_g = ci[0], span_p = ci[1], ws = ci[2];
    const int64_t min_keep = ci[3], size_low = ci[4], size_nslots = ci[5];
    /* cold_pool <= MAX_COLD_POOL, hot_max <= 15 */
    const int64_t cold_pool = ci[6], hot_max = ci[7];
    const int64_t globals_base = ci[8], global_lock = ci[9];
    /* Emitting: finish the event crossing the count.  Advancing only:
     * whole events while no event can cross it. */
    const int64_t floor = emit ? 1 : MAX_EVENT_OPS;
    int64_t reason = 0, freed_idx = -1, alloc_size = 0;
    int64_t get_pos = -1, set_pos = -1;
    /* The cold-pool window: ``order``, ``rich`` and ``n_order`` only change
     * at an allocation bounce, which ends the call, so its rich slots are
     * listed once per call (on the first cold pointer access). */
    const int64_t pool = n_order < cold_pool ? n_order : cold_pool;
    const int64_t start = n_order - pool;
    int64_t cold_rich[MAX_COLD_POOL], n_cold_rich = -1;

    mt_init(&st, mtstate, scal[6]);
    while (remaining >= floor) {
        uint64_t roll = rnd53(&st);
        if (roll >= br_hi) {                           /* ALU op */
            PUT(alu(&st, fpc, chain_p, &vr), NO_ADDR, NO_ADDR, 0);
        } else if (roll >= mem_hi) {                   /* branch */
            int mis = rnd53(&st) < mispredict;
            vr = (vr + 1) % 6;
            PUT(SH_BRANCH + vr, NO_ADDR, NO_ADDR, mis);
        } else if (roll >= ac_hi) {                    /* memory op */
            uint64_t roll2 = rnd53(&st);
            int store = !(rnd53(&st) < load_f);
            int cls = roll2 < ptr_f ? 0 : roll2 < word_f ? 1
                : roll2 < wordfp_f ? 2 : 3;
            int64_t nbytes = cls == 3 ? 4 : 8, off = 0, addr, lock, ar, data;
            if (rnd53(&st) < global_frac || n_order == 0) {  /* global target */
                int64_t span = cls == 0 ? span_p : span_g;
                if (rnd53(&st) < spatial) {
                    if (emit)
                        off = gc % span;
                    gc += nbytes;
                } else {
                    off = randbelow(&st, span);
                }
                addr = globals_base + (off & ~(nbytes - 1));
                lock = global_lock;
            } else {                                   /* heap target */
                int64_t slot, size, limit;
                if (hot_len > 0 && rnd53(&st) < temporal) {
                    if (cls == 0) {
                        int64_t cnt = 0, tmp[16], i;
                        for (i = 0; i < hot_len; i++)
                            if (rich[hot[i]])
                                tmp[cnt++] = hot[i];
                        slot = cnt ? tmp[randbelow(&st, cnt)]
                                   : hot[randbelow(&st, hot_len)];
                    } else {
                        slot = hot[randbelow(&st, hot_len)];
                    }
                } else {
                    if (cls == 0) {
                        if (n_cold_rich < 0) {
                            int64_t j;
                            n_cold_rich = 0;
                            for (j = start; j < n_order; j++)
                                if (rich[order[j]])
                                    cold_rich[n_cold_rich++] = order[j];
                        }
                        slot = n_cold_rich
                            ? cold_rich[randbelow(&st, n_cold_rich)]
                            : order[start + randbelow(&st, pool)];
                    } else {
                        slot = order[start + randbelow(&st, pool)];
                    }
                    hot[hot_len++] = slot;
                    if (hot_len > hot_max) {
                        memmove(hot, hot + 1,
                                (size_t)(hot_len - 1) * sizeof(int64_t));
                        hot_len--;
                    }
                }
                size = sizes[slot];
                limit = size - nbytes;
                if (limit < 1)
                    limit = 1;
                if (rnd53(&st) < spatial) {
                    int64_t m = size > nbytes ? size : nbytes;
                    if (emit)
                        off = cursors[slot] % limit;
                    cursors[slot] = (cursors[slot] + nbytes) % m;
                } else {
                    off = randbelow(&st, limit);
                }
                addr = bases[slot] + (off & ~(nbytes - 1));
                lock = locks[slot];
            }
            ar = randbelow(&st, 6);                    /* address register */
            if (rnd53(&st) < bump_p)                       /* pointer refresh */
                PUT(SH_ADDR_BUMP + ar, NO_ADDR, NO_ADDR, 0);
            if (cls == 2) {
                data = randbelow(&st, 6);
            } else {
                vr = (vr + 1) % 6;
                data = vr;
            }
            PUT(SH_MEM + ((cls * 2 + store) * 6 + ar) * 6 + data, addr, lock, 0);
        } else if (roll >= alloc_p) {                  /* call / return */
            if (depth < 16 && rnd53(&st) < call_p) {
                depth++;
                PUT(SH_CALL, NO_ADDR, NO_ADDR, 0);
            } else if (depth > 0) {
                depth--;
                PUT(SH_RET, NO_ADDR, NO_ADDR, 0);
            }
        } else {                                       /* allocation event */
            if (n_order >= ws && n_order > min_keep) {
                freed_idx = randbelow(&st, n_order);
                RUNTIME_CALL(SH_GETIDENT, get_pos);
            }
            alloc_size = size_low + 16 * randbelow(&st, size_nslots);
            RUNTIME_CALL(SH_SETIDENT, set_pos);
            reason = 1;  /* Python applies the malloc/free effects */
            break;
        }
    }
    scal[0] = remaining; scal[1] = vr; scal[2] = gc; scal[3] = depth;
    scal[5] = hot_len; scal[6] = st.mti; scal[7] = reason;
    scal[8] = freed_idx; scal[9] = alloc_size; scal[10] = pos;
    scal[11] = get_pos; scal[12] = set_pos;
    return reason;
}

/* Emit into the four output columns, or only advance when they are NULL. */
long long ff_emit(uint32_t *mtstate, long long *scal, const double *cd,
                  const long long *ci, const long long *order,
                  const long long *sizes, long long *cursors,
                  const signed char *rich, const long long *bases,
                  const long long *locks, long long *hot,
                  long long *o_shape, long long *o_addr, long long *o_lock,
                  long long *o_mis)
{
    if (o_shape)
        return event_loop(mtstate, scal, cd, ci, order, sizes, cursors, rich,
                          bases, locks, hot, o_shape, o_addr, o_lock, o_mis,
                          1);
    return event_loop(mtstate, scal, cd, ci, order, sizes, cursors, rich,
                      bases, locks, hot, 0, 0, 0, 0, 0);
}

/* Draw-compatibility probe: ``n_d`` doubles then 8 bounded draws, so the
 * loader can verify this kernel against random.Random before trusting it. */
long long ff_selftest(uint32_t *mtstate, long long *mti_io, long long n_d,
                      double *dout, long long *iout)
{
    MT st;
    static const int64_t ns[8] = {6, 1, 192, 8192, 13, 7, 4096, 2000000};
    long long i;
    mt_init(&st, mtstate, *mti_io);
    for (i = 0; i < n_d; i++)
        dout[i] = rnd53(&st) * (1.0 / 9007199254740992.0);
    for (i = 0; i < 8; i++)
        iout[i] = randbelow(&st, ns[i]);
    *mti_io = st.mti;
    return 0;
}
"""

def _bind(so_path: Path):
    lib = ctypes.CDLL(str(so_path))
    lib.ff_emit.restype = ctypes.c_longlong
    lib.ff_emit.argtypes = [ctypes.c_void_p] * 15
    lib.ff_selftest.restype = ctypes.c_longlong
    lib.ff_selftest.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_longlong, ctypes.c_void_p,
                                ctypes.c_void_p]
    return lib


#: Words the self-test advances ``random.Random`` by before the kernel takes
#: over (entering mid-block), and the doubles (two words each) it then draws,
#: across the next two twists.
_SELFTEST_SKIP_WORDS = 601
_SELFTEST_DOUBLES = 360


def _self_test(lib) -> bool:
    """The kernel's RNG must reproduce random.Random draw for draw.

    The probe enters from a mid-block state, so the tempering of the
    block's remaining words on entry and the regeneration of whole blocks
    are both checked, along with the state handed back.
    """
    rng = random.Random(987654321)
    rng.getrandbits(32 * _SELFTEST_SKIP_WORDS)
    state = rng.getstate()
    mt = array("I", state[1][:624])
    mti = array("q", [state[1][624]])
    dout = array("d", [0.0] * _SELFTEST_DOUBLES)
    iout = array("q", [0] * 8)
    lib.ff_selftest(mt.buffer_info()[0], mti.buffer_info()[0],
                    _SELFTEST_DOUBLES, dout.buffer_info()[0],
                    iout.buffer_info()[0])
    expected_d = [rng.random() for _ in range(_SELFTEST_DOUBLES)]
    expected_i = [rng._randbelow(n)
                  for n in (6, 1, 192, 8192, 13, 7, 4096, 2000000)]
    end_state = rng.getstate()
    return (list(dout) == expected_d and list(iout) == expected_i
            and tuple(mt) == end_state[1][:624] and mti[0] == end_state[1][624])


def load():
    """The compiled kernel, or ``None`` when unavailable (memoized)."""
    return build.load_kernel("ffcore", _SOURCE, switch_env="REPRO_FFCORE",
                             dir_env="REPRO_FFCORE_DIR", bind=_bind,
                             self_test=_self_test)


def status():
    """Why the last :func:`load` decision went the way it did (or ``None``)."""
    return build.status("ffcore")
