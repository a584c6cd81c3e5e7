"""Compiled µop streams: template-based trace expansion into packed arrays.

The object pipeline (:class:`~repro.sim.trace.TraceExpander` feeding
:meth:`~repro.pipeline.core.OutOfOrderCore.simulate`) allocates a
``MicroOp``/``TimedUop`` pair for every µop of every (benchmark ×
configuration) cell and re-runs decode + injection per dynamic instance.
This module replaces that hot path with a three-step compilation:

1. **Tokenization** (configuration-independent, once per trace): every
   dynamic op is reduced to the *identity* of its static instruction —
   opcode, register operands, access size, pointer hint — plus its dynamic
   annotations (effective address, lock location, misprediction flag).
   Identities are interned, so a trace becomes four parallel arrays.

2. **Template expansion** (once per identity per configuration class): the
   real injector expands each unique identity once
   (:func:`repro.core.uop_injection.compile_template`); the expansion is
   lowered into numeric per-µop tuples (kind/queue/branch flags, µop cost,
   register *slots* instead of ``ArchReg`` objects) plus address-derivation
   rules from :data:`repro.sim.trace.ANNOTATION_RULES`.

3. **Stream packing** (once per configuration class): replaying the token
   arrays through the template table yields one :class:`CompiledStream` —
   flat ``array("q")`` columns in the native kernel's wire format (packed
   µop words, a latency prefill, and the memory-access sequence the
   hierarchy replays in a single batch) — along with exact
   injection/pointer/page statistics reconstructed from per-template
   deltas.  Each template's µop words are packed once at build time, so
   stream assembly is pure ``array.extend`` and the kernel consumes the
   stream with zero further marshalling; per-µop tuples are rebuilt on
   demand (:attr:`CompiledStream.uops`) only for the Python fallback
   scheduler.  A template whose cost or register slots exceed the packed
   field widths makes the whole stream tuple-only, exactly as the old
   post-hoc packing did.

Two Watchdog configurations that inject identically (same ``enabled``,
pointer-identification mode, bounds mode and copy-elimination setting) share
one compiled stream: the *class key* deliberately excludes knobs that only
affect timing (lock cache, idealized shadow).  The array scheduler that
consumes these streams lives in
:meth:`repro.pipeline.core.OutOfOrderCore.simulate_compiled`; the golden
equivalence tests pin it bit-for-bit to the object pipeline.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.native._timecore import pack_entry_words, unpack_words

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdStats
from repro.core.uop_injection import InjectionStats, compile_template
from repro.errors import ProgramError
from repro.isa.instructions import Instruction
from repro.isa.microops import UopKind, WATCHDOG_KINDS
from repro.isa.registers import RegClass, reg_slot
from repro.memory.address_space import SHADOW_BIT
from repro.memory.hierarchy import (
    PORT_CODES,
    PORT_DATA,
    PORT_LOCK,
    PORT_SHADOW,
    SPEC_USE_LATENCY,
    SPEC_WRITE,
)
from repro.memory.pages import PageAccountant
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import (
    FLAG_BRANCH,
    FLAG_LQ,
    FLAG_MISPREDICT,
    FLAG_SQ,
)
from repro.sim.trace import (
    ADDR_DATA,
    ADDR_FRAME_PUSH,
    ADDR_FRAME_POP,
    ADDR_LOCK,
    ADDR_NONE,
    ADDR_SHADOW,
    ANNOTATION_RULES,
    DynamicOp,
    HIERARCHY_LATENCY_KINDS,
    LQ_KINDS,
    NO_ADDRESS,
    SQ_KINDS,
    TraceExpander,
    TraceTokens,
)

_M47 = 1 << 47

#: Uniform warm-up access specs (read accesses on each port).
SPEC_DATA_READ = PORT_DATA
SPEC_LOCK_READ = PORT_LOCK
SPEC_SHADOW_READ = PORT_SHADOW


class CompiledTraceUnsupported(ProgramError):
    """The trace contains a shape the compiled pipeline does not pack.

    Raised for instructions with more than two register (or metadata)
    sources; the simulator falls back to the reference object pipeline.
    """


def stream_class_key(config: WatchdogConfig) -> tuple:
    """The configuration-equivalence class of a compiled stream.

    Exactly the knobs that change which µops are injected and how they are
    annotated; lock-cache presence, idealized shadow and halt-on-violation
    only affect *timing* and therefore share streams.
    """
    return (config.enabled, config.pointer_identification,
            config.bounds_mode, config.copy_elimination)


# -- tokenization ---------------------------------------------------------------------

def tokenize(trace: Union[TraceTokens, Iterable[DynamicOp]]) -> TraceTokens:
    """Intern a dynamic trace into parallel (tid, address, lock, mis) arrays.

    A :class:`TraceTokens` trace (what the synthetic generator emits) is
    returned unchanged.  Any other trace — a :class:`DynamicOp` sequence,
    e.g. recorded by the functional machine — is interned here.  The
    identity key covers every instruction field that can influence µop
    injection or timing annotation under the default (stateless) pointer
    identifiers: opcode, register operands, access size and pointer hint.
    Immediates, labels and comments are deliberately excluded — they never
    reach the timing model.  A missing address or lock becomes
    :data:`~repro.sim.trace.NO_ADDRESS`.

    Traces usually repeat a handful of :class:`Instruction` objects; those
    resolve through an ``id()``-keyed memo (the ``keepalive`` list pins the
    memoized objects, so an id can never be recycled mid-call) and only the
    first occurrence of each object pays for the structural key.
    """
    if isinstance(trace, TraceTokens):
        return trace
    key_to_tid = {}
    id_to_tid = {}
    keepalive: List[Instruction] = []
    insts: List[Instruction] = []
    tids = array("q")
    addrs = array("q")
    locks = array("q")
    mis = array("q")
    get = key_to_tid.get
    id_get = id_to_tid.get
    keep = keepalive.append
    int_class = RegClass.INT
    append_tid = tids.append
    append_addr = addrs.append
    append_lock = locks.append
    append_mis = mis.append

    for dop in trace:
        inst = dop.instruction
        tid = id_get(id(inst))
        if tid is None:
            srcs = inst.srcs
            n = len(srcs)
            if n > 2:
                raise CompiledTraceUnsupported(
                    f"instruction has {n} register sources "
                    f"(compiled limit: 2)")
            dest = inst.dest
            key = inst.opcode.code
            if dest is None:
                key = key * 33
            else:
                key = key * 33 + (dest.index + 1 if dest.regclass is int_class
                                  else dest.index + 17)
            if n:
                reg = srcs[0]
                key = key * 33 + (reg.index + 1 if reg.regclass is int_class
                                  else reg.index + 17)
                if n == 2:
                    reg = srcs[1]
                    key = key * 33 + (reg.index + 1
                                      if reg.regclass is int_class
                                      else reg.index + 17)
                else:
                    key = key * 33
            else:
                key = key * 1089
            key = (key * 9 + inst.size) * 4 + inst.pointer_hint.code
            tid = get(key)
            if tid is None:
                tid = key_to_tid[key] = len(insts)
                insts.append(inst)
            id_to_tid[id(inst)] = tid
            keep(inst)
        append_tid(tid)
        address = dop.address
        append_addr(NO_ADDRESS if address is None else address)
        lock = dop.lock_address
        append_lock(NO_ADDRESS if lock is None else lock)
        append_mis(1 if dop.mispredicted else 0)
    return TraceTokens(tids, addrs, locks, mis, insts)


# -- compiled artifacts ----------------------------------------------------------------

@dataclass(eq=False)
class CompiledStream:
    """One trace × configuration-class, packed for the array scheduler.

    The µop column is carried in the native kernel's wire format: one
    packed int64 word per µop (flags | cost << 9 | six 6-bit register-slot
    fields — the layout documented at ``sched_run`` in
    :mod:`repro.native._timecore`).  ``words is None`` marks a *tuple-only*
    stream — some template overflowed the packed field widths at compile
    time — which the Python scheduler consumes via :attr:`uops` and the
    native path refuses, exactly as the old post-hoc packing overflow did.
    """

    #: Kernel-ready packed µop words, or ``None`` for a tuple-only stream.
    words: Optional[array]
    #: Per-µop execution latency prefill (fixed latencies; load positions are
    #: overwritten from the hierarchy batch during simulation).  Callers
    #: copy before mutating — this is the stream's own arena.
    lat_template: array
    #: Packed memory-access sequence in program order.
    mem_pos: array
    mem_addr: array
    mem_spec: array
    # -- exact whole-stream statistics -------------------------------------------
    total_uops: int
    injected_uops: int
    macro_instructions: int
    memory_accesses: int
    injection: InjectionStats
    pointer: PointerIdStats
    pages: PageAccountant
    class_key: tuple
    #: Which core replays this stream (0 in single-core simulation; a
    #: multi-core mix relabels each member's stream with its core index).
    core: int = 0

    @property
    def uops(self) -> List[tuple]:
        """Per-µop ``(flags, cost, dest, s0, s1, md, ms0, ms1)`` tuples.

        Materialized on demand from :attr:`words` (memoized) — only the
        Python fallback scheduler and the golden tests walk tuples; the
        production path hands :attr:`words` to the kernel untouched.
        """
        tuples = self.__dict__.get("_uop_tuples")
        if tuples is None:
            tuples = self.__dict__["_uop_tuples"] = self.to_tuples()
        return tuples

    def to_tuples(self) -> List[tuple]:
        """Unpack :attr:`words` into fresh per-µop tuples (no memo)."""
        return unpack_words(self.words)

    def with_core(self, core: int) -> "CompiledStream":
        """This stream relabelled for ``core`` (itself when already there).

        Keeps the flat columns (and any tuple/packing memo) shared with the
        original — relabelling is what a multi-core mix does per member,
        and must not forfeit the bundle-cached arenas.
        """
        if core == self.core:
            return self
        clone = dataclasses.replace(self, core=core)
        tuples = self.__dict__.get("_uop_tuples")
        if tuples is not None:
            clone.__dict__["_uop_tuples"] = tuples
        # Only the *unpackable* marker transfers: a successful legacy pack
        # memo embeds the original core id and must not be inherited.
        if self.__dict__.get("_tc_packed") is False:
            clone.__dict__["_tc_packed"] = False
        return clone

    def __len__(self) -> int:
        words = self.words
        return len(words) if words is not None else len(self.uops)


@dataclass(eq=False)
class WarmStream:
    """The warm-up portion as a bare hierarchy access sequence.

    Contains, interleaved in program order, every address-carrying µop of the
    expanded warm-up trace plus (for metadata-maintaining classes) the shadow
    lines of each data access — exactly what
    :meth:`Simulator._warm_hierarchy` replays, without the µop objects.
    Both columns are int64 arrays, so the native warm replay consumes them
    without conversion.
    """

    addrs: array
    specs: array

    def __len__(self) -> int:
        return len(self.addrs)


@dataclass(eq=False)
class WorkingSetArrays:
    """Precomputed working-set warm-up addresses (one per class).

    All three columns are int64 arrays, so the native working-set install
    (:func:`repro.native._timecore.cache_fill`) copies them without
    conversion.
    """

    shadow: array
    locks: array
    data: array


@dataclass(eq=False)
class BundleStreams:
    """Everything one (bundle × configuration-class) replay needs."""

    measured: CompiledStream
    warm: Optional[WarmStream]
    working_set: WorkingSetArrays


class _Template:
    """Numeric expansion of one instruction identity under one class.

    Carries both forms of the µop column: packed kernel words (``words`` /
    ``mis_words``, ``None`` when any entry overflows the packed field
    widths) and the per-µop tuples the Python fallback consumes.  Stream
    assembly extends flat arrays from the words, so the packing cost is
    paid once per identity, not once per dynamic instance.
    """

    __slots__ = ("uops", "mis_uops", "words", "mis_words", "lats", "n",
                 "addr_ops", "size",
                 "stat_delta", "pointer_delta", "total_cost", "injected_cost")


# -- the compiler ----------------------------------------------------------------------

#: Cross-bundle template cache: one entry per (configuration class, machine,
#: instruction identity).  Every bundle segment compiles through a fresh
#: :class:`StreamCompiler`, and traces recorded outside the generator carry
#: their own Instruction objects, so the per-compiler id() memo alone would
#: re-expand every identity once per compile; this cache shares the built
#: templates across bundles and sweeps.  Templates are immutable after
#: construction — every consumer copies out of them.  The cap is a
#: backstop for unbounded sweeps; a full cache simply restarts cold.
_TEMPLATE_CACHE: Dict[tuple, _Template] = {}
_TEMPLATE_CACHE_LIMIT = 1 << 16


def _identity_key(inst: Instruction) -> tuple:
    """The template-relevant identity of an instruction, as a flat tuple.

    Covers exactly the fields :func:`tokenize` folds into its interning key
    (opcode, register operands, access size, pointer hint) — everything that
    can influence µop injection or timing annotation.
    """
    dest = inst.dest
    return (inst.opcode.code,
            -1 if dest is None else reg_slot(dest),
            tuple(reg_slot(reg) for reg in inst.srcs),
            int(inst.size),
            inst.pointer_hint.code)


class StreamCompiler:
    """Compiles tokenized traces for one configuration class and machine."""

    def __init__(self, config: WatchdogConfig,
                 machine: Optional[MachineConfig] = None):
        self.config = config
        self.machine = machine or MachineConfig()
        #: The template expansions run through a real expander so the
        #: statistics deltas (injection counts, pointer classification,
        #: copy-elimination ablation) are captured by construction.
        self.expander = TraceExpander(config)
        self.injector = self.expander.injector
        layout = self.expander.shadow.layout
        self._frame_floor = layout.lock_region.base
        self._frame_start = self._frame_floor + layout.lock_region.size // 2
        self._mw = config.metadata_words
        self._shadow_step = 64 // self._mw
        #: Templates memoized per interned-instruction identity: the warm
        #: and measured token streams of one bundle share most identities
        #: (the generator's are all drawn from one static shape table), so
        #: compiling the warm stream after the measured one rebuilds
        #: almost nothing.  Keyed by id(); ``_template_pins`` keeps every
        #: memoized instruction alive so an id is never recycled.
        self._templates: Dict[int, _Template] = {}
        self._template_pins: List[Instruction] = []
        self._cache_key = (stream_class_key(config), self.machine)

    # -- template lowering ---------------------------------------------------------
    def _full_expand(self, inst: Instruction):
        uops = self.injector._expand(inst)
        extra = self.expander._copy_elimination_ablation(inst)
        if extra:
            uops = uops + [timed.uop for timed in extra]
        return uops

    def _template(self, inst: Instruction) -> _Template:
        t = self._templates.get(id(inst))
        if t is None:
            key = (self._cache_key, _identity_key(inst))
            t = _TEMPLATE_CACHE.get(key)
            if t is None:
                if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_LIMIT:
                    _TEMPLATE_CACHE.clear()
                t = _TEMPLATE_CACHE[key] = self._build_template(inst)
            self._templates[id(inst)] = t
            self._template_pins.append(inst)
        return t

    def _build_template(self, inst: Instruction) -> _Template:
        compiled = compile_template(self.injector, inst, expand=self._full_expand)
        machine = self.machine
        t = _Template()
        entries = []
        lats = []
        addr_ops = []
        injected_cost = 0
        has_branch = False
        for off, uop in enumerate(compiled.uops):
            kind = uop.kind
            flags = kind.code
            if kind in LQ_KINDS:
                flags |= FLAG_LQ
            elif kind in SQ_KINDS:
                flags |= FLAG_SQ
            elif kind is UopKind.BRANCH:
                flags |= FLAG_BRANCH
                has_branch = True
            if uop.is_injected:
                injected_cost += uop.uop_cost
            dest = -1
            if uop.dest is not None and kind not in WATCHDOG_KINDS:
                dest = reg_slot(uop.dest)
            srcs = uop.srcs
            meta_srcs = uop.meta_srcs
            if len(srcs) > 2 or len(meta_srcs) > 2:
                raise CompiledTraceUnsupported(
                    f"µop {uop} has more than two (meta) sources")
            s0 = reg_slot(srcs[0]) if srcs else -1
            s1 = reg_slot(srcs[1]) if len(srcs) == 2 else -1
            md = reg_slot(uop.meta_dest) if uop.meta_dest is not None else -1
            ms0 = reg_slot(meta_srcs[0]) if meta_srcs else -1
            ms1 = reg_slot(meta_srcs[1]) if len(meta_srcs) == 2 else -1
            entries.append((flags, uop.uop_cost, dest, s0, s1, md, ms0, ms1))
            lats.append(machine.latency_for(kind))
            rule = ANNOTATION_RULES.get(kind)
            if rule is not None:
                addr_rule, port, is_write = rule
                spec = PORT_CODES[port]
                if is_write:
                    spec |= SPEC_WRITE
                if kind in HIERARCHY_LATENCY_KINDS:
                    spec |= SPEC_USE_LATENCY
                addr_ops.append((off, addr_rule, spec))
        t.uops = tuple(entries)
        t.mis_uops = None
        if has_branch:
            t.mis_uops = tuple(
                (entry[0] | FLAG_MISPREDICT,) + entry[1:]
                if entry[0] & FLAG_BRANCH else entry
                for entry in entries)
        t.words = pack_entry_words(t.uops)
        t.mis_words = None
        if t.words is not None and t.mis_uops is not None:
            t.mis_words = pack_entry_words(t.mis_uops)
            if t.mis_words is None:  # keep both forms in lockstep
                t.words = None
        t.lats = array("q", lats)
        t.n = len(entries)
        t.addr_ops = tuple(addr_ops)
        t.size = int(inst.size)
        t.stat_delta = compiled.stat_delta
        t.pointer_delta = compiled.pointer_delta
        t.total_cost = compiled.total_cost
        t.injected_cost = injected_cost
        return t

    def _templates_for(self, tokens: TraceTokens, used) -> List:
        """Templates by tid, built only for the ``used`` tids (else None)."""
        insts = tokens.insts
        templates: List = [None] * len(insts)
        for tid in used:
            templates[tid] = self._template(insts[tid])
        return templates

    # -- measured stream ----------------------------------------------------------
    def compile_measured(self, tokens: TraceTokens) -> CompiledStream:
        """Pack the measured stream plus its exact statistics.

        Emits the kernel's wire format directly: each template's µop words
        are packed once at build time, and the replay loop assembles the
        stream's columns with ``array("q").extend`` — C-speed memcpys — so
        the resulting :class:`CompiledStream` needs no post-hoc
        ``pack_stream`` pass.  If any template overflows the packed field
        widths, the whole stream is assembled from tuples instead and
        marked tuple-only (the Python scheduler has no width limits).
        """
        counts = Counter(tokens.tids)
        templates = self._templates_for(tokens, counts)
        used = [t for t in templates if t is not None]
        flat = all(t.words is not None for t in used)
        # Indexed by tid; shapes absent from the stream keep a None slot.
        main: List = [None] * len(templates)
        mis: List = [None] * len(templates)
        lats_by_tid: List = [None] * len(templates)
        ops_by_tid: List = [None] * len(templates)
        size_by_tid: List = [None] * len(templates)
        n_by_tid: List = [None] * len(templates)
        for tid in counts:
            t = templates[tid]
            if flat:
                main[tid] = t.words
                mis[tid] = t.words if t.mis_words is None else t.mis_words
            else:
                main[tid] = t.uops
                mis[tid] = t.uops if t.mis_uops is None else t.mis_uops
            lats_by_tid[tid] = t.lats
            ops_by_tid[tid] = t.addr_ops
            size_by_tid[tid] = t.size
            n_by_tid[tid] = t.n
        stream_uops: object = array("q") if flat else []
        lats = array("q")
        mem_pos = array("q")
        mem_addr = array("q")
        mem_spec = array("q")
        extend_uops = stream_uops.extend
        extend_lats = lats.extend
        add_pos = mem_pos.append
        add_addr = mem_addr.append
        add_spec = mem_spec.append
        pages = PageAccountant()
        data_words = pages.data_words
        shadow_words = pages.shadow_words
        mw = self._mw
        mw8 = mw * 8
        frame_lock = self._frame_start
        frame_floor = self._frame_floor
        no_address = NO_ADDRESS
        base = 0

        for tid, address, lock, mispredicted in zip(
                tokens.tids, tokens.addrs, tokens.locks, tokens.mis):
            extend_uops(mis[tid] if mispredicted else main[tid])
            extend_lats(lats_by_tid[tid])
            addr_ops = ops_by_tid[tid]
            if addr_ops:
                for off, rule, spec in addr_ops:
                    if rule == ADDR_DATA:
                        if address != no_address:
                            add_pos(base + off)
                            add_addr(address)
                            add_spec(spec)
                            word = address & ~7
                            end = address + size_by_tid[tid]
                            while word < end:
                                data_words.add(word)
                                word += 8
                    elif rule == ADDR_SHADOW:
                        if address != no_address:
                            shadow = SHADOW_BIT | ((address & ~7) * mw) % _M47
                            add_pos(base + off)
                            add_addr(shadow)
                            add_spec(spec)
                            word = shadow
                            end = shadow + mw8
                            while word < end:
                                shadow_words.add(word)
                                word += 8
                    elif rule == ADDR_LOCK:
                        if lock != no_address:
                            add_pos(base + off)
                            add_addr(lock)
                            add_spec(spec)
                    elif rule == ADDR_FRAME_PUSH:
                        frame_lock += 8
                        add_pos(base + off)
                        add_addr(frame_lock)
                        add_spec(spec)
                    else:  # ADDR_FRAME_POP
                        add_pos(base + off)
                        add_addr(frame_lock)
                        add_spec(spec)
                        frame_lock -= 8
                        if frame_lock < frame_floor:
                            frame_lock = frame_floor
            base += n_by_tid[tid]

        # -- exact totals from per-template deltas -------------------------------
        stat_totals = [0] * 8
        memory_ops = pointer_ops = total_cost = injected_cost = 0
        for tid, count in counts.items():
            template = templates[tid]
            total_cost += count * template.total_cost
            injected_cost += count * template.injected_cost
            delta = template.stat_delta
            for i in range(8):
                stat_totals[i] += count * delta[i]
            memory_ops += count * template.pointer_delta[0]
            pointer_ops += count * template.pointer_delta[1]

        stream = CompiledStream(
            words=stream_uops if flat else None,
            lat_template=lats,
            mem_pos=mem_pos,
            mem_addr=mem_addr,
            mem_spec=mem_spec,
            total_uops=total_cost,
            injected_uops=injected_cost,
            macro_instructions=len(tokens.tids),
            memory_accesses=len(mem_pos),
            injection=InjectionStats(*stat_totals),
            pointer=PointerIdStats(memory_ops=memory_ops, pointer_ops=pointer_ops),
            pages=pages,
            class_key=stream_class_key(self.config),
        )
        if not flat:
            # The assembled tuples ARE the fallback's input; pin them as the
            # materialized form and pre-mark the stream unpackable so the
            # native path never re-probes it.
            stream.__dict__["_uop_tuples"] = stream_uops
            stream.__dict__["_tc_packed"] = False
        return stream

    # -- warm-up stream ------------------------------------------------------------
    def compile_warm(self, tokens: TraceTokens) -> WarmStream:
        """Lower the warm-up trace to its bare hierarchy access sequence.

        Mirrors :meth:`Simulator._warm_hierarchy`: each address-carrying µop
        becomes one access; for metadata-maintaining classes every data
        access is followed by its ``metadata_words`` shadow lines (skipped
        at replay under the ideal-shadow ablation, which filters all shadow
        accesses).  Emits int64 arrays directly, so the native warm replay
        (:func:`repro.native._timecore.run_batch`) skips its conversion.
        """
        ops_by_tid = [None if t is None else t.addr_ops
                      for t in self._templates_for(tokens, set(tokens.tids))]
        addrs = array("q")
        specs = array("q")
        add_addr = addrs.append
        add_spec = specs.append
        mw = self._mw
        step = self._shadow_step
        warm_shadow = self.config.enabled
        frame_lock = self._frame_start
        frame_floor = self._frame_floor
        no_address = NO_ADDRESS

        for tid, address, lock in zip(tokens.tids, tokens.addrs, tokens.locks):
            for off, rule, spec in ops_by_tid[tid]:
                if rule == ADDR_DATA:
                    if address != no_address:
                        add_addr(address)
                        add_spec(spec)
                        if warm_shadow:
                            line = address & ~63
                            for i in range(mw):
                                data = line + i * step
                                add_addr(SHADOW_BIT | ((data & ~7) * mw) % _M47)
                                add_spec(SPEC_SHADOW_READ)
                elif rule == ADDR_SHADOW:
                    if address != no_address:
                        add_addr(SHADOW_BIT | ((address & ~7) * mw) % _M47)
                        add_spec(spec)
                elif rule == ADDR_LOCK:
                    if lock != no_address:
                        add_addr(lock)
                        add_spec(spec)
                elif rule == ADDR_FRAME_PUSH:
                    frame_lock += 8
                    add_addr(frame_lock)
                    add_spec(spec)
                else:  # ADDR_FRAME_POP
                    add_addr(frame_lock)
                    add_spec(spec)
                    frame_lock -= 8
                    if frame_lock < frame_floor:
                        frame_lock = frame_floor
        return WarmStream(addrs=addrs, specs=specs)

    # -- working set ---------------------------------------------------------------
    def working_set_arrays(self, workload) -> WorkingSetArrays:
        """Precompute the working-set warm-up address lists for this class."""
        return working_set_arrays(workload, self.config)


def working_set_arrays(workload, config: WatchdogConfig) -> WorkingSetArrays:
    """The three working-set address arrays (shadow lines, locks, data lines).

    Shadow and lock arrays are filled only for metadata-maintaining
    configurations; the shadow array carries ``metadata_words`` shadow lines
    per 64-byte data line, exactly as the timed shadow µops would touch them.
    """
    data = array("q", workload.working_set_lines())
    if not config.enabled:
        return WorkingSetArrays(shadow=array("q"), locks=array("q"),
                                data=data)
    mw = config.metadata_words
    offsets = [i * (64 // mw) for i in range(mw)]
    shadow = array("q", [SHADOW_BIT | (((line + offset) & ~7) * mw) % _M47
                         for line in data for offset in offsets])
    return WorkingSetArrays(shadow=shadow,
                            locks=array("q", workload.lock_locations()),
                            data=data)


# -- working-set installation ----------------------------------------------------------
#
# The working-set pre-touch stands in for the paper's long (10M-instruction)
# warm-up windows, whose only observable effect at the measured window is the
# steady-state *residency* of the working set: data resident in the upper
# levels, metadata behind it, everything tracked by the shared L3.  Rather
# than replaying hundreds of thousands of demand accesses through the full
# miss/prefetch machinery (which dominated sweep wall-clock time), the warm
# state is installed directly: every warmed block enters the inclusive L3,
# and each bounded structure (L1D, L2, the lock location cache, the TLBs)
# receives the most-recent fill its capacity can hold, in access order, so
# LRU order matches a sequential touch.  Both the compiled and the reference
# pipeline warm through this one implementation.

def _install_tail(cache, pieces, limit: Optional[int]) -> None:
    """Install the last ``limit`` addresses of ``pieces`` (concatenated, in
    order) into ``cache``; ``None`` installs everything."""
    if limit is not None:
        tail = []
        remaining = limit
        for piece in reversed(pieces):
            if remaining <= 0:
                break
            if len(piece) > remaining:
                piece = piece[len(piece) - remaining:]
            tail.append(piece)
            remaining -= len(piece)
        pieces = tuple(reversed(tail))
    sets = cache._sets
    num_sets = cache._num_sets
    block_bytes = cache._block_bytes
    assoc = cache._assoc
    sets_get = sets.get
    for piece in pieces:
        for address in piece:
            block = address // block_bytes
            index = block % num_sets
            cache_set = sets_get(index)
            if cache_set is None:
                cache_set = sets[index] = OrderedDict()
            if block in cache_set:
                cache_set.move_to_end(block)
            else:
                if len(cache_set) >= assoc:
                    cache_set.popitem(last=False)
                cache_set[block] = False


def _fill_tlb(tlb, pieces) -> None:
    """Leave ``tlb`` as a sequential LRU touch of ``pieces`` would: only the
    last ``entries`` distinct pages are touched, oldest first."""
    capacity = tlb.config.entries
    page_bytes = tlb.config.page_bytes
    seen = set()
    newest_first: List[int] = []
    add = newest_first.append
    for piece in reversed(pieces):
        for i in range(len(piece) - 1, -1, -1):
            page = piece[i] // page_bytes
            if page not in seen:
                seen.add(page)
                add(page)
                if len(newest_first) >= capacity:
                    break
        else:
            continue
        break
    entries = tlb._entries
    for page in reversed(newest_first):
        if page in entries:
            entries.move_to_end(page)
        else:
            if len(entries) >= capacity:
                entries.popitem(last=False)
            entries[page] = True


def warm_working_set(hierarchy, ws: WorkingSetArrays,
                     config: WatchdogConfig) -> None:
    """Install the working set into a fresh hierarchy (see module comment).

    Access order mirrors the §9.1-style pre-touch: shadow lines first (when
    metadata is maintained and not idealized), then lock locations, then
    data lines — so data ends up most-recently-used in every level.
    """
    shadow = ws.shadow if (config.enabled and not config.ideal_shadow) else ()
    locks = ws.locks if config.enabled else ()
    data = ws.data
    lock_en = hierarchy.config.lock_cache_enabled
    if lock_en and locks:
        l1_pieces = (shadow, data)
        lock_pieces = (locks,)
    else:
        l1_pieces = (shadow, locks, data)
        lock_pieces = ()
    all_pieces = (shadow, locks, data)

    l1 = hierarchy.l1d
    l2 = hierarchy.l2
    lib = None
    if hierarchy.native_override is not False:
        from repro.native import _timecore
        lib = _timecore.load()
    if lib is not None:
        # The cache installs fill the live arenas in place: the L2/L3/lock
        # roles alias the backend's shared arenas, which a sibling core's
        # warm-up may already have made authoritative, so the shared
        # levels are never imported back or re-exported here.  Only the
        # private TLBs are filled in Python, before the state export picks
        # them up; a core whose private arenas are live imports them first.
        hierarchy._tc_sync_private()
        _fill_tlb(hierarchy.dtlb, l1_pieces)
        if lock_pieces:
            _fill_tlb(hierarchy.lock_tlb, lock_pieces)
        state = _timecore.attach_state(lib, hierarchy)
        _timecore.cache_fill(state, "l1", l1, l1_pieces,
                             l1._num_sets * l1._assoc)
        _timecore.cache_fill(state, "l2", l2, all_pieces,
                             l2._num_sets * l2._assoc)
        _timecore.cache_fill(state, "l3", hierarchy.l3, all_pieces, None)
        if lock_pieces:
            lock_cache = hierarchy.lock_cache
            _timecore.cache_fill(state, "lk", lock_cache, lock_pieces,
                                 lock_cache._num_sets * lock_cache._assoc)
    else:
        hierarchy._tc_sync()  # the installs mutate the Python structures
        _install_tail(l1, l1_pieces, l1._num_sets * l1._assoc)
        _install_tail(l2, all_pieces, l2._num_sets * l2._assoc)
        _install_tail(hierarchy.l3, all_pieces, None)
        _fill_tlb(hierarchy.dtlb, l1_pieces)
        if lock_pieces:
            lock_cache = hierarchy.lock_cache
            _install_tail(lock_cache, lock_pieces,
                          lock_cache._num_sets * lock_cache._assoc)
            _fill_tlb(hierarchy.lock_tlb, lock_pieces)
    hierarchy.reset_stats()


def warm_trace(hierarchy, warm: WarmStream, config: WatchdogConfig) -> None:
    """Replay the warm-up trace accesses (see :meth:`Simulator._warm_hierarchy`).

    Unlike the working-set pre-touch, the warm-up *trace* is part of the
    simulated methodology and replays through the full demand machinery
    (misses, prefetchers, TLBs) — only its statistics are discarded.
    """
    hierarchy.warm_batch(warm.addrs, warm.specs)
    hierarchy.reset_stats()
