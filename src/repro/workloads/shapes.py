"""The synthetic generator's static instruction shapes.

The generator only ever emits a fixed set of static instructions — 590 of
them across every profile — because each operand is drawn from a small
register tuple and each opcode from a small menu.  :data:`SHAPES` lists them
once, at import; a shape id indexes it.  The emitters (the C kernel in
:mod:`repro.workloads._ffcore` and its pure-Python mirror in
:mod:`repro.workloads.state_core`) compute the id arithmetically from their
draws with the offsets below and write it straight into the token column,
so the shape id *is* the token id of :class:`~repro.sim.trace.TraceTokens`
and no :class:`~repro.isa.instructions.Instruction` is built per op.

Layout (block offset, then the in-block index):

* ``ALU_INT`` — ``(dest * 2 + chain) * 5 + op``: ``dest`` is the rotated
  value register, ``chain`` whether the first source is the previously
  produced value, ``op`` one of ``ADD_RI`` (imm 1), ``AND_RR``, ``XOR_RR``,
  ``ADD_RR``, ``MUL_RR``;
* ``FADD`` — ``(dest * 6 + a) * 6 + b`` over the FP registers;
* ``BRANCH`` — the rotated value register;
* ``ADDR_BUMP`` — ``ADD_RI`` (imm 8) refreshing an address register;
* ``MEM`` — ``((cls * 2 + store) * 6 + addr) * 6 + data`` where ``cls`` is
  pointer / word / fp word / 32-bit (:data:`MEM_CLASSES`);
* ``CALL``, ``RET``;
* ``GETIDENT`` / ``SETIDENT`` — the pointer register of a free / malloc
  runtime call.
"""

from __future__ import annotations

from typing import List

from repro.isa.instructions import AccessSize, Instruction, Opcode, PointerHint
from repro.isa.registers import fp_reg, int_reg

#: Registers used to hold addresses (pointers into live objects).
ADDRESS_REGS = tuple(int_reg(i) for i in range(1, 7))
#: Registers used for integer data values.
VALUE_REGS = tuple(int_reg(i) for i in range(7, 13))
#: Registers used for floating point data.
FP_REGS = tuple(fp_reg(i) for i in range(0, 6))

#: Every register pick is a ``randbelow(6)`` or a rotation modulo 6.
NREGS = 6

#: Number of ALU instructions emitted to stand in for the allocator's own
#: work on each malloc/free (the bulk of BASELINE_*_INSTRUCTIONS is loop code
#: we do not need to model instruction-by-instruction, but a handful of
#: dependent ALU ops preserves the front-end cost).
RUNTIME_CALL_ALU_OPS = 6

#: Integer ALU opcodes by ``op`` index; the generator's ``randbelow(6)``
#: opcode draw ``k`` maps to ``op = 0 if k < 2 else k - 1`` (``ADD_RI`` is
#: twice as likely as each two-source form).
ALU_OPS = (Opcode.ADD_RI, Opcode.AND_RR, Opcode.XOR_RR, Opcode.ADD_RR,
           Opcode.MUL_RR)

#: Memory access classes by ``cls`` index: (pointer hint, size, fp).
MEM_CLASSES = (
    (PointerHint.POINTER, AccessSize.WORD64, False),
    (PointerHint.NOT_POINTER, AccessSize.WORD64, False),
    (PointerHint.NOT_POINTER, AccessSize.WORD64, True),
    (PointerHint.NOT_POINTER, AccessSize.WORD32, False),
)

SH_ALU_INT = 0
SH_FADD = SH_ALU_INT + NREGS * 2 * len(ALU_OPS)
SH_BRANCH = SH_FADD + NREGS ** 3
SH_ADDR_BUMP = SH_BRANCH + NREGS
SH_MEM = SH_ADDR_BUMP + NREGS
SH_CALL = SH_MEM + len(MEM_CLASSES) * 2 * NREGS * NREGS
SH_RET = SH_CALL + 1
SH_GETIDENT = SH_RET + 1
SH_SETIDENT = SH_GETIDENT + NREGS
NUM_SHAPES = SH_SETIDENT + NREGS


def _build() -> List[Instruction]:
    shapes: List[Instruction] = []
    add = shapes.append
    for dest in range(NREGS):
        for chain in (0, 1):
            a = VALUE_REGS[(dest - 1) % NREGS if chain else (dest + 2) % NREGS]
            b = VALUE_REGS[(dest + 4) % NREGS]
            for opcode in ALU_OPS:
                if opcode is Opcode.ADD_RI:
                    add(Instruction(opcode, dest=VALUE_REGS[dest], srcs=(a,),
                                    imm=1))
                else:
                    add(Instruction(opcode, dest=VALUE_REGS[dest],
                                    srcs=(a, b)))
    for dest in FP_REGS:
        for a in FP_REGS:
            for b in FP_REGS:
                add(Instruction(Opcode.FADD, dest=dest, srcs=(a, b)))
    for reg in VALUE_REGS:
        add(Instruction(Opcode.BRANCH, srcs=(reg,)))
    for reg in ADDRESS_REGS:
        add(Instruction(Opcode.ADD_RI, dest=reg, srcs=(reg,), imm=8))
    for hint, size, fp in MEM_CLASSES:
        data_regs = FP_REGS if fp else VALUE_REGS
        for store in (0, 1):
            if store:
                opcode = Opcode.FSTORE if fp else Opcode.STORE
            else:
                opcode = Opcode.FLOAD if fp else Opcode.LOAD
            for addr in ADDRESS_REGS:
                for data in data_regs:
                    if store:
                        add(Instruction(opcode, srcs=(addr, data), size=size,
                                        pointer_hint=hint))
                    else:
                        add(Instruction(opcode, dest=data, srcs=(addr,),
                                        size=size, pointer_hint=hint))
    add(Instruction(Opcode.CALL))
    add(Instruction(Opcode.RET))
    for reg in ADDRESS_REGS:
        add(Instruction(Opcode.GETIDENT, dest=VALUE_REGS[0], srcs=(reg,)))
    for reg in ADDRESS_REGS:
        add(Instruction(Opcode.SETIDENT, srcs=(reg, VALUE_REGS[0])))
    assert len(shapes) == NUM_SHAPES
    return shapes


class ShapeTable(tuple):
    """The shape tuple; pickles by reference, never by content."""

    def __reduce__(self):
        return "SHAPES"


#: Shape id -> the one shared :class:`Instruction` of that shape.
#: Instructions are immutable by convention; every consumer compares them by
#: value or interns them by identity.
SHAPES = ShapeTable(_build())
