"""Edge coverage: error formatting, trace limits, disassembler corners."""

import pytest

from repro.avr import (
    AvrCpu,
    ExecutionTrace,
    Instruction,
    Mnemonic,
    encode_stream,
    iter_instructions,
)
from repro.asm import format_instruction
from repro.errors import (
    AsmSyntaxError,
    CpuFault,
    DecodeError,
    EncodeError,
)

I = Instruction
M = Mnemonic


def test_error_messages_carry_context():
    error = DecodeError(0xFFFF, 0x1B284)
    assert "0xffff" in str(error)
    assert "0x1b284" in str(error)
    fault = CpuFault("boom", 0x100, 42)
    assert fault.pc == 0x100 and fault.cycles == 42
    assert "0x00100" in str(fault)
    syntax = AsmSyntaxError("bad", 7)
    assert syntax.line == 7
    assert "line 7" in str(syntax)


def test_instruction_str():
    text = str(I(M.LDI, rd=16, k=255))
    assert "ldi" in text and "rd=16" in text and "k=255" in text
    assert str(I(M.RET)) == "ret"


def test_iter_instructions_stops_on_garbage():
    code = encode_stream([I(M.NOP), I(M.NOP)]) + b"\xff\xff"
    collected = list(iter_instructions(code, 0, len(code) - 2))
    assert len(collected) == 2
    with pytest.raises(DecodeError):
        list(iter_instructions(code))


def test_execution_trace_instruction_cap():
    cpu = AvrCpu()
    cpu.load_program(encode_stream([I(M.NOP)] * 50 + [I(M.BREAK)]))
    cpu.reset()
    trace = ExecutionTrace(max_instructions=10)
    trace.attach(cpu)
    cpu.run(100)
    assert len(trace.instructions) == 10  # capped
    assert cpu.instructions_retired > 10


def test_format_instruction_branch_without_pc():
    text = format_instruction(I(M.RJMP, k=-3))
    assert text == "rjmp .-6"
    text = format_instruction(I(M.BRBS, b=3, k=2))  # no alias for bit 3
    assert text.startswith("brbs 3,")


def test_format_instruction_generic_fallbacks():
    assert format_instruction(I(M.MUL, rd=24, rr=18)) == "mul r24, r18"
    assert format_instruction(I(M.INC, rd=5)) == "inc r5"
    assert format_instruction(I(M.WDR)) == "wdr"
    assert format_instruction(I(M.BSET, b=2)) == "bset 2"
    assert format_instruction(I(M.BCLR, b=0)) == "bclr 0"
    assert format_instruction(I(M.SBI, a=5, b=1)) == "sbi 0x05, 1"
    assert format_instruction(I(M.BST, rd=7, b=6)) == "bst r7, 6"
    assert format_instruction(I(M.LDD_Z, rd=3, q=5)) == "ldd r3, Z+5"
    assert format_instruction(I(M.STD_Z, rr=3, q=0)) == "std Z+0, r3"


def test_encode_stream_multiple():
    blob = encode_stream([I(M.NOP), I(M.JMP, k=4), I(M.RET)])
    assert len(blob) == 2 + 4 + 2


def test_encode_error_on_missing_required_operand():
    with pytest.raises(EncodeError) as info:
        from repro.avr import encode
        encode(I(M.OUT, rr=5))  # missing I/O address
    assert "missing operand" in str(info.value)
