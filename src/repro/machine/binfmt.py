"""Compact binary encoding of TAM code — the "executable" bytes of E3.

The E3 experiment compares the size of executable code against the size of
code *plus* its persistent TML (the paper measured 600 kB vs 1.2 MB for the
full Tycoon system).  A fair comparison needs a realistically compact code
format, not a generic value dump: this module packs each instruction as a
one-byte opcode followed by varint operands, with interned string and
constant pools per code object — roughly what a native CPS back end emits.

The format round-trips (`decode_code(encode_code(c))` executes identically),
so it doubles as the on-disk representation for shipped code images.
"""

from __future__ import annotations

from typing import Any

from repro.machine.isa import OPS, CodeObject
from repro.store.serialize import Decoder, Encoder, SerializeError

__all__ = ["encode_code", "decode_code", "binary_code_size"]

#: opcode byte -> name; a byte no row of the table claims does not decode
_BY_NUMBER = {op.number: name for name, op in OPS.items()}

# operand micro-tags
_O_INT = 0
_O_NONE = 1
_O_TUPLE = 2
_O_STR = 3
_O_PAIR = 4  # capture-plan entry ("r"|"f", index)


def _encode_operand(enc: Encoder, operand: Any, strings: dict[str, int]) -> None:
    if operand is None:
        enc.buf.append(_O_NONE)
    elif isinstance(operand, bool):
        raise SerializeError("boolean operand in instruction stream")
    elif isinstance(operand, int):
        enc.buf.append(_O_INT)
        enc.svarint(operand)
    elif isinstance(operand, str):
        enc.buf.append(_O_STR)
        enc.uvarint(_intern(strings, operand))
    elif isinstance(operand, tuple):
        if (
            len(operand) == 2
            and operand[0] in ("r", "f")
            and isinstance(operand[1], int)
        ):
            enc.buf.append(_O_PAIR)
            enc.buf.append(0 if operand[0] == "r" else 1)
            enc.uvarint(operand[1])
        else:
            enc.buf.append(_O_TUPLE)
            enc.uvarint(len(operand))
            for item in operand:
                _encode_operand(enc, item, strings)
    else:
        raise SerializeError(f"unencodable operand {operand!r}")


def _decode_operand(dec: Decoder, strings: list[str]) -> Any:
    tag = dec.byte()
    if tag == _O_NONE:
        return None
    if tag == _O_INT:
        return dec.svarint()
    if tag == _O_STR:
        return strings[dec.uvarint()]
    if tag == _O_PAIR:
        kind = "r" if dec.byte() == 0 else "f"
        return (kind, dec.uvarint())
    if tag == _O_TUPLE:
        return tuple(_decode_operand(dec, strings) for _ in range(dec.uvarint()))
    raise SerializeError(f"bad operand tag {tag}")


def _intern(strings: dict[str, int], text: str) -> int:
    index = strings.get(text)
    if index is None:
        index = len(strings)
        strings[text] = index
    return index


def encode_code(code: CodeObject) -> bytes:
    """Pack a code object tree into compact binary form (PTML refs omitted).

    Only the *root* carries its full free-name table (needed to link the
    function into an image); nested closures capture positionally, so their
    parameter and free-variable names are not load-bearing and are stored as
    counts — as a native image would.
    """
    enc = Encoder()
    _encode_one(enc, code, root=True)
    return enc.getvalue()


def _encode_one(enc: Encoder, code: CodeObject, root: bool) -> None:
    strings: dict[str, int] = {}
    body = Encoder()
    body.uvarint(len(code.instrs))
    for instr in code.instrs:
        row = OPS.get(instr[0])
        if row is None:
            raise SerializeError(f"unknown opcode {instr[0]!r}")
        body.buf.append(row.number)
        body.uvarint(len(instr) - 1)
        for operand in instr[1:]:
            _encode_operand(body, operand, strings)

    if root:
        enc.text(code.name)
    enc.uvarint(len(code.params))
    if code.params:
        # continuation-parameter sorts matter for the proc/cont distinction
        enc.uvarint(sum(1 for p in code.params if p.is_cont))
    enc.uvarint(code.nregs)
    enc.buf.append(1 if code.is_proc else 0)
    enc.uvarint(len(strings))
    for text in sorted(strings, key=strings.get):
        enc.text(text)
    enc.raw(bytes(body.buf))
    enc.value(tuple(code.consts))
    if root:
        enc.value(tuple(code.free_names))
    else:
        enc.uvarint(len(code.free_names))
    enc.uvarint(len(code.codes))
    for nested in code.codes:
        _encode_one(enc, nested, root=False)


def decode_code(data: bytes) -> CodeObject:
    dec = Decoder(data)
    counter = [0]
    code = _decode_one(dec, root=True, counter=counter)
    if dec.pos != len(data):
        raise SerializeError("trailing bytes after code image")
    return code


def _decode_one(dec: Decoder, root: bool, counter: list[int]) -> CodeObject:
    from repro.core.names import Name

    name = dec.text() if root else "anon"
    nparams = dec.uvarint()
    nconts = dec.uvarint() if nparams else 0
    # synthetic parameter names: only arity and continuation sorts matter
    params = tuple(
        Name(
            f"p{index}",
            _fresh_uid(counter),
            "cont" if index >= nparams - nconts else "val",
        )
        for index in range(nparams)
    )
    nregs = dec.uvarint()
    is_proc = bool(dec.byte())
    strings = [dec.text() for _ in range(dec.uvarint())]
    body = Decoder(dec.raw())
    instrs = []
    for _ in range(body.uvarint()):
        opcode = body.byte()
        op = _BY_NUMBER.get(opcode)
        if op is None:
            raise SerializeError(f"bad opcode {opcode}")
        count = body.uvarint()
        operands = tuple(_decode_operand(body, strings) for _ in range(count))
        instrs.append((op,) + operands)
    consts = list(dec.value())
    if root:
        free_names = dec.value()
    else:
        free_names = tuple(
            Name(f"v{index}", _fresh_uid(counter)) for index in range(dec.uvarint())
        )
    codes = [_decode_one(dec, root=False, counter=counter) for _ in range(dec.uvarint())]
    return CodeObject(
        name=name,
        params=params,
        nregs=nregs,
        instrs=instrs,
        consts=consts,
        codes=codes,
        free_names=free_names,
        is_proc=is_proc,
        ptml_ref=None,
    )


def _fresh_uid(counter: list[int]) -> int:
    counter[0] += 1
    return counter[0]


def binary_code_size(code: CodeObject) -> int:
    """Bytes of the packed executable image (the E3 'code' measure)."""
    return len(encode_code(code))
