"""Tests for the compact binary code format (repro.machine.binfmt)."""

import pytest

from repro.core.parser import parse_term
from repro.core.syntax import Abs
from repro.lang import compile_module
from repro.machine.binfmt import binary_code_size, decode_code, encode_code
from repro.machine.codegen import compile_function
from repro.machine.vm import VM, instantiate
from repro.store.serialize import SerializeError

#: (source, sample int argument or None to skip execution)
SOURCES = [
    ("proc(x ce cc) (cc x)", 10),
    ("proc(x ce cc) (+ x 1 ce cont(t) (* t 2 ce cc))", 10),
    ("proc(x ce cc) (== x 1 2 cont() (cc 10) cont() (cc 20) cont() (cc 99))", 2),
    (
        """
        proc(n ce cc)
          (Y λ(^c0 loop ^c)
             (c cont() (loop 1 0)
                cont(i acc)
                  (> i n cont() (cc acc)
                         cont() (+ acc i ce cont(a)
                                   (+ i 1 ce cont(j) (loop j a))))))
        """,
        10,
    ),
    ("proc(f ce cc) (f 3 ce cont(t) (print t cont(u) (cc t)))", None),
]


@pytest.mark.parametrize("source,arg", SOURCES)
def test_roundtrip_executes_identically(source, arg):
    term = parse_term(source)
    assert isinstance(term, Abs)
    code = compile_function(term)
    back = decode_code(encode_code(code))

    assert back.instrs == code.instrs
    assert back.nregs == code.nregs
    assert back.arity == code.arity
    assert len(back.free_names) == len(code.free_names)

    if arg is not None:
        a = VM().call(instantiate(code), [arg])
        b = VM().call(instantiate(back), [arg])
        assert a.value == b.value
        assert a.output == b.output


def test_loop_roundtrip_runs():
    term = parse_term(SOURCES[3][0])
    code = compile_function(term)
    back = decode_code(encode_code(code))
    assert VM().call(instantiate(back), [100]).value == 5050


def test_root_free_names_preserved_exactly():
    compiled = compile_module(
        "module m export f let f(x: Int): Int = x + 1 end"
    )
    code = compiled.functions["f"].code
    back = decode_code(encode_code(code))
    assert back.free_names == code.free_names  # linking info survives


def test_nested_names_are_synthetic():
    term = parse_term(SOURCES[4][0])
    code = compile_function(term)
    back = decode_code(encode_code(code))
    # nested code keeps counts but not spellings
    for original, rebuilt in zip(code.codes, back.codes):
        assert len(rebuilt.free_names) == len(original.free_names)
        assert len(rebuilt.params) == len(original.params)


def test_param_sorts_preserved():
    term = parse_term("proc(x ce cc) (cc x)")
    code = compile_function(term)
    back = decode_code(encode_code(code))
    assert [p.is_cont for p in back.params] == [False, True, True]
    assert back.is_proc


def test_size_is_compact():
    term = parse_term(SOURCES[3][0])
    code = compile_function(term)
    size = binary_code_size(code)
    total_instrs = len(code.instrs) + sum(len(c.instrs) for c in code.codes)
    # a handful of bytes per instruction, not hundreds
    assert size < total_instrs * 25


def test_corrupt_image_rejected():
    code = compile_function(parse_term("proc(x ce cc) (cc x)"))
    data = encode_code(code)
    with pytest.raises(SerializeError):
        decode_code(data + b"\x00")
    with pytest.raises(SerializeError):
        decode_code(data[:-2])


def test_stored_format_is_pinned():
    """Stored images outlive the instruction table: the bytes every compiler
    path produces for the stdlib and the Stanford suite are the bytes they
    were when opcode numbers were positions in a list (PR 17 moved them into
    ``isa.OPS``).  A renumbered opcode or a changed emitter shows up here."""
    import hashlib

    from repro.bench.stanford import PROGRAMS
    from repro.lang.modules import CompileOptions, compile_stdlib

    modules = dict(compile_stdlib(CompileOptions()))
    modules.update(
        (f"stanford:{name}", compile_module(spec.source))
        for name, spec in PROGRAMS.items()
    )
    digest = hashlib.sha256()
    for _, module in sorted(modules.items()):
        for _, function in sorted(module.functions.items()):
            digest.update(encode_code(function.code))
    assert digest.hexdigest() == (
        "59e5639de43f928db4e7bf5a18be52666bbddcc6607dc09978568f43f4511b28"
    )
