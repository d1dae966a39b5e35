"""Tests for the store value codec (repro.store.serialize)."""

import pytest

from repro.core.names import Name
from repro.core.syntax import Char, Oid, UNIT
from repro.machine.codegen import compile_function
from repro.machine.runtime import TmlArray, TmlByteArray, TmlVector
from repro.core.parser import parse_term
from repro.store.serialize import (
    Blob,
    Decoder,
    SerializeError,
    decode_value,
    encode_value,
    register_codec,
)


def roundtrip(value):
    return decode_value(encode_value(value))


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2**62, -(2**62), True, False, "", "text", "üñíçødé",
         Char("x"), Char("\n"), UNIT, None],
    )
    def test_roundtrip(self, value):
        back = roundtrip(value)
        assert back == value
        assert type(back) is type(value)

    def test_bigint(self):
        value = 2**100
        assert roundtrip(value) == value
        assert roundtrip(-(2**100)) == -(2**100)

    def test_bool_int_distinction(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True


class TestContainers:
    def test_array(self):
        back = roundtrip(TmlArray([1, "two", TmlVector([3])]))
        assert isinstance(back, TmlArray)
        assert back.slots[0] == 1
        assert back.slots[2].slots == (3,)

    def test_bytearray(self):
        back = roundtrip(TmlByteArray(b"\x00\xff\x80"))
        assert bytes(back.data) == b"\x00\xff\x80"

    def test_tuple_and_dict(self):
        back = roundtrip(({"a": 1, 2: "b"}, (3, 4)))
        assert back == ({"a": 1, 2: "b"}, (3, 4))

    def test_blob(self):
        assert roundtrip(Blob(b"\x01\x02")) == Blob(b"\x01\x02")


class TestOids:
    def test_unresolved_oid_stays_reference(self):
        assert roundtrip(Oid(42)) == Oid(42)

    def test_resolver_swizzles(self):
        target = TmlArray([99])
        back = decode_value(encode_value(Oid(7)), resolver=lambda oid: target)
        assert back is target

    def test_nested_oids_swizzled(self):
        objects = {5: "resolved!"}
        data = encode_value(TmlArray([Oid(5), 1]))
        back = decode_value(data, resolver=lambda oid: objects[oid.value])
        assert back.slots == ["resolved!", 1]


class TestNames:
    def test_name_roundtrip(self):
        name = Name("loop", 17, "cont")
        back = roundtrip(name)
        assert back == name and back.base == "loop" and back.is_cont


class TestReferences:
    def test_reference_stays_an_oid_the_resolver_sees(self):
        seen = []
        decoder = Decoder(
            encode_value(Oid(123)), resolver=lambda oid: seen.append(oid) or "LOADED"
        )
        assert decoder.reference() == Oid(123)
        assert seen == [Oid(123)]

    def test_code_objects_are_not_stored_values(self):
        # PTML is the stored form of code; binfmt serializes TAM for disasm
        code = compile_function(parse_term("proc(x ce cc) (cc x)"))
        with pytest.raises(SerializeError, match="CodeObject"):
            encode_value(code)


class TestExtensionCodecs:
    def test_unknown_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(SerializeError):
            encode_value(Mystery())

    def test_register_and_roundtrip(self):
        class Point:
            def __init__(self, x, y):
                self.x, self.y = x, y

        register_codec(
            "test-point",
            Point,
            lambda p, enc: (enc.value(p.x), enc.value(p.y)),
            lambda dec: Point(dec.value(), dec.value()),
        )
        back = roundtrip(Point(3, 4))
        assert (back.x, back.y) == (3, 4)

    def test_conflicting_tag_rejected(self):
        class A:
            pass

        class B:
            pass

        register_codec("test-conflict", A, lambda o, e: None, lambda d: A())
        with pytest.raises(SerializeError):
            register_codec("test-conflict", B, lambda o, e: None, lambda d: B())


class TestCorruption:
    def test_truncated_data(self):
        data = encode_value("some string")
        with pytest.raises(SerializeError):
            decode_value(data[:3])

    def test_trailing_bytes(self):
        with pytest.raises(SerializeError):
            decode_value(encode_value(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(SerializeError):
            decode_value(b"\xee")
