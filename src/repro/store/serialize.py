"""Value serialization for the persistent object store.

A compact varint-tagged binary format covering the TML runtime universe:
simple values, arrays/vectors/byte arrays, OID references, names, tuples,
dicts and raw blobs.  Domain objects (relations, modules, ...) plug in
through the extension-codec registry — the store stays ignorant of their
structure, mirroring how the Tycoon store treats ADT values as opaque
complex objects.

Nested OID references are *swizzled* on decode when a resolver is supplied:
the reference is replaced by the referenced object (loaded through the
heap).  A codec that keeps a reference (a module keeps the OIDs of its
functions' PTML) reads it with :meth:`Decoder.reference`, which still
shows it to the resolver.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.names import Name
from repro.core.syntax import Char, Oid, UNIT, Unit
from repro.machine.runtime import TmlArray, TmlByteArray, TmlVector

__all__ = [
    "SerializeError",
    "Encoder",
    "Decoder",
    "encode_value",
    "decode_value",
    "register_codec",
    "write_uvarint",
    "read_uvarint",
    "Blob",
]


class SerializeError(Exception):
    """Unencodable value or corrupt record."""


class Blob:
    """An opaque byte payload stored as-is (e.g. a PTML encoding)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = bytes(data)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Blob) and other.data == self.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"Blob({len(self.data)} bytes)"


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------


def write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise SerializeError("uvarint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerializeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


# ---------------------------------------------------------------------------
# tags
# ---------------------------------------------------------------------------

_T_UNIT = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_STR = 4
_T_CHAR = 5
_T_OID = 6
_T_ARRAY = 7
_T_VECTOR = 8
_T_BYTES = 9
_T_NONE = 10
_T_TUPLE = 11
_T_DICT = 12
_T_BLOB = 13
_T_NAME = 14
_T_CODE = 15  # a TAM code object: written by old images only, see Decoder._code
_T_EXT = 16
_T_BIGINT = 17  # arbitrary precision, for values outside the 64-bit range

#: Extension codecs: tag string -> (type, encode(obj, encoder), decode(decoder))
_EXT_CODECS: dict[str, tuple[type, Callable, Callable]] = {}
_EXT_BY_TYPE: dict[type, str] = {}


def register_codec(
    tag: str,
    cls: type,
    encode: Callable[[Any, "Encoder"], None],
    decode: Callable[["Decoder"], Any],
) -> None:
    """Register a domain-object codec (idempotent per tag/type pair)."""
    existing = _EXT_CODECS.get(tag)
    if existing is not None and existing[0] is not cls:
        raise SerializeError(f"codec tag {tag!r} already bound to {existing[0]}")
    _EXT_CODECS[tag] = (cls, encode, decode)
    _EXT_BY_TYPE[cls] = tag


class Encoder:
    """Streaming encoder over a growable buffer."""

    def __init__(self) -> None:
        self.buf = bytearray()

    # primitive writers -----------------------------------------------------

    def uvarint(self, value: int) -> None:
        write_uvarint(self.buf, value)

    def svarint(self, value: int) -> None:
        write_uvarint(self.buf, _zigzag(value))

    def raw(self, data: bytes) -> None:
        self.uvarint(len(data))
        self.buf += data

    def text(self, value: str) -> None:
        self.raw(value.encode("utf-8"))

    # value writer ----------------------------------------------------------

    def value(self, obj: Any) -> None:
        if obj is None:
            self.buf.append(_T_NONE)
        elif isinstance(obj, Unit):
            self.buf.append(_T_UNIT)
        elif isinstance(obj, bool):
            self.buf.append(_T_TRUE if obj else _T_FALSE)
        elif isinstance(obj, int):
            if -(1 << 63) <= obj < (1 << 63):
                self.buf.append(_T_INT)
                self.svarint(obj)
            else:
                self.buf.append(_T_BIGINT)
                self.text(str(obj))
        elif isinstance(obj, str):
            self.buf.append(_T_STR)
            self.text(obj)
        elif isinstance(obj, Char):
            self.buf.append(_T_CHAR)
            self.text(obj.value)
        elif isinstance(obj, Oid):
            self.buf.append(_T_OID)
            self.uvarint(obj.value)
        elif isinstance(obj, TmlArray):
            self.buf.append(_T_ARRAY)
            self.uvarint(len(obj.slots))
            for slot in obj.slots:
                self.value(slot)
        elif isinstance(obj, TmlVector):
            self.buf.append(_T_VECTOR)
            self.uvarint(len(obj.slots))
            for slot in obj.slots:
                self.value(slot)
        elif isinstance(obj, TmlByteArray):
            self.buf.append(_T_BYTES)
            self.raw(bytes(obj.data))
        elif isinstance(obj, tuple):
            self.buf.append(_T_TUPLE)
            self.uvarint(len(obj))
            for item in obj:
                self.value(item)
        elif isinstance(obj, dict):
            self.buf.append(_T_DICT)
            self.uvarint(len(obj))
            for key, val in obj.items():
                self.value(key)
                self.value(val)
        elif isinstance(obj, Blob):
            self.buf.append(_T_BLOB)
            self.raw(obj.data)
        elif isinstance(obj, Name):
            self.buf.append(_T_NAME)
            self.text(obj.base)
            self.uvarint(obj.uid)
            self.buf.append(1 if obj.is_cont else 0)
        else:
            tag = _EXT_BY_TYPE.get(type(obj))
            if tag is None:
                raise SerializeError(f"cannot serialize {type(obj).__name__}")
            _, encode, _ = _EXT_CODECS[tag]
            self.buf.append(_T_EXT)
            self.text(tag)
            encode(obj, self)

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class Decoder:
    """Streaming decoder; optionally swizzles OID references via ``resolver``."""

    def __init__(self, data: bytes, resolver: Callable[[Oid], Any] | None = None):
        self.data = data
        self.pos = 0
        self.resolver = resolver

    # primitive readers -----------------------------------------------------

    def uvarint(self) -> int:
        value, self.pos = read_uvarint(self.data, self.pos)
        return value

    def svarint(self) -> int:
        return _unzigzag(self.uvarint())

    def raw(self) -> bytes:
        length = self.uvarint()
        if self.pos + length > len(self.data):
            raise SerializeError("truncated raw field")
        chunk = self.data[self.pos : self.pos + length]
        self.pos += length
        return chunk

    def text(self) -> str:
        try:
            return self.raw().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializeError(f"text field is not UTF-8: {exc}") from None

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise SerializeError("truncated byte field")
        value = self.data[self.pos]
        self.pos += 1
        return value

    # value reader ----------------------------------------------------------

    def value(self) -> Any:
        tag = self.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_UNIT:
            return UNIT
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_BIGINT:
            return int(self.text())
        if tag == _T_STR:
            return self.text()
        if tag == _T_CHAR:
            return Char(self.text())
        if tag == _T_OID:
            oid = Oid(self.uvarint())
            if self.resolver is not None:
                return self.resolver(oid)
            return oid
        if tag == _T_ARRAY:
            return TmlArray([self.value() for _ in range(self.uvarint())])
        if tag == _T_VECTOR:
            return TmlVector([self.value() for _ in range(self.uvarint())])
        if tag == _T_BYTES:
            return TmlByteArray(self.raw())
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.uvarint()))
        if tag == _T_DICT:
            return {self.value(): self.value() for _ in range(self.uvarint())}
        if tag == _T_BLOB:
            return Blob(self.raw())
        if tag == _T_NAME:
            base = self.text()
            uid = self.uvarint()
            sort = "cont" if self.byte() else "val"
            return Name(base, uid, sort)
        if tag == _T_CODE:
            return self._code()
        if tag == _T_EXT:
            ext_tag = self.text()
            entry = _EXT_CODECS.get(ext_tag)
            if entry is None:
                raise SerializeError(f"unknown extension codec {ext_tag!r}")
            _, _, decode = entry
            return decode(self)
        raise SerializeError(f"unknown tag {tag}")

    def reference(self) -> Any:
        """Read one value whose OID stays a reference.  The resolver still
        sees the OID — fsck counts it, a heap loads its target — but the
        caller keeps the OID."""
        resolver, self.resolver = self.resolver, None
        try:
            ref = self.value()
        finally:
            self.resolver = resolver
        if isinstance(ref, Oid) and resolver is not None:
            resolver(ref)
        return ref

    def _code(self) -> Any:
        """Skip a TAM code object of an image written before PTML was the
        only stored code; what remains of it is its PTML reference."""
        self.text()  # name
        self.value()  # params
        self.uvarint()  # nregs
        self.value()  # instrs
        self.value()  # consts
        for _ in range(self.uvarint()):
            self._code()
        self.value()  # free names
        self.byte()  # is_proc
        return self.value()


def encode_value(obj: Any) -> bytes:
    encoder = Encoder()
    encoder.value(obj)
    return encoder.getvalue()


def decode_value(data: bytes, resolver: Callable[[Oid], Any] | None = None) -> Any:
    decoder = Decoder(data, resolver)
    value = decoder.value()
    if decoder.pos != len(data):
        raise SerializeError("trailing bytes after value")
    return value
