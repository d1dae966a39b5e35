"""PTML: the compact persistent encoding of TML trees (paper section 4.1).

"For each exported source code function f in a compilation unit, the
compiler back end augments the generated code for f with a reference to a
compact persistent representation of the TML tree (Persistent TML, PTML)
for f.  At runtime, it is possible to map PTML back into TML, re-invoke the
optimizer and code-generator, link the newly-generated code into the running
program, and execute it."

Format (all integers varint):

* string table — interned identifier bases and primitive names;
* name table — (base index, uid, sort bit) triples;
* free-name list — the term's free variables in a canonical order.  These
  are the *R-value binding* identifiers the paper says the PTML→TML mapping
  returns; the runtime pairs them with the values/OIDs found in the
  procedure's closure record;
* node stream — the tree in preorder with per-node opcodes.

Encoding and decoding are fully iterative: compiled functions produce CPS
chains thousands of applications deep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.freevars import free_names
from repro.core.names import Name
from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var
from repro.obs.metrics import METRICS
from repro.store.serialize import Blob, Decoder, Encoder, SerializeError

__all__ = [
    "PtmlError",
    "DecodedPtml",
    "encode_ptml",
    "decode_ptml",
    "ptml_key",
    "ptml_size",
]

_PTML_ENCODES = METRICS.counter("store.ptml.encodes", "TML→PTML encodings")
_PTML_DECODES = METRICS.counter("store.ptml.decodes", "PTML→TML decodings")
_PTML_ENCODE_BYTES = METRICS.histogram(
    "store.ptml.encode_bytes", "encoded PTML blob sizes"
)
_PTML_DECODE_BYTES = METRICS.histogram(
    "store.ptml.decode_bytes", "decoded PTML blob sizes"
)

_OP_LIT = 0
_OP_VAR = 1
_OP_ABS = 2
_OP_APP = 3
_OP_PRIM = 4


class PtmlError(SerializeError):
    """Corrupt or unsupported PTML blob."""


@dataclass(slots=True)
class DecodedPtml:
    """Result of mapping PTML back to TML.

    ``free`` lists the identifiers whose R-values must be re-established
    from the procedure's closure record before optimization (section 4.1).
    """

    term: Term
    free: tuple[Name, ...]


def encode_ptml(term: Term) -> Blob:
    """Encode a TML term as a compact persistent blob."""
    strings: list[str] = []
    string_index: dict[str, int] = {}
    names: list[Name] = []
    name_index: dict[Name, int] = {}

    def intern_string(text: str) -> int:
        index = string_index.get(text)
        if index is None:
            index = len(strings)
            strings.append(text)
            string_index[text] = index
        return index

    def intern_name(name: Name) -> int:
        index = name_index.get(name)
        if index is None:
            intern_string(name.base)
            index = len(names)
            names.append(name)
            name_index[name] = index
        return index

    # -- first pass: tables (iterative preorder) --
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            intern_name(node.name)
        elif isinstance(node, Abs):
            for param in node.params:
                intern_name(param)
            stack.append(node.body)
        elif isinstance(node, App):
            for arg in reversed(node.args):
                stack.append(arg)
            stack.append(node.fn)
        elif isinstance(node, PrimApp):
            intern_string(node.prim)
            for arg in reversed(node.args):
                stack.append(arg)

    encoder = Encoder()
    encoder.uvarint(len(strings))
    for text in strings:
        encoder.text(text)
    encoder.uvarint(len(names))
    for name in names:
        encoder.uvarint(string_index[name.base])
        encoder.uvarint(name.uid)
        encoder.buf.append(1 if name.is_cont else 0)

    ordered_free = sorted(free_names(term), key=lambda n: n.uid)
    encoder.uvarint(len(ordered_free))
    for name in ordered_free:
        encoder.uvarint(name_index[name])

    # -- second pass: node stream --
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Lit):
            encoder.buf.append(_OP_LIT)
            encoder.value(node.value)
        elif isinstance(node, Var):
            encoder.buf.append(_OP_VAR)
            encoder.uvarint(name_index[node.name])
        elif isinstance(node, Abs):
            encoder.buf.append(_OP_ABS)
            encoder.uvarint(len(node.params))
            for param in node.params:
                encoder.uvarint(name_index[param])
            stack.append(node.body)
        elif isinstance(node, App):
            encoder.buf.append(_OP_APP)
            encoder.uvarint(len(node.args))
            for arg in reversed(node.args):
                stack.append(arg)
            stack.append(node.fn)
        elif isinstance(node, PrimApp):
            encoder.buf.append(_OP_PRIM)
            encoder.uvarint(string_index[node.prim])
            encoder.uvarint(len(node.args))
            for arg in reversed(node.args):
                stack.append(arg)
        else:  # pragma: no cover - defensive
            raise PtmlError(f"not a TML term: {node!r}")

    payload = encoder.getvalue()
    _PTML_ENCODES.inc()
    _PTML_ENCODE_BYTES.observe(len(payload))
    return Blob(payload)


def decode_ptml(blob: Blob | bytes) -> DecodedPtml:
    """Map a PTML blob back to a TML term plus its R-value binding names."""
    data = blob.data if isinstance(blob, Blob) else bytes(blob)
    _PTML_DECODES.inc()
    _PTML_DECODE_BYTES.observe(len(data))
    decoder = Decoder(data)

    strings = [decoder.text() for _ in range(decoder.uvarint())]
    names: list[Name] = []
    for _ in range(decoder.uvarint()):
        base_index = decoder.uvarint()
        uid = decoder.uvarint()
        sort = "cont" if decoder.byte() else "val"
        if base_index >= len(strings):
            raise PtmlError("name base out of range")
        names.append(Name(strings[base_index], uid, sort))

    free = tuple(_entry(names, decoder.uvarint()) for _ in range(decoder.uvarint()))

    # -- node stream: iterative preorder parse with a frame stack --
    # frame: [builder_kind, meta, needed, children]
    frames: list[list] = []
    result: Term | None = None

    def complete(node: Term) -> Term | None:
        """Attach a finished node to the open frame; reduce when filled."""
        while frames:
            frame = frames[-1]
            frame[3].append(node)
            if len(frame[3]) < frame[2]:
                return None
            frames.pop()
            kind, meta, _, children = frame
            if kind == _OP_ABS:
                body = children[0]
                if not isinstance(body, (App, PrimApp)):
                    raise PtmlError("abstraction body is not an application")
                node = Abs(meta, body)
            elif kind == _OP_APP:
                fn, *args = children
                node = App(fn, tuple(args))
            else:  # _OP_PRIM
                node = PrimApp(meta, tuple(children))
        return node

    while result is None:
        if decoder.pos >= len(data):
            raise PtmlError("truncated node stream")
        op = decoder.byte()
        finished: Term | None
        if op == _OP_LIT:
            finished = complete(Lit(decoder.value()))
        elif op == _OP_VAR:
            finished = complete(Var(_entry(names, decoder.uvarint())))
        elif op == _OP_ABS:
            count = decoder.uvarint()
            params = tuple(_entry(names, decoder.uvarint()) for _ in range(count))
            frames.append([_OP_ABS, params, 1, []])
            finished = None
        elif op == _OP_APP:
            count = decoder.uvarint()
            frames.append([_OP_APP, None, count + 1, []])
            finished = None
        elif op == _OP_PRIM:
            prim = _entry(strings, decoder.uvarint())
            count = decoder.uvarint()
            if count == 0:
                finished = complete(PrimApp(prim, ()))
            else:
                frames.append([_OP_PRIM, prim, count, []])
                finished = None
        else:
            raise PtmlError(f"unknown PTML opcode {op}")
        if finished is not None:
            result = finished

    if decoder.pos != len(data):
        raise PtmlError("trailing bytes after node stream")
    return DecodedPtml(term=result, free=free)


def _entry(table: list, index: int):
    if index >= len(table):
        raise PtmlError(f"table index {index} out of range")
    return table[index]


def ptml_size(term: Term) -> int:
    """Byte size of the PTML encoding (the E3 experiment's measure)."""
    return len(encode_ptml(term).data)


def ptml_key(ref, heap=None) -> str | None:
    """The PTML content identity: ``sha256`` of the encoded blob bytes.

    ``ref`` may be a :class:`Blob`, a store OID (resolved through ``heap``),
    or any object with a ``ptml_ref`` attribute (a
    :class:`~repro.machine.isa.CodeObject`).  Two functions with the same
    key have byte-identical PTML and therefore identical observable
    behavior — the keying invariant of the persisted fact store
    (:mod:`repro.analysis.facts`).  Returns None when no PTML
    is attached or the reference cannot be resolved.
    """
    import hashlib

    if ref is not None and not isinstance(ref, Blob) and hasattr(ref, "ptml_ref"):
        ref = ref.ptml_ref
    if ref is None:
        return None
    if not isinstance(ref, Blob):
        if heap is None:
            return None
        try:
            ref = heap.load(ref)
        except Exception:
            return None
        if not isinstance(ref, Blob):
            return None
    return hashlib.sha256(ref.data).hexdigest()
