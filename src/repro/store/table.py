"""The object-table record — one codec for the heap, fsck and migration.

The heap's durable directory (OID → page chain, root name → OID) is a
*chain of records*.  ``header.table_page/table_len`` names the newest
record; every record holds table entries, root bindings and the location
of the record written before it::

    uvarint n    n * [uvarint oid, uvarint head, uvarint length]
    uvarint m    m * [text name, uvarint oid]
    [uvarint prev_page, uvarint prev_len]     -- absent: nothing before it

A record without the trailer is *complete*: it states the whole directory
and ends the chain (a format-v1/v2 table is exactly that, so older images
fold as a chain of one).  A record with a trailer is a *delta* over the
records before it.  Two sentinels make deletion expressible in a delta,
both values no live entry can have: a ``head`` of 0 drops the OID (page 0
is the header, never a chain head), an ``oid`` of 0 unbinds the root
(OIDs start at 1).  :func:`load_table` folds a chain oldest-first.

The varints are written and read in bulk: a complete record of 10 000
objects is ~70 000 of them, which is milliseconds here and most of a
tenth of a second through ``Encoder.uvarint`` one call at a time.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from repro.store.serialize import SerializeError, read_uvarint, write_uvarint

__all__ = ["NO_RECORD", "TableChain", "encode_table", "load_table"]

#: the "nothing before this record" location
NO_RECORD = (0, 0)

Entries = Mapping[int, tuple[int, int]]
Roots = Mapping[str, int]


class TableChain(NamedTuple):
    """A folded record chain."""

    #: oid -> (head_page, length)
    table: dict[int, tuple[int, int]]
    #: root name -> oid
    roots: dict[str, int]
    #: ``(head_page, length)`` of every record, oldest (the complete one) first
    records: list[tuple[int, int]]
    #: what the newest record itself states, when it is a delta (sentinels
    #: included) — the heap copies it forward with the next commit merged in
    tail: tuple[dict[int, tuple[int, int]], dict[str, int]]


def encode_table(entries: Entries, roots: Roots, prev: tuple[int, int] = NO_RECORD) -> bytes:
    """One record: ``entries`` and ``roots`` (sentinels allowed), then the
    location of the record before it unless this one is complete."""
    numbers = [len(entries)]
    for oid, (head, length) in entries.items():
        numbers += (oid, head, length)
    numbers.append(len(roots))
    out = bytearray()
    push = out.append
    for value in numbers:
        while value > 0x7F:
            push((value & 0x7F) | 0x80)
            value >>= 7
        push(value)
    for name, oid in roots.items():
        data = name.encode("utf-8")
        value = len(data)
        while value > 0x7F:
            push((value & 0x7F) | 0x80)
            value >>= 7
        push(value)
        out += data
        while oid > 0x7F:
            push((oid & 0x7F) | 0x80)
            oid >>= 7
        push(oid)
    if prev[0]:
        write_uvarint(out, prev[0])
        write_uvarint(out, prev[1])
    return bytes(out)


def _decode_record(raw: bytes):
    """``(entries, roots, prev)`` of one record, in the order written."""
    try:
        count, pos = read_uvarint(raw, 0)
        numbers = []
        push = numbers.append
        for _ in range(3 * count):
            byte = raw[pos]
            pos += 1
            value = byte & 0x7F
            shift = 7
            while byte & 0x80:
                byte = raw[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                shift += 7
            push(value)
        entries = list(zip(numbers[0::3], zip(numbers[1::3], numbers[2::3])))
        nroots, pos = read_uvarint(raw, pos)
        roots = []
        for _ in range(nroots):
            size = raw[pos]
            pos += 1
            if size & 0x80:
                size, pos = read_uvarint(raw, pos - 1)
            if pos + size > len(raw):
                raise SerializeError("truncated root name")
            name = raw[pos : pos + size].decode("utf-8")
            pos += size
            byte = raw[pos]
            pos += 1
            oid = byte & 0x7F
            shift = 7
            while byte & 0x80:
                byte = raw[pos]
                pos += 1
                oid |= (byte & 0x7F) << shift
                shift += 7
            roots.append((name, oid))
        prev = NO_RECORD
        if pos < len(raw):
            prev_page, pos = read_uvarint(raw, pos)
            prev_len, pos = read_uvarint(raw, pos)
            prev = (prev_page, prev_len)
    except (IndexError, UnicodeDecodeError) as exc:
        raise SerializeError(f"corrupt object-table record: {exc}") from exc
    if pos != len(raw):
        raise SerializeError("trailing bytes after object-table record")
    return entries, roots, prev


def load_table(
    read_chain: Callable[[int, int], bytes], head: int, length: int
) -> TableChain:
    """Walk the record chain from its newest record and fold it oldest-first.

    ``read_chain(head, length)`` fetches one record's bytes (the pager's
    checksummed chain read; the v1 migration passes its own).  A ``head``
    of 0 is the empty directory of a fresh image.
    """
    decoded = []
    seen: set[int] = set()
    while head:
        if head in seen:
            raise SerializeError(f"object-table chain revisits page {head}")
        seen.add(head)
        entries, roots, prev = _decode_record(read_chain(head, length))
        decoded.append(((head, length), entries, roots))
        head, length = prev
    decoded.reverse()
    table: dict[int, tuple[int, int]] = {}
    bound: dict[str, int] = {}
    for _, entries, roots in decoded:
        for oid, entry in entries:
            if entry[0]:
                table[oid] = entry
            else:
                table.pop(oid, None)
        for name, oid in roots:
            if oid:
                bound[name] = oid
            else:
                bound.pop(name, None)
    tail = (dict(decoded[-1][1]), dict(decoded[-1][2])) if len(decoded) > 1 else ({}, {})
    return TableChain(table, bound, [where for where, _, _ in decoded], tail)
