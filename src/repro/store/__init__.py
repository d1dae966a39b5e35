"""The persistent object store (paper sections 2.2 and 4.1).

Layers: :mod:`repro.store.pager` (checksummed page file with dual-header
commits) → :mod:`repro.store.heap` (OID → object, roots, atomic commit;
its durable directory is the record chain of :mod:`repro.store.table`) →
:mod:`repro.store.serialize` (value codec with domain extensions) and
:mod:`repro.store.ptml` (the compact persistent TML encoding attached to
compiled functions).  Durability tooling: :mod:`repro.store.faults`
(fault-injecting file layer), :mod:`repro.store.fsck` (offline
check/repair) and :mod:`repro.store.format` (v1 migration); the
chaos suites that prove it live in :mod:`repro.testing.chaos`; see
docs/durability.md.
"""

from repro.store.faults import CrashPoint, FaultFile, FaultPlan
from repro.store.fsck import FsckResult, fsck_image
from repro.store.heap import HeapError, ObjectHeap, Transaction
from repro.store.pager import FORMAT_VERSION, PageError, Pager
from repro.store.ptml import DecodedPtml, PtmlError, decode_ptml, encode_ptml, ptml_size
from repro.store.serialize import (
    Blob,
    Decoder,
    Encoder,
    SerializeError,
    decode_value,
    encode_value,
    register_codec,
)

__all__ = [
    "HeapError",
    "ObjectHeap",
    "Transaction",
    "PageError",
    "Pager",
    "FORMAT_VERSION",
    "CrashPoint",
    "FaultFile",
    "FaultPlan",
    "FsckResult",
    "fsck_image",
    "DecodedPtml",
    "PtmlError",
    "decode_ptml",
    "encode_ptml",
    "ptml_size",
    "Blob",
    "Decoder",
    "Encoder",
    "SerializeError",
    "decode_value",
    "encode_value",
    "register_codec",
]
