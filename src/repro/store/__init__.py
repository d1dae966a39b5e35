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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".faults": ["CrashPoint", "FaultFile", "FaultPlan"],
        ".fsck": ["FsckResult", "fsck_image"],
        ".heap": ["HeapError", "ObjectHeap", "Transaction"],
        ".pager": ["FORMAT_VERSION", "PageError", "Pager"],
        ".ptml": ["DecodedPtml", "PtmlError", "decode_ptml", "encode_ptml", "ptml_size"],
        ".serialize": [
            "Blob", "Decoder", "Encoder", "SerializeError", "decode_value",
            "encode_value", "register_codec",
        ],
    },
)
