#!/usr/bin/env python
"""Negative control for ``python -m repro audit`` (CI runs this inverted).

Builds a fresh image, persists a known-good module and audits it, which
installs analysis facts for every function; then flips one bit of the PTML
blob stored for ``ctrl.fact`` — the one stored form of its code.  The bit
is the sort flag of the function's first parameter, so ``n`` becomes a
continuation variable, and the tree fails well-formedness (constraint 1:
a value argument follows a continuation argument).  The physical layer is
fine, so ``fsck`` stays green; the audit must refuse the module when it
regenerates its code (``TAM113``), as a daemon booting over the image
skips it.  The script then runs the real CLI audit against the tampered
image and exits 0 **only if the audit failed** — a green audit on corrupt
code turns ``make audit`` (and CI) red.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.lang import TycoonSystem  # noqa: E402
from repro.store.heap import ObjectHeap  # noqa: E402
from repro.store.serialize import Blob, Decoder  # noqa: E402

SRC = """
module ctrl
export fact main
let fact(n: Int): Int = if n < 2 then 1 else n * fact(n - 1) end
let main(): Int = fact(12)
end
"""


def build_image(path: str) -> None:
    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile(SRC)
    system.persist("ctrl")
    system.heap.commit()
    system.heap.close()


def flip_one_bit(path: str, module: str = "ctrl", function: str = "fact") -> str:
    """Flip the sort bit of the first name in ``module.function``'s stored
    PTML (the function's first parameter) and commit; returns that name."""
    heap = ObjectHeap(path)
    try:
        stored = heap.load_root(f"module:{module}")
        ref = next(ref for name, ref, _ in stored.functions if name == function)
        data = bytearray(heap.load(ref).data)
        # PTML opens with its string table, then the name table: the first
        # entry is a string index, a uid and the sort byte flipped here
        decoder = Decoder(bytes(data))
        strings = [decoder.text() for _ in range(decoder.uvarint())]
        decoder.uvarint()  # number of names
        base = strings[decoder.uvarint()]
        decoder.uvarint()  # uid
        data[decoder.pos] ^= 1
        heap.update(ref, Blob(bytes(data)))
        heap.commit()
        return base
    finally:
        heap.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--image", help="image path (default: a temp file, removed after)"
    )
    parser.add_argument("--json", help="write the failing audit report here")
    args = parser.parse_args(argv)

    image = args.image or os.path.join(
        tempfile.mkdtemp(prefix="audit-ctrl-"), "control.tyc"
    )
    build_image(image)

    clean = repro_main(["audit", image])
    if clean != 0:
        print("control error: audit of the untampered image failed", file=sys.stderr)
        return 1
    print(f"untampered image audits clean: {image}")

    flipped = flip_one_bit(image)
    print(f"flipped the sort bit of {flipped!r} in ctrl.fact's stored PTML")

    audit_argv = ["audit", image]
    if args.json:
        audit_argv += ["--json", args.json]
    tampered = repro_main(audit_argv)
    if tampered == 0:
        print(
            "NEGATIVE CONTROL FAILED: the audit passed a bit-flipped image",
            file=sys.stderr,
        )
        return 1
    print("audit correctly rejected the tampered image (nonzero exit)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
