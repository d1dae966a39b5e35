#!/usr/bin/env python
"""Negative control for ``python -m repro audit`` (CI runs this inverted).

Builds a fresh image, persists a known-good module and audits it, which
installs analysis facts for every function; then flips one bit of one
stored instruction's opcode — exactly the class of silent bytecode
corruption the whole-image audit exists to catch (the physical layer is
fine, so ``fsck`` stays green; only semantic verification can see it).
The flip leaves the function's PTML hash, and so its fact record, in
place: the control runs on the warm path.  The script then runs the real
CLI audit against the tampered image and exits 0 **only if the audit
failed** — a green audit on corrupt code turns ``make audit`` (and CI) red.
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


def flip_one_bit(path: str) -> str:
    """Flip the low bit of the last opcode byte of ctrl.fact's first instr."""
    heap = ObjectHeap(path)
    oid = heap.root("module:ctrl")
    stored = heap.load(oid)
    flipped = None
    for fn_name, code, _externals in stored.functions:
        if fn_name == "fact":
            op, *rest = code.instrs[0]
            flipped = op[:-1] + chr(ord(op[-1]) ^ 1)
            code.instrs[0] = (flipped, *rest)
            break
    assert flipped is not None, "ctrl.fact not found in the stored module"
    heap.update(oid, stored)
    heap.commit()
    heap.close()
    return flipped


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
    print(f"flipped one opcode bit in ctrl.fact (now {flipped!r})")

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
