#!/usr/bin/env python
"""Benchmark the whole-image analysis layer → ``BENCH_analysis.json``.

Measures the costs the audit/fact-cache design trades against each other:

* cold audit — verify + abstractly interpret every stored function of a
  representative image (user modules over the persisted stdlib);
* warm audit — the same image again with all facts valid: the advertised
  steady-state cost of ``repro audit`` in CI;
* incremental audit — after redefining one function: only the dirty slice
  of the call graph is recomputed.

The artifact follows the ``BENCH_vm.json``/``BENCH_opt.json`` envelope so
the analysis layer's performance trajectory is tracked across PRs too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.audit import audit_image  # noqa: E402
from repro.lang import TycoonSystem  # noqa: E402
from repro.store.heap import ObjectHeap  # noqa: E402

SRC = """
module app
export fact deep main
let add3(a: Int, b: Int, c: Int): Int = a + b + c
let deep(x: Int): Int = add3(x, x, x)
let fact(n: Int): Int = if n < 2 then 1 else n * fact(n - 1) end
let main(): Int = fact(12) + deep(7)
end
"""

SRC_V2 = SRC.replace("fact(12)", "fact(11)")


def _build(path: str, source: str = SRC) -> None:
    system = TycoonSystem(heap=ObjectHeap(path))
    system.compile(source)
    system.persist("app")
    system.heap.commit()
    system.heap.close()


def _audit_timing(image: str) -> dict:
    cold = audit_image(image)
    warm = audit_image(image)
    _build(image, SRC_V2)  # app.main's body (and PTML hash) moves
    incremental = audit_image(image)
    return {
        "functions": cold.functions,
        "modules": cold.modules,
        "cold": {"wall_s": round(cold.wall_s, 6), "analyzed": cold.analyzed},
        "warm": {
            "wall_s": round(warm.wall_s, 6),
            "analyzed": warm.analyzed,
            "reused": warm.reused,
        },
        "incremental": {
            "wall_s": round(incremental.wall_s, 6),
            "analyzed": incremental.analyzed,
            "reused": incremental.reused,
            "pruned": list(incremental.pruned),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="BENCH_analysis.json")
    args = parser.parse_args(argv)

    image = os.path.join(tempfile.mkdtemp(prefix="analysis-bench-"), "bench.tyc")
    _build(image)

    payload = {
        "schema": "repro.bench.analysis/v1",
        "meta": {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        "audit": _audit_timing(image),
    }
    with open(args.json, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")

    audit = payload["audit"]
    print(
        f"audit over {audit['functions']} function(s): "
        f"cold {audit['cold']['wall_s'] * 1000:.1f} ms, "
        f"warm {audit['warm']['wall_s'] * 1000:.1f} ms "
        f"({audit['warm']['reused']} fact(s) reused), "
        f"incremental {audit['incremental']['wall_s'] * 1000:.1f} ms "
        f"({audit['incremental']['analyzed']} recomputed)"
    )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
