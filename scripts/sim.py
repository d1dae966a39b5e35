#!/usr/bin/env python
"""The chaos-sim driver (``make sim-SUITE``, the CI ``sim`` matrix job).

Runs one suite of :mod:`repro.testing.chaos` — ``crash``, ``replication``,
``sharding``, ``exhaustion`` or ``recovery`` — and exits nonzero if any
scenario violated an invariant (docs/durability.md tabulates what each
suite injects and asserts).  ``--negative-control`` runs the suite's one
negative control instead: the same check with the protection under test
switched off.  It MUST fail (exit nonzero), which CI asserts by inverting
the invocation — proving the detector still detects.

Usage: python scripts/sim.py --suite NAME [--quick] [--negative-control]
                             [--json OUT] [--verbose]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.testing.chaos import SUITES, print_progress, run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scenario grid for local iteration",
    )
    parser.add_argument(
        "--negative-control", action="store_true",
        help="run the suite's negative control; MUST exit nonzero",
    )
    parser.add_argument("--json", metavar="OUT", help="write the report as JSON")
    parser.add_argument(
        "--verbose", action="store_true", help="print every scenario result"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=f"{args.suite}-sim-") as workdir:
        report = run(
            SUITES[args.suite],
            workdir,
            quick=args.quick,
            negative_control=args.negative_control,
            progress=print_progress(args.verbose),
        )
    facts = "".join(f", {key}={value}" for key, value in report["meta"].items())
    print(
        f"{args.suite}-sim [{report['mode']}]: {report['scenarios']} scenarios{facts} "
        f"in {report['duration_s']}s -> "
        + ("OK" if not report["failed"] else f"{report['failed']} FAILURES")
    )
    for failure in report["failures"]:
        print(f"  FAIL {failure['name']}: {failure['detail']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.json}")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
