#!/usr/bin/env python
"""CI smoke test for the repro daemon (`python scripts/server_smoke.py`).

Boots ``python -m repro serve`` as a real subprocess with NDJSON tracing,
then drives it the way the docs promise it works:

1. eight concurrent client sessions transactionally increment one shared
   counter — every increment must survive (serialized commits, no lost
   updates);
2. a stored function is called from several sessions — the second session
   must find its module already linked (a code-cache hit);
3. a library redefined under an importer that was already called is seen
   by the importer's next call, with no restart;
4. one explicit PGO round replaces the measured-hot function with a
   cheaper body while the server keeps answering;
5. a ``shutdown`` request stops the daemon gracefully (exit code 0);
6. a daemon restarted over the image runs what the first one committed:
   the PGO round's optimized code, and the redefined library under its
   importer; it compiles a new importer of the stored library against the
   interface in the library's record, and refuses an ill-typed one with
   ``bad_request``; then it shuts down gracefully too.

Exits nonzero on the first violated expectation.  The trace file
(``artifacts/server-smoke-trace.ndjson`` by default) is uploaded as a
CI artifact; all scratch outputs stay out of the repo root.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.server.client import ServerError, connect  # noqa: E402

BENCH = """
module bench export work
let work(n: Int): Int =
  var s := 0 in var i := 0 in
  begin while i < n do begin s := s + i; i := i + 1 end end; s end
end"""

LIB = "module lib export f let f(n: Int): Int = n + {} end"
APP = "module app export g import lib let g(n: Int): Int = lib.f(n) + lib.f(n) end"
IMPORTER = "module app2 export h import lib let h(n: Int): Int = lib.f(n) * 3 end"
ILL_TYPED = "module bad export h import lib let h(n: Int): Int = lib.f(n, n) end"

SESSIONS = 8
INCREMENTS = 4


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"ok: {message}")


def boot(image: str, *options: str) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro serve image``; the daemon and its port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", image,
            "--no-pgo",  # rounds are driven explicitly for determinism
            *options,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    ready = daemon.stdout.readline().strip()
    match = re.fullmatch(r"listening on (\S+):(\d+)", ready)
    if match is None:
        daemon.kill()
        daemon.wait(timeout=30)
        fail(f"daemon did not announce readiness, got {ready!r}")
    print(f"daemon ready on port {match.group(2)}")
    return daemon, int(match.group(2))


def shut_down(daemon: subprocess.Popen, port: int) -> None:
    with connect(port) as db:
        check(db.shutdown() == {"stopping": True}, "shutdown acknowledged")
    daemon.wait(timeout=60)
    check(daemon.returncode == 0, "daemon exited cleanly")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--image", default="artifacts/server-smoke.tyc")
    parser.add_argument("--trace", default="artifacts/server-smoke-trace.ndjson")
    args = parser.parse_args()

    for path in (args.image, args.trace):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    daemon, port = boot(args.image, "--trace", args.trace)
    try:

        # --- 1. concurrent transactional commits, no lost updates --------
        with connect(port) as db:
            db.run(BENCH)
            db.set("counter", 0)
        errors: list[Exception] = []

        def incrementer() -> None:
            try:
                with connect(port) as session:
                    for _ in range(INCREMENTS):
                        with session.transaction():
                            value = session.get("counter")["counter"]
                            session.set("counter", value + 1)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=incrementer) for _ in range(SESSIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        check(not errors, f"{SESSIONS} concurrent sessions committed without error")
        with connect(port) as db:
            final = db.get("counter")["counter"]
        check(
            final == SESSIONS * INCREMENTS,
            f"counter == {SESSIONS * INCREMENTS} after "
            f"{SESSIONS}x{INCREMENTS} transactional increments (got {final})",
        )

        # --- 2. shared compiled-code cache serves hits across sessions ---
        with connect(port) as first:
            first.call("bench", "work", [200])
        with connect(port) as second:
            result = second.call("bench", "work", [200], full=True)
            stats = second.stats()
        check(result["cache"] == "hit", "second session hit the compiled-code cache")
        check(stats["codecache"]["hits"] >= 1, "code cache hit counter advanced")

        # --- 3. importers see a redefined library without a restart -------
        with connect(port) as db:
            db.run(LIB.format(1))
            db.run(APP)
            check(db.call("app", "g", [1]) == 4, "app.g calls lib.f (n + 1)")
            db.run(LIB.format(100))
            reply = db.call("app", "g", [1], full=True)
        check(
            (reply["value"], reply["cache"]) == (202, "miss"),
            f"app.g relinked against the redefined lib.f (got {reply['value']}, "
            f"{reply['cache']})",
        )

        # --- 4. a PGO round swaps in faster code while serving ------------
        with connect(port) as db:
            before = db.call("bench", "work", [200], full=True)
            report = db.pgo(top=1)
            optimized = [entry["function"] for entry in report["optimized"]]
            check("bench.work" in optimized, "pgo round reoptimized bench.work")
            after = db.call("bench", "work", [200], full=True)
            check(after["value"] == before["value"], "optimized code agrees on the result")
            check(
                after["instructions"] < before["instructions"],
                f"optimized code is faster "
                f"({before['instructions']} -> {after['instructions']} instructions)",
            )
            check(db.ping()["pong"] is True, "server still serving after the swap")

        # --- 5. graceful shutdown ----------------------------------------
        shut_down(daemon, port)
        check(
            os.path.exists(args.trace) and os.path.getsize(args.trace) > 0,
            f"trace artifact {args.trace} written",
        )

        # --- 6. a restart runs what the first daemon committed -------------
        # (no --trace: the first daemon's trace stays the artifact)
        daemon, port = boot(args.image)
        with connect(port) as db:
            restarted = db.call("bench", "work", [200], full=True)
            check(
                (restarted["value"], restarted["instructions"])
                == (after["value"], after["instructions"]),
                f"bench.work runs the PGO round's code after a restart "
                f"({restarted['instructions']} instructions)",
            )
            check(db.call("app", "g", [1]) == 202, "app.g still calls the redefined lib.f")
            check(db.run(IMPORTER) == ["app2"], "a new importer of the stored lib compiles")
            check(db.call("app2", "h", [1]) == 303, "app2.h calls the stored lib.f")
            refused = None
            try:
                db.run(ILL_TYPED)
            except ServerError as exc:
                refused = exc.code
            check(refused == "bad_request", f"an ill-typed importer is refused (got {refused})")
        shut_down(daemon, port)
        print("server smoke: all checks passed")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)


if __name__ == "__main__":
    raise SystemExit(main())
