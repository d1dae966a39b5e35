"""Seeded inputs.  The program under test only ever sees what is generated
here; the same seed gives the same inputs.

The *shape* of every input (counts, sizes, call-graph structure) is fixed
and only the contents vary with the seed, so that runs with different seeds
do the same amount of work and their timings are comparable.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from repro.bench.stanford import PROGRAMS

__all__ = [
    "REPO_ROOT",
    "stanford_programs",
    "SynthModule",
    "synth_module",
    "QUERY_SOURCE",
    "relation_rows",
    "KvData",
    "kv_blob",
    "kv_data",
    "fresh_value",
    "APP_SOURCE",
    "step_source",
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stanford_programs() -> list:
    return [PROGRAMS[name] for name in sorted(PROGRAMS)]


# ---------------------------------------------------------------------------
# synthetic module: call chains, so the expansion pass has inlining work
# ---------------------------------------------------------------------------

CHAINS = 15
CHAIN_LENGTH = 10


@dataclass
class SynthModule:
    source: str
    #: exported entry points, one per chain
    entries: list[str]
    #: independent Python evaluation of each entry point
    reference: dict[str, Callable[[int], int]]


def synth_module(seed: int) -> SynthModule:
    """150 small functions in 15 chains of 10; ``f_c_j`` calls ``f_c_(j-1)``
    (and, from the third link on, ``f_c_(j-2)`` on one branch).  The seed
    picks constants and operators; the call graph never changes."""
    rng = random.Random(seed * 7919 + 1)
    lines = []
    reference: dict[str, Callable[[int], int]] = {}
    entries = []
    for c in range(CHAINS):
        previous: list[Callable[[int], int]] = []
        for j in range(CHAIN_LENGTH):
            name = f"f_{c}_{j}"
            a, b, m = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(3, 8)
            op = rng.choice("+-")
            if j == 0:
                body = f"x {op} {a}"
                fn = (lambda x, a=a, op=op: x + a if op == "+" else x - a)
            elif j == 1:
                body = f"f_{c}_0(x {op} {a}) + {b}"
                fn = (
                    lambda x, a=a, b=b, op=op, p=previous[0]:
                    p(x + a if op == "+" else x - a) + b
                )
            else:
                body = (
                    f"if x % {m} == 0 then f_{c}_{j - 2}(x + {a}) "
                    f"else f_{c}_{j - 1}(x {op} {b}) + {a} end"
                )
                fn = (
                    lambda x, a=a, b=b, m=m, op=op, p1=previous[j - 1], p2=previous[j - 2]:
                    p2(x + a) if x % m == 0 else p1(x + b if op == "+" else x - b) + a
                )
            lines.append(f"let {name}(x: Int): Int = {body}")
            previous.append(fn)
        entry = f"f_{c}_{CHAIN_LENGTH - 1}"
        entries.append(entry)
        reference[entry] = previous[-1]
    source = "module synth export " + " ".join(entries) + "\n" + "\n".join(lines) + "\nend\n"
    return SynthModule(source, entries, reference)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

RELATION_ROWS = 5000

#: four query functions over data module ``db`` (relation ``data``: id, v)
QUERY_SOURCE = """
module q export byid byrem stacked anybig
import db
type Row = tuple id: Int, v: Int end
let byid(k: Int) =
  select r from db.data as r : Row where r.id == k end
let byrem(k: Int) =
  select r from db.data as r : Row where r.v % 89 == k end
let stacked() =
  select b from
    (select a from db.data as a : Row where a.v % 2 == 0 end)
    as b : Row
  where b.v % 3 == 0 end
let anybig(limit: Int): Bool =
  exists r : Row in db.data : limit > 500
end
"""


def relation_rows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed * 7919 + 2)
    return [(i, rng.randrange(0, 1000)) for i in range(RELATION_ROWS)]


# ---------------------------------------------------------------------------
# key-value data
# ---------------------------------------------------------------------------

_SIZES = ((0.7, 64), (0.9, 512), (1.0, 6000))


@dataclass
class KvData:
    keys: list[str]
    values: dict[str, str]
    user_bytes: int


def fresh_value(rng: random.Random, blob: str) -> str:
    """A value cut from ``blob``, its size drawn from the 70/20/10 mix."""
    draw = rng.random()
    size = next(size for limit, size in _SIZES if draw <= limit)
    offset = rng.randrange(0, len(blob) - size)
    return blob[offset : offset + size]


def kv_blob(seed: int) -> str:
    rng = random.Random(seed * 7919 + 3)
    return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=32768))


def kv_data(seed: int, count: int) -> KvData:
    rng = random.Random(seed * 7919 + 4)
    blob = kv_blob(seed)
    keys = [f"k{i:05d}" for i in range(count)]
    values = {key: fresh_value(rng, blob) for key in keys}
    return KvData(keys, values, sum(len(v) for v in values.values()))


APP_SOURCE = """
module app export sumto step
let sumto(n: Int): Int =
  var s := 0 in
  begin
    for i = 1 upto n do s := s + i end;
    s
  end
let step(n: Int): Int = n + 0
end
"""


def step_source(generation: int) -> str:
    """Redefinition ``generation`` of ``app`` (``step(n) = n + generation``)."""
    return APP_SOURCE.replace("n + 0", f"n + {generation}")
