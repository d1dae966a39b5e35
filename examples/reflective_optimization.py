"""The paper's section 4.1 example, end to end: reflect.optimize(abs).

Run:  python examples/reflective_optimization.py

A module `complex` exports a hidden record type and accessor functions; a
separately compiled function `abs` uses them through the module interface.
Statically, the implementation behind the interface is invisible — the
abstraction barrier.  At runtime all bindings exist, so the reflective
optimizer can collect every contributing declaration into one scope,
re-optimize, and produce `optimizedAbs`, equivalent to

    let optimizedAbs(c : complex.T) : Real = sqrt(c.x*c.x + c.y*c.y)

exactly as printed in the paper.
"""

from repro import TycoonSystem, pretty, reflect
from repro.obs.profile import profile_call

COMPLEX_SRC = """
module complex export T new x y
-- the representation of T is an implementation detail of this module
type T = tuple x: Int, y: Int end
let new(a: Int, b: Int): T = tuple x = a, y = b end
let x(c: T): Int = c.x
let y(c: T): Int = c.y
end
"""

APP_SRC = """
module app export abs
import complex
let abs(c: complex.T): Int =
  sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end
"""


def main() -> None:
    system = TycoonSystem()
    system.compile(COMPLEX_SRC)
    system.compile(APP_SRC)

    point = system.call("complex", "new", [3, 4]).value
    print(f"complex.new(3, 4) = {point}")

    slow = system.call("app", "abs", [point])
    print(f"abs(c) = {slow.value}   [{slow.instructions} instructions]")

    # let optimizedAbs = reflect.optimize(abs)
    result = reflect.optimize_result(system, "app", "abs")
    optimized_abs = result.closure

    print(
        f"\ncollected {result.entities} declarations across 2 modules "
        f"and the standard library"
    )
    print("--- optimizedAbs (TML) ---")
    print(pretty(result.term))

    fast = system.vm().call(optimized_abs, [point])
    print(
        f"\noptimizedAbs(c) = {fast.value}   [{fast.instructions} instructions, "
        f"was {slow.instructions}]"
    )
    assert fast.value == slow.value == 5

    # profile-guided optimization makes the result part of the persistent
    # system state (section 4.1): a variant in app's module record, carrying
    # the optimizer's derived attributes, which every later call links
    _, profile = profile_call(system, "app", "abs", [point])
    reflect.optimize_hot(system, profile, top=1, modules=["app"])
    attrs = system.load("app").functions["abs"].variant.attributes
    print(
        f"\npersisted derived attributes: cost {attrs['cost_before']} -> "
        f"{attrs['cost_after']} (savings {attrs['cost_before'] - attrs['cost_after']}), "
        f"code size {attrs['code_size']} instructions"
    )


if __name__ == "__main__":
    main()
