"""Self-test of the span tracer on a synthetic package and a manual clock.

Checks, with exact arithmetic:
- self time equals duration minus the durations of direct child spans;
- a function imported by name into another module is traced there too,
  and uninstalling restores every original binding;
- a method on a class is traced;
- an exception is recorded on its span and re-raised, and counts are
  taken only from calls that returned.

Run standalone with ``python3 perfbench/selftest.py``; the traced pass of
``run.py`` runs it before it traces anything.
"""

from __future__ import annotations

import sys
import types

from tracer import Target, Tracer, child_totals, summarize

_PACKAGE = "_tracer_selftest_pkg"


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Refused(Exception):
    pass


def _build_package(clock: ManualClock) -> tuple[types.ModuleType, types.ModuleType]:
    lib = types.ModuleType(f"{_PACKAGE}.lib")
    user = types.ModuleType(f"{_PACKAGE}.user")

    def leaf(n):
        clock.advance(2.0)
        if n < 0:
            raise Refused("negative")
        return n

    def outer():
        clock.advance(1.0)
        lib.leaf(1)  # call through the defining module
        clock.advance(4.0)
        user.leaf(2)  # call through the by-name import
        return "done"

    class Box:
        def fill(self):
            clock.advance(0.5)
            return user.leaf(3)

    lib.leaf, lib.Box = leaf, Box
    user.leaf, user.outer = leaf, outer  # ``from .lib import leaf``
    return lib, user


def run() -> None:
    clock = ManualClock()
    lib, user = _build_package(clock)
    original_leaf, original_fill = lib.leaf, lib.Box.fill
    sys.modules[lib.__name__], sys.modules[user.__name__] = lib, user
    tracer = Tracer(clock=clock)
    try:
        tracer.install(
            [
                Target(lib.__name__, "leaf", "lib.leaf", lambda a, k, r: {"items": r}),
                Target(user.__name__, "outer", "user.outer"),
                Target(lib.__name__, "Box.fill", "lib.Box.fill"),
            ]
        )
        _require(user.leaf is lib.leaf is not original_leaf, "by-name import site not rebound")
        user.outer()
        lib.Box().fill()
        try:
            user.leaf(-1)
        except Refused:
            pass
        else:
            raise AssertionError("tracer swallowed an exception")
    finally:
        tracer.uninstall()
        del sys.modules[lib.__name__], sys.modules[user.__name__]
    _require(lib.leaf is original_leaf and user.leaf is original_leaf, "uninstall left a wrapper")
    _require(lib.Box.fill is original_fill, "uninstall left a method wrapper")

    spans = tracer.take()
    stats = summarize(spans)
    outer, leaf, fill = stats["user.outer"], stats["lib.leaf"], stats["lib.Box.fill"]
    # outer: 1 + leaf 2 + 4 + leaf 2 = 9 s, of which 4 s in children.
    _require(outer.calls == 1 and outer.total_s == 9.0, f"outer duration {outer.total_s}")
    _require(outer.self_s == 9.0 - 4.0, f"outer self time {outer.self_s}")
    # fill: 0.5 + leaf 2 = 2.5 s, of which 2 s in its child.
    _require(fill.total_s == 2.5 and fill.self_s == 0.5, f"fill self time {fill.self_s}")
    _require(leaf.calls == 4 and leaf.total_s == 8.0 == leaf.self_s, "leaf totals")
    _require(leaf.errors == {"Refused": 1}, f"leaf errors {leaf.errors}")
    _require(leaf.counts == {"items": 1 + 2 + 3}, f"leaf counts {leaf.counts}")
    _require(child_totals(spans, "user.outer") == {"lib.leaf": 4.0}, "child totals")
    _require(tracer.spans == [], "take() did not reset the span list")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(f"tracer self-test: {message}")


if __name__ == "__main__":
    run()
    print("tracer self-test passed")
