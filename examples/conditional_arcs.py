#!/usr/bin/env python
"""Conditional arcs: a DThread steers the graph by its return value.

``check`` returns ``"left"`` or ``"right"``, and the conditional arcs
keyed by the other road die.  Its four DThreads are squashed, then the
join that waits on all four (a squashed producer never completes), and
the join's arc into ``report`` dies with it; ``report`` still runs once
the chosen road's join has.  On a TSU that holds three instances at a
time most of the squashed threads sit in later DDM blocks and retire as
those load.  Every platform and TSU capacity runs exactly the chosen
road.
"""

from repro.core import ProgramBuilder
from repro.platforms import TFluxHard, TFluxSoft


def build(choice: str):
    b = ProgramBuilder(f"steer[{choice}]")
    b.env.set("ran", [])

    def runs(name):
        return lambda env, ctx: env.get("ran").append(name)

    check = b.thread("check", body=lambda env, _ctx: choice)
    report = b.thread("report", body=runs("report"))
    for road in ("left", "right"):
        work = b.thread(road, body=runs(road), contexts=4)
        join = b.thread(f"{road}_join", body=runs(f"{road}_join"))
        b.cond(check, work, road, mapping="all")
        b.depends(work, join, "all")
        b.depends(join, report)
    return b.build()


def main() -> None:
    for platform in (TFluxHard(), TFluxSoft()):
        for choice in ("left", "right"):
            for capacity in (None, 3):
                result = platform.execute(build(choice), nkernels=2, tsu_capacity=capacity)
                ran = result.env.get("ran")
                assert ran == [choice] * 4 + [f"{choice}_join", "report"], ran
                print(
                    f"{platform.name:9} check -> {choice:5} tsu_capacity={capacity}: "
                    f"ran {1 + len(ran)} of 12 DThread instances in {result.cycles:,} cycles"
                )


if __name__ == "__main__":
    main()
