"""QUAD — adaptive quadrature over dynamic subflows and conditional arcs.

Adaptive Simpson integration of a sharply peaked integrand,
``f(x) = 1 / (x^2 + a^2)`` on [0, 1] (analytic value ``atan(1/a)/a``):
each ``quad`` DThread compares the Simpson estimate of its interval with
the two-half refinement and either

* **accepts** — appends its contribution to the shared list and returns
  ``None`` (a leaf), or
* **refines** — spawns a :class:`~repro.core.dynamic.Subflow` with two
  child intervals.

The refinement pattern is purely data-driven: the peak near 0 subdivides
many levels deeper than the flat tail, a graph no static unrolling can
anticipate.  A final ``check`` DThread demonstrates *conditional arcs*:
it inspects the accumulated error estimate and steers, by its return
value, either the ``accept`` or the ``flag`` successor — the unchosen
branch is squashed.

Contributions are summed **sorted by interval start** in the epilogue,
so the floating-point total is independent of the schedule that produced
it (the functional/timing invariant extends to dynamic graphs).
"""

from __future__ import annotations

import math

from repro.apps import common
from repro.apps.common import ProblemSize
from repro.core.builder import ProgramBuilder
from repro.core.dynamic import Subflow
from repro.core.program import DDMProgram

__all__ = ["Quad"]

#: Peak sharpness of the integrand (smaller = deeper adaptive tree).
PEAK_A = 0.05
#: Cycles per integrand evaluation (Simpson needs ~6 per decision).
EVAL_CYCLES = 40
#: Refinement depth cap — termination guard, never reached at the
#: Table-style tolerances.
MAX_DEPTH = 30


def _f(x: float) -> float:
    return 1.0 / (x * x + PEAK_A * PEAK_A)


def _simpson(a: float, b: float) -> float:
    return (b - a) / 6.0 * (_f(a) + 4.0 * _f(0.5 * (a + b)) + _f(b))


def _interval_cost(env, _c) -> int:
    return 6 * EVAL_CYCLES


def _quad(a: float, fb: float, depth: int, eps: float):
    """Body of the quad DThread for [a, fb]: accept or refine.

    Module-level, not nested in ``build``: a nested maker that names
    itself is a closure cycle, which keeps every run's graph alive until
    the cycle collector runs.
    """

    def body(env, ctx):
        whole = _simpson(a, fb)
        m = 0.5 * (a + fb)
        halves = _simpson(a, m) + _simpson(m, fb)
        err = abs(halves - whole) / 15.0
        if err <= eps * (fb - a) or depth >= MAX_DEPTH:
            env.get("contribs").append((a, halves))
            if depth == 0:
                env.set("root_mode", "direct")
            return None
        if depth == 0:
            env.set("root_mode", "refined")
        sf = Subflow(f"refine[{a:.6g}:{fb:.6g}]")
        sf.thread(
            f"quad[{a:.6g}:{m:.6g}]",
            body=_quad(a, m, depth + 1, eps),
            cost=_interval_cost,
        )
        sf.thread(
            f"quad[{m:.6g}:{fb:.6g}]",
            body=_quad(m, fb, depth + 1, eps),
            cost=_interval_cost,
        )
        return sf

    return body


class Quad:
    name = "quad"

    def decomposition(self, size: ProblemSize, unroll: int, max_threads: int) -> float:
        """The refinement tolerance.  The unroll factor keeps its
        coarsening meaning: it relaxes the tolerance, producing fewer,
        coarser leaf intervals; the tree grows at run time, so
        *max_threads* bounds nothing."""
        return size.params["eps"] * unroll

    def build(
        self,
        size: ProblemSize,
        unroll: int = 1,
        max_threads: int = 4096,
        deps: str = "declared",
    ) -> DDMProgram:
        eps = self.decomposition(size, unroll, max_threads)

        b = ProgramBuilder(f"quad[{size.label}]")
        b.env.set("contribs", [])
        b.env.set("eps", eps)

        t_root = b.thread(
            "quad[0:1]", body=_quad(0.0, 1.0, 0, eps), cost=_interval_cost
        )

        # Conditional tail: check steers exactly one of its successors by
        # its return value — the road the root did NOT take is squashed.
        # (check runs in the root's block, before the spawned refinement
        # drains, so it may only branch on data the root already wrote.)
        def check_body(env, _c):
            return env.get("root_mode")

        t_check = b.thread("check", body=check_body, cost=lambda env, _c: 20)
        t_direct = b.thread(
            "direct", body=lambda env, _c: env.set("verdict", "direct")
        )
        t_refined = b.thread(
            "refined", body=lambda env, _c: env.set("verdict", "refined")
        )
        # Control/conditional arcs: every thread here is opaque (no access
        # summaries), so these stay declared in both deps modes and the
        # deriver has nothing to add.
        b.depends(t_root, t_check)
        b.cond(t_check, t_direct, "direct")
        b.cond(t_check, t_refined, "refined")
        common.finish_graph(b, deps, lambda: None)

        def total_body(env):
            env.set("total", sum(v for _a, v in sorted(env.get("contribs"))))

        b.epilogue("sum", body=total_body, cost=lambda env: len(env.get("contribs")))
        return b.build()

    def verify(self, env, size: ProblemSize) -> None:
        analytic = math.atan(1.0 / PEAK_A) / PEAK_A
        total = env.get("total")
        eps = env.get("eps")
        assert abs(total - analytic) <= max(100 * eps, 1e-6 * analytic), (
            f"integral {total} vs analytic {analytic} (eps={eps})"
        )
        assert env.get("verdict") == env.get("root_mode")


common.register(Quad())
