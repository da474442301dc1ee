"""Tests for the decorator front-end."""

import numpy as np
import pytest

from repro.frontend import DDM
from repro.platforms import TFluxHard


def test_basic_decorator_program():
    ddm = DDM("basic")
    ddm.env.alloc("parts", 4)

    @ddm.thread(contexts=4)
    def work(env, i):
        env.array("parts")[i] = i + 1

    @ddm.thread(depends=[(work, "all")])
    def total(env, _):
        env.set("total", float(env.array("parts").sum()))

    env = ddm.build().run_sequential()
    assert env.get("total") == 10.0


def test_bare_dependence_defaults_to_same():
    ddm = DDM("pipe")
    ddm.env.alloc("a", 4)
    ddm.env.alloc("b", 4)

    @ddm.thread(contexts=4)
    def stage1(env, i):
        env.array("a")[i] = i

    @ddm.thread(contexts=4, depends=[stage1])
    def stage2(env, i):
        env.array("b")[i] = env.array("a")[i] * 2

    env = ddm.build().run_sequential()
    np.testing.assert_array_equal(env.array("b"), [0, 2, 4, 6])


def test_callable_mapping():
    ddm = DDM("tree")
    ddm.env.alloc("leaf", 4)
    ddm.env.alloc("pair", 2)

    @ddm.thread(contexts=4)
    def leaf(env, i):
        env.array("leaf")[i] = 1.0

    @ddm.thread(contexts=2, depends=[(leaf, lambda c: [c // 2])])
    def pair(env, i):
        env.array("pair")[i] = env.array("leaf")[2 * i] + env.array("leaf")[2 * i + 1]

    env = ddm.build().run_sequential()
    np.testing.assert_array_equal(env.array("pair"), [2.0, 2.0])


def test_unknown_producer_rejected():
    ddm = DDM("bad")

    def not_registered(env, _):
        pass

    with pytest.raises(ValueError, match="not a registered"):
        @ddm.thread(depends=[not_registered])
        def consumer(env, _):
            pass


def test_thread_after_build_rejected():
    ddm = DDM("late")

    @ddm.thread()
    def t(env, _):
        pass

    ddm.build()
    with pytest.raises(RuntimeError):
        @ddm.thread()
        def too_late(env, _):
            pass


def test_build_idempotent():
    ddm = DDM("idem")

    @ddm.thread()
    def t(env, _):
        env.set("x", 1)

    assert ddm.build() is ddm.build()


def test_template_attribute_exposed():
    ddm = DDM("attr")

    @ddm.thread(contexts=3)
    def t(env, _):
        pass

    assert t.template.ninstances == 3


def test_decorated_program_on_platform():
    ddm = DDM("plat")
    ddm.env.alloc("out", 8)

    @ddm.thread(contexts=8, cost=lambda e, c: 1000)
    def work(env, i):
        env.array("out")[i] = i * i

    res = TFluxHard().execute(ddm.build(), nkernels=4)
    np.testing.assert_array_equal(res.env.array("out"), [i * i for i in range(8)])


def test_cost_and_accesses_passed_through():
    from repro.sim.accesses import AccessSummary

    ddm = DDM("costed")
    arr = ddm.env.alloc("arr", 16)
    reg = ddm.env.region("arr")

    @ddm.thread(
        contexts=2,
        cost=lambda env, i: 12345,
        accesses=lambda env, i: AccessSummary().write(reg, offset=i * 64, count=8),
    )
    def work(env, i):
        env.array("arr")[i * 8:(i + 1) * 8] = i

    prog = ddm.build()
    tmpl = work.template
    assert tmpl.compute_cost(prog.env, 0) == 12345
    assert len(tmpl.access_summary(prog.env, 1)) == 1
