"""Regression tests for the spill-reload clobber bug and the scheduler's
missing storage anti-dependence edges.

Both tests are built so they *fail on the pre-fix code*:

* the spill test replays the historical sequence in which a
  ``spill_reload`` overwrote a register still holding a live, never
  spilled temporary -- the storage-faithful RT simulator then computes a
  wrong (stale) result;
* the scheduler test replays a ready-list state in which the
  clobber-avoidance preference hoisted a register write over an earlier
  read of the same register (a register-resident input variable) -- on a
  target without spill memory nothing downstream repairs that.
"""

from repro.codegen.schedule import schedule_instances
from repro.codegen.selection import RTInstance, StatementCode
from repro.codegen.spill import count_spills, insert_spills
from repro.selector.subject import SubjectNode
from repro.sim.rtsim import RTSimulator


def _leaf(storage, payload):
    return SubjectNode(storage, payload=payload)


def _compute(op, result_id, result_storage, operand_specs):
    """An RT instance computing ``op`` over operand (id, storage, payload)
    triples; payloads make the instance simulatable."""
    operand_nodes = [
        _leaf(storage, payload) for _id, storage, payload in operand_specs
    ]
    node = SubjectNode(op, list(operand_nodes))
    return RTInstance(
        kind="rt",
        result_id=result_id,
        result_storage=result_storage,
        operands=[(vid, storage) for vid, storage, _p in operand_specs],
        node=node,
        operand_nodes=operand_nodes,
    )


class TestSpillReloadClobber:
    """A spill_reload must not silently overwrite a different live,
    never-spilled temporary (it must spill-store it first)."""

    def _sequence(self):
        # R is the single register; DMEM is the spill/variable memory.
        # t0 = a + 0        (into R)
        # t1 = b + 0        (into R -> spill pass stores t0 first)
        # t2 = t0 + c      (reload t0 into R -> clobbers live t1!)
        # out = t1 + t2     (t1 must still be 'b', not stale garbage)
        def var(name):
            return ("var", name)
        i0 = _compute("add", "tmp:0", "R", [("var:a", "DMEM", var("a")),
                                            ("const:0", "CONST", ("const", 0))])
        i1 = _compute("add", "tmp:1", "R", [("var:b", "DMEM", var("b")),
                                            ("const:0", "CONST", ("const", 0))])
        i2 = _compute("add", "tmp:2", "ACC", [("tmp:0", "R", None),
                                              ("var:c", "DMEM", var("c"))])
        i3 = _compute("add", "tmp:3", "ACC", [("tmp:1", "R", None),
                                              ("tmp:2", "ACC", None)])
        i3.defines_variable = "out"
        return [i0, i1, i2, i3]

    def test_reload_spills_live_occupant_first(self):
        spilled = insert_spills(self._sequence(), spill_storage="DMEM")
        kinds = [inst.kind for inst in spilled]
        # t0 spilled before t1 overwrites R, reloaded before its use --
        # and t1 spilled before that reload overwrites R again, then
        # reloaded before the final use.
        assert kinds.count("spill_store") == 2, kinds
        assert kinds.count("spill_reload") == 2, kinds
        reload_positions = [
            index for index, inst in enumerate(spilled)
            if inst.kind == "spill_reload"
        ]
        store_positions = [
            index for index, inst in enumerate(spilled)
            if inst.kind == "spill_store"
        ]
        # The occupant-preserving store of t1 precedes the reload of t0.
        assert store_positions[1] < reload_positions[0] or (
            spilled[store_positions[1]].result_id == "tmp:1"
        )

    def test_storage_faithful_simulation_is_correct(self):
        """The RTSimulator regression: a register holds one value, and
        the pre-fix sequence computes a stale value for ``out``."""
        env = {"a": 11, "b": 23, "c": 40}
        spilled = insert_spills(self._sequence(), spill_storage="DMEM")
        code = StatementCode(statement=None, cost=0, instances=spilled)
        simulator = RTSimulator(dict(env), memory_storages={"DMEM", "CONST"})
        simulator.run_statement(code)
        # out = t1 + t2 = b + (a + c) = 23 + 51
        assert simulator.environment["out"] == 74

    def test_pre_fix_behavior_detected_by_faithful_simulator(self):
        """Replay the *pre-fix* output shape (reload without the occupant
        spill) and show the faithful simulator computes the stale result
        -- demonstrating the regression this PR fixes."""
        i0, i1, i2, i3 = self._sequence()
        store_t0 = RTInstance(
            kind="spill_store", result_id="tmp:0", result_storage="DMEM",
            operands=[("tmp:0", "R")],
        )
        reload_t0 = RTInstance(
            kind="spill_reload", result_id="tmp:0", result_storage="R",
            operands=[("tmp:0", "DMEM")],
        )
        # Pre-fix sequence: no spill of live t1 before the reload of t0.
        pre_fix = [i0, store_t0, i1, reload_t0, i2, i3]
        env = {"a": 11, "b": 23, "c": 40}
        simulator = RTSimulator(dict(env), memory_storages={"DMEM", "CONST"})
        simulator.run_statement(StatementCode(statement=None, cost=0, instances=pre_fix))
        # t1's read from R sees the reloaded t0 (11), not b (23):
        # out = 11 + 51 = 62 -- the observable wrong answer.
        assert simulator.environment["out"] == 62


class TestCountSpills:
    def test_counts_only_spill_kinds(self):
        instances = [
            RTInstance(kind="rt", result_id="tmp:0", result_storage="R"),
            RTInstance(kind="spill_store", result_id="tmp:0", result_storage="M"),
            RTInstance(kind="spill_reload", result_id="tmp:0", result_storage="R"),
            RTInstance(kind="jump", result_id="br:a", result_storage="@pc",
                       targets=("L1",)),
            RTInstance(kind="cbranch", result_id="br:b", result_storage="@pc",
                       targets=("L1", "L2")),
        ]
        assert count_spills(instances) == 2


class TestSchedulerAntiDependence:
    """A write to a storage resource must never be scheduled ahead of an
    earlier-in-program-order read of that resource (WAR)."""

    def _sequence(self):
        # Original order (valid):
        #   i0: t0 := x_acc_op ...   (writes ACC)
        #   i1: t1 := x + t0         (reads var x from R, reads ACC)
        #   i2: t2 := ...            (writes R -- after i1's read of R!)
        #   i3: out := t1 + t2
        def var(name):
            return ("var", name)
        i0 = _compute("add", "tmp:0", "ACC", [("var:a", "DMEM", var("a")),
                                              ("const:0", "CONST", ("const", 0))])
        i1 = _compute("add", "tmp:1", "ACC", [("var:x", "R", var("x")),
                                              ("tmp:0", "ACC", None)])
        i2 = _compute("add", "tmp:2", "R", [("var:b", "DMEM", var("b")),
                                            ("const:0", "CONST", ("const", 0))])
        i3 = _compute("add", "tmp:3", "ACC", [("tmp:1", "ACC", None),
                                              ("tmp:2", "R", None)])
        i3.defines_variable = "out"
        return [i0, i1, i2, i3]

    def test_write_not_hoisted_over_read(self):
        scheduled = schedule_instances(self._sequence())
        position = {inst.result_id: index for index, inst in enumerate(scheduled)}
        # Pre-fix, the clobber-avoidance preference picks the R-write
        # (tmp:2) before the R-read (tmp:1); the WAR edge forbids it.
        assert position["tmp:1"] < position["tmp:2"], [
            inst.result_id for inst in scheduled
        ]

    def test_memoryless_target_simulates_correctly(self):
        """End-to-end on a target without spill memory: schedule, then
        spill with ``spill_storage=None`` (a no-op), then simulate
        storage-faithfully."""
        env = {"a": 7, "x": 100, "b": 3}
        scheduled = schedule_instances(self._sequence())
        final = insert_spills(scheduled, spill_storage=None)
        simulator = RTSimulator(dict(env), memory_storages={"DMEM", "CONST"})
        simulator.run_statement(StatementCode(statement=None, cost=0, instances=final))
        # out = (x + a) + b = 107 + 3
        assert simulator.environment["out"] == 110

    def test_pre_fix_order_is_wrong_under_faithful_simulation(self):
        """The pre-fix schedule (R written before the read of x) makes
        the faithful simulator consume the clobbering value."""
        i0, i1, i2, i3 = self._sequence()
        pre_fix_order = [i0, i2, i1, i3]  # what the old scheduler chose
        env = {"a": 7, "x": 100, "b": 3}
        simulator = RTSimulator(dict(env), memory_storages={"DMEM", "CONST"})
        simulator.run_statement(
            StatementCode(statement=None, cost=0, instances=pre_fix_order)
        )
        # x's read from R sees tmp:2 (= b = 3): out = (3 + 7) + 3 = 13.
        assert simulator.environment["out"] == 13
