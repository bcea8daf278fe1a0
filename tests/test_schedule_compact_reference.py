"""Reference oracles for the list scheduler and the compactor.

``reference_schedule`` and ``reference_compact`` are the straightforward
formulations the production passes replaced: the scheduler rescans every
instance for readiness at each step, and the compactor checks a
candidate against every member of the open word through
``_data_conflict``.  The production code must choose the same order and
build the same words (the instances of each word and its condition) on

* every statement's instance stream of the 16 DSPStone kernels on demo,
  ref and tms320c25 under all seven pipeline presets, and
* random RT streams: random value ids and storages, control transfers,
  repeated result ids, conditions that may clash, and dependence graphs
  with extra edges that can form cycles (the scheduler's fallback).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.codegen.schedule as schedule_module
from repro.bdd.manager import BDDManager
from repro.codegen.compaction import (
    InstructionWord,
    _combine_conditions,
    _condition_of,
    compact,
)
from repro.codegen.schedule import schedule_instances
from repro.codegen.selection import RTInstance
from repro.dspstone.kernels import all_kernel_names, kernel_program, loop_kernel_names
from repro.toolchain import Session
from repro.toolchain.passes import PRESETS, Pass

KERNELS = all_kernel_names() + loop_kernel_names()
TARGETS = ("demo", "ref", "tms320c25")


# -- the references ------------------------------------------------------------


def reference_schedule(instances: List[RTInstance]) -> List[RTInstance]:
    if len(instances) <= 1:
        return list(instances)
    depends = schedule_module._dependencies(instances)
    remaining_uses: Dict[str, int] = {}
    for instance in instances:
        for value_id, _storage in instance.operands:
            remaining_uses[value_id] = remaining_uses.get(value_id, 0) + 1

    scheduled: List[RTInstance] = []
    done: Set[int] = set()
    live_in_storage: Dict[str, str] = {}

    def is_ready(index: int) -> bool:
        return index not in done and depends[index] <= done

    while len(done) < len(instances):
        ready = [i for i in range(len(instances)) if is_ready(i)]
        if not ready:
            ready = [i for i in range(len(instances)) if i not in done]

        def clobbers_live(index: int) -> bool:
            instance = instances[index]
            live = live_in_storage.get(instance.result_storage)
            if live is None or live == instance.result_id:
                return False
            return remaining_uses.get(live, 0) > 0

        ready.sort(key=lambda i: (clobbers_live(i), i))
        choice = ready[0]
        instance = instances[choice]
        done.add(choice)
        scheduled.append(instance)
        for value_id, _storage in instance.operands:
            remaining_uses[value_id] = max(0, remaining_uses.get(value_id, 0) - 1)
        live_in_storage[instance.result_storage] = instance.result_id
    return scheduled


def _data_conflict(word: InstructionWord, candidate: RTInstance) -> bool:
    candidate_reads = set(candidate.reads())
    candidate_writes = {candidate.result_id}
    for instance in word.instances:
        writes = {instance.result_id}
        reads = set(instance.reads())
        if candidate_reads & writes:
            return True
        if candidate_writes & reads:
            return True
        if candidate.result_storage == instance.result_storage:
            return True
    return False


def reference_compact(instances: List[RTInstance], enabled: bool = True) -> List[InstructionWord]:
    words: List[InstructionWord] = []
    if not enabled:
        for instance in instances:
            words.append(
                InstructionWord(instances=[instance], condition=_condition_of(instance))
            )
        return words
    for instance in instances:
        condition = _condition_of(instance)
        placed = False
        if words and not instance.is_control():
            word = words[-1]
            word_is_control = any(member.is_control() for member in word.instances)
            if not word_is_control and not _data_conflict(word, instance):
                combined = _combine_conditions(word.condition, condition)
                if combined is None or combined.satisfiable():
                    word.instances.append(instance)
                    word.condition = combined
                    placed = True
        if not placed:
            words.append(InstructionWord(instances=[instance], condition=condition))
    return words


# -- comparison ----------------------------------------------------------------


def _words(words: List[InstructionWord]) -> list:
    return [
        ([id(instance) for instance in word.instances], word.condition)
        for word in words
    ]


def assert_same_schedule(instances: List[RTInstance]) -> None:
    expected = reference_schedule(instances)
    got = schedule_instances(list(instances))
    assert [id(instance) for instance in got] == [id(instance) for instance in expected]


def assert_same_words(instances: List[RTInstance]) -> None:
    for enabled in (True, False):
        expected = reference_compact(list(instances), enabled=enabled)
        got = compact(list(instances), enabled=enabled)
        assert _words(got) == _words(expected)


class _CheckStreams(Pass):
    """Compares both references on every statement stream it sees, and
    compaction on every block's stream as the compactor receives it."""

    def __init__(self, name: str, counts: Dict[str, int]):
        self.name = name
        self.counts = counts

    def run(self, state, context) -> None:
        for code in state.statement_codes:
            assert_same_schedule(code.instances)
            assert_same_words(code.instances)
            self.counts["statements"] += 1
        for block_code in state.block_codes:
            stream = [i for code in block_code.all_codes() for i in code.instances]
            assert_same_words(stream)
            self.counts["blocks"] += 1


@pytest.mark.parametrize("target", TARGETS)
def test_kernel_streams_match_the_references(target, retarget_results):
    """Every statement stream after selection (what the scheduler sees)
    and after spilling (what the compactor sees), on 16 kernels x 7
    presets."""
    counts = {"statements": 0, "blocks": 0}
    for preset in sorted(PRESETS):
        session = Session(retarget_results[target], config=PRESETS[preset])
        session.pass_manager.insert_after("select", _CheckStreams("check-selected", counts))
        session.pass_manager.insert_before("compact", _CheckStreams("check-spilled", counts))
        for kernel in KERNELS:
            session.compile_program(kernel_program(kernel))
    assert counts["statements"] > 300
    assert counts["blocks"] > 100


# -- random RT streams -----------------------------------------------------------

_MANAGER = BDDManager()
_BITS = [_MANAGER.variable("b%d" % index) for index in range(3)]
#: Conditions over three instruction bits: always, one literal, or a pair;
#: opposite literals make some candidate pairs unsatisfiable together.
_CONDITIONS = [None] + _BITS + [~bit for bit in _BITS] + [_BITS[0] & ~_BITS[1]]
_VALUES = ["tmp:%d" % index for index in range(5)] + ["var:a", "var:b", "const:1"]
_STORAGES = ["ACC", "T", "P", "DMEM", "R0"]


@st.composite
def _instances(draw):
    if draw(st.integers(0, 9)) == 0:
        return RTInstance(
            kind=draw(st.sampled_from(("jump", "cbranch", "repeat"))),
            result_id="br:%d" % draw(st.integers(0, 2)),
            result_storage="@pc",
            targets=("L1", "L2"),
        )
    operands = draw(
        st.lists(
            st.tuples(st.sampled_from(_VALUES), st.sampled_from(_STORAGES)),
            max_size=3,
        )
    )
    condition = draw(st.sampled_from(_CONDITIONS))
    return RTInstance(
        kind="rt",
        result_id=draw(st.sampled_from(_VALUES)),
        result_storage=draw(st.sampled_from(_STORAGES)),
        operands=operands,
        template=None if condition is None else SimpleNamespace(condition=condition),
    )


_streams = st.lists(_instances(), max_size=14)


@settings(max_examples=300, deadline=None)
@given(stream=_streams)
def test_random_streams_match_the_references(stream):
    assert_same_schedule(stream)
    assert_same_words(stream)


def _with_extra_edges(extra):
    """``_dependencies`` plus, for each ``(source, target)`` of ``extra``,
    ``source`` waiting on ``target``: edges that may point forward, which
    no instance stream produces, so they can close cycles."""
    original = schedule_module._dependencies

    def dependencies(instances):
        depends = original(instances)
        for source, target in extra:
            if source < len(instances) and target < len(instances) and source != target:
                depends[source].add(target)
        return depends

    return dependencies


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(_instances(), min_size=2, max_size=10),
    extra=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
)
def test_graphs_with_cycles_match_the_reference(stream, extra):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule_module, "_dependencies", _with_extra_edges(extra))
        got = schedule_instances(stream)
        assert_same_schedule(stream)
    assert sorted(map(id, got)) == sorted(map(id, stream))


def test_cyclic_graph_schedules_every_instance():
    """A chain whose first RT also waits on its last: no RT is ever ready
    at the start, so the fallback picks among all unscheduled RTs."""
    stream = [
        RTInstance(kind="rt", result_id="tmp:0", result_storage="ACC"),
        RTInstance(kind="rt", result_id="tmp:1", result_storage="T", operands=[("tmp:0", "ACC")]),
        RTInstance(kind="rt", result_id="tmp:2", result_storage="ACC", operands=[("tmp:1", "T")]),
        RTInstance(kind="rt", result_id="tmp:3", result_storage="P"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule_module, "_dependencies", _with_extra_edges([(0, 2), (3, 1)]))
        got = schedule_instances(stream)
        assert [id(i) for i in got] == [id(i) for i in reference_schedule(stream)]
    assert [i.result_id for i in got] == ["tmp:0", "tmp:1", "tmp:2", "tmp:3"]
