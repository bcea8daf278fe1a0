"""Hash-consed pattern nodes (``repro.hashcons``) and the two pieces of
shared state that came with them: the interner's weak node table and the
retarget cache's collector pause.  The concurrency tests run more threads
than a CI runner has cores, with a tiny switch interval, so that a
missing lock shows up as a wrong node or a disabled collector."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError

import pytest

from repro.expansion.rewrite import Slot
from repro.grammar.grammar import PatNonterm, PatTerm
from repro.ise.templates import ConstLeaf, ImmLeaf, OpNode, PortLeaf, RegLeaf
from repro.record.retarget import RetargetResult
from repro.toolchain import cache as cache_module, default_registry
from repro.toolchain.cache import RetargetCache, retarget_fingerprint

THREADS = 8


def _samples():
    mac = OpNode("add", (RegLeaf("ACC"), OpNode("mul", (RegLeaf("T"), PortLeaf("P")))))
    return [
        RegLeaf("ACC"),
        PortLeaf("P"),
        ConstLeaf(2),
        ImmLeaf("IM.word[7:0]", 8),
        Slot(0),
        mac,
        OpNode("sub", (ConstLeaf(0), Slot(1))),
        PatNonterm("nt_ACC"),
        PatTerm("Const", value=2),
        PatTerm("ASSIGN", (PatTerm("ACC"), PatNonterm("nt_ACC"))),
    ]


class TestInterning:
    def test_equal_structure_is_one_object(self):
        for first, second in zip(_samples(), _samples()):
            assert first is second
            assert first == second and hash(first) == hash(second)

    def test_keyword_and_default_arguments_give_the_same_node(self):
        assert PatTerm("Const", value=3) is PatTerm("Const", (), 3)
        assert PatTerm("R") is PatTerm("R", operands=(), value=None)
        assert ImmLeaf(field_name="f", width=4) is ImmLeaf("f", 4)

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            OpNode("add")
        with pytest.raises(TypeError):
            RegLeaf("A", "B")
        with pytest.raises(TypeError):
            RegLeaf(storage="A", width=3)

    def test_classes_with_equal_text_stay_apart(self):
        assert str(RegLeaf("x")) == str(PortLeaf("x"))
        assert RegLeaf("x") is not PortLeaf("x")
        assert PatTerm("x") is not PatNonterm("x")

    def test_text_is_rendered_once(self):
        mac = _samples()[5]
        assert str(mac) == "add(ACC, mul(T, P))"
        assert str(mac) is str(mac)
        assert [str(node) for node in _samples()[:5]] == [
            "ACC", "P", "#2", "imm<IM.word[7:0]:8>", "$0"
        ]
        assert str(_samples()[-1]) == "ASSIGN(ACC, nt_ACC)"
        assert str(PatTerm("Const", value=2)) == "Const#2"

    def test_repr_shows_every_field_and_no_ids(self):
        assert repr(OpNode("neg", (ConstLeaf(1),))) == (
            "OpNode(op='neg', operands=(ConstLeaf(value=1),))"
        )
        assert repr(PatTerm("Const", value=2)) == (
            "PatTerm(name='Const', operands=(), value=2)"
        )

    def test_nodes_are_immutable(self):
        node = _samples()[5]
        with pytest.raises(FrozenInstanceError):
            node.op = "sub"
        with pytest.raises(AttributeError):
            del node.op
        assert node.op == "add"

    def test_pickle_and_copies_return_the_interned_node(self):
        for node in _samples():
            assert pickle.loads(pickle.dumps(node)) is node
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node

    def test_pickled_shared_subtrees_are_stored_once(self):
        shared = OpNode("mul", (RegLeaf("T"), PortLeaf("P")))
        once = pickle.dumps(OpNode("add", (shared, RegLeaf("ACC"))))
        twice = pickle.dumps(OpNode("add", (shared, shared)))
        assert len(twice) < len(once)

    def test_unreferenced_nodes_leave_the_table(self):
        node = OpNode("xor", (RegLeaf("only-here"), ConstLeaf(12345)))
        ref = weakref.ref(node)
        del node
        assert ref() is None
        rebuilt = OpNode("xor", (RegLeaf("only-here"), ConstLeaf(12345)))
        assert str(rebuilt) == "xor(only-here, #12345)"


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _build_patterns():
    """About 300 pattern nodes over every leaf kind, with commutative and
    non-commutative operators, children before parents."""
    leaves = []
    for i in range(10):
        leaves += [
            RegLeaf("R%d" % i),
            PortLeaf("P%d" % i),
            ConstLeaf(1000 + i),
            ImmLeaf("IM.word[%d:0]" % i, i + 1),
            Slot(100 + i),
        ]
    nodes = list(leaves)
    level = leaves
    for operators in (("add", "sub"), ("mul", "shl"), ("xor", "shr")):
        level = [
            OpNode(operators[i % 2], (level[i], level[-1 - i])) for i in range(len(level))
        ]
        nodes += level
    terms = [PatNonterm("nt_R%d" % i) for i in range(10)]
    terms += [PatTerm("Const", value=1000 + i) for i in range(10)]
    nodes += terms
    level = terms
    for name in ("add", "sub", "ASSIGN"):
        level = [PatTerm(name, (level[i], level[-1 - i])) for i in range(len(level))]
        nodes += level
    return nodes


class _SlowGC:
    """The ``gc`` module as the retarget cache sees it, with a thread
    switch between reading the collector's state and changing it: the
    widest window for two loads to interleave."""

    def __init__(self):
        self.reads = 0
        self.disable = gc.disable
        self.enable = gc.enable

    def isenabled(self):
        self.reads += 1
        enabled = gc.isenabled()
        time.sleep(1e-4)
        return enabled


def _run_threads(work, timeout=60):
    threads = [threading.Thread(target=work, args=(index,)) for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrency:
    def test_threads_building_the_same_patterns_get_the_same_nodes(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(30):
                barrier = threading.Barrier(THREADS, timeout=60)
                built = [None] * THREADS

                def work(index):
                    barrier.wait()
                    built[index] = _build_patterns()

                _run_threads(work)
                first = built[0]
                assert len(first) > 250
                for nodes in built[1:]:
                    assert len(nodes) == len(first)
                    stray = sum(mine is not canonical for mine, canonical in zip(nodes, first))
                    assert stray == 0
                # Drop every reference, so the next round builds afresh.
                root = weakref.ref(first[-1])
                del built, first, nodes
                assert root() is None
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_disk_loads_restore_the_collector(self, tmp_path, monkeypatch):
        hdl = default_registry().hdl_source("bass_boost")
        RetargetCache(directory=tmp_path).get_or_retarget(hdl, generate_matcher=False)
        key = retarget_fingerprint(hdl)
        slow_gc = _SlowGC()
        monkeypatch.setattr(cache_module, "gc", slow_gc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(40):
                barrier = threading.Barrier(THREADS, timeout=60)
                loaded = []

                def work(index):
                    barrier.wait()
                    for _ in range(5):
                        loaded.append(RetargetCache(directory=tmp_path).get(key))

                _run_threads(work)
                assert gc.isenabled()
                assert len(loaded) == THREADS * 5
                assert all(isinstance(result, RetargetResult) for result in loaded)
        finally:
            sys.setswitchinterval(interval)
            gc.enable()
        assert slow_gc.reads > 0

    def test_a_load_keeps_a_disabled_collector_disabled(self, tmp_path):
        hdl = default_registry().hdl_source("bass_boost")
        RetargetCache(directory=tmp_path).get_or_retarget(hdl, generate_matcher=False)
        gc.disable()
        try:
            result = RetargetCache(directory=tmp_path).get(retarget_fingerprint(hdl))
            assert isinstance(result, RetargetResult)
            assert not gc.isenabled()
        finally:
            gc.enable()
