"""Evaluation-order scheduling of selected RTs.

Tree parsing fixes *which* RTs are executed but not their exact order.  On
inhomogeneous data paths a bad order clobbers special-purpose registers
(e.g. the accumulator) while they still hold live intermediate results and
forces spills.  Following the spirit of the Araujo/Malik scheduling used by
the paper, this pass performs a list scheduling over the data-dependence
graph of the selected RTs, preferring operations whose result register does
not currently hold a live value, from a ready list each retiring RT updates.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.codegen.selection import RTInstance


def _dependencies(instances: List[RTInstance]) -> List[Set[int]]:
    """Per index, the set of indices that must execute before it.

    Edges: true data dependences via value ids; original order for
    same-value-id writes (a compute followed by the store of the same
    value); and storage *anti-dependences* -- a write to a storage
    resource must stay after every earlier-in-program-order read from
    that resource.  Without the anti-dependence edges the scheduler could
    hoist a write over a read of the value currently held there (e.g. a
    register-resident input variable); on targets without spill memory
    (``spill_storage is None``) nothing downstream repairs that, so the
    read silently consumes the clobbering value."""
    producer_of: Dict[str, int] = {}
    readers_of_storage: Dict[str, List[int]] = {}
    depends: List[Set[int]] = [set() for _ in instances]
    for index, instance in enumerate(instances):
        predecessors = depends[index]
        for value_id, _storage in instance.operands:
            producer = producer_of.get(value_id)
            if producer is not None:
                predecessors.add(producer)
        # Anti dependence (WAR): this write must not overtake any earlier
        # read of the same storage resource.  (An instruction's own reads
        # happen before its write, so they are registered *after* the
        # write edges are computed.)
        for reader in readers_of_storage.get(instance.result_storage, ()):
            if reader != index:
                predecessors.add(reader)
        for _value_id, storage in instance.operands:
            readers_of_storage.setdefault(storage, []).append(index)
        # Preserve relative order of instructions producing the same value id
        # (e.g. a compute followed by the store of the same value).
        previous = producer_of.get(instance.result_id)
        if previous is not None:
            predecessors.add(previous)
        producer_of[instance.result_id] = index
    return depends


def schedule_instances(instances: List[RTInstance]) -> List[RTInstance]:
    """A data-dependence preserving order that reduces register clobbering.

    The scheduler repeatedly picks a ready RT; among ready RTs it prefers
    one whose result storage holds no live value, then falls back to the
    original program order (stable, deterministic).  An RT joins the ready
    list when its last predecessor retires.  Should none be ready (a cyclic
    graph), the choice is made among all unscheduled RTs.
    """
    count = len(instances)
    if count <= 1:
        return list(instances)
    depends = _dependencies(instances)
    successors: List[List[int]] = [[] for _ in range(count)]
    waiting = [len(predecessors) for predecessors in depends]
    for index, predecessors in enumerate(depends):
        for predecessor in predecessors:
            successors[predecessor].append(index)
    remaining_uses: Dict[str, int] = {}
    for instance in instances:
        for value_id, _storage in instance.operands:
            remaining_uses[value_id] = remaining_uses.get(value_id, 0) + 1

    scheduled: List[RTInstance] = []
    done = [False] * count
    ready = [index for index in range(count) if not waiting[index]]
    # storage -> value id currently live in it
    live_in_storage: Dict[str, str] = {}

    def choice_key(index: int) -> tuple:
        instance = instances[index]
        live = live_in_storage.get(instance.result_storage)
        clobbers_live = (
            live is not None
            and live != instance.result_id
            and remaining_uses.get(live, 0) > 0
        )
        return (clobbers_live, index)

    while len(scheduled) < count:
        if len(ready) == 1:
            choice = ready.pop()
        elif ready:
            choice = min(ready, key=choice_key)
            ready.remove(choice)
        else:
            choice = min((i for i in range(count) if not done[i]), key=choice_key)
        instance = instances[choice]
        done[choice] = True
        scheduled.append(instance)
        for value_id, _storage in instance.operands:
            remaining_uses[value_id] -= 1  # counted above, once per read
        live_in_storage[instance.result_storage] = instance.result_id
        for successor in successors[choice]:
            waiting[successor] -= 1
            if not waiting[successor] and not done[successor]:
                ready.append(successor)
    return scheduled
