"""Records serialize from their own dataclass fields.

Each record below is a :class:`repro.records.Record`: its dict form is
its fields in declaration order, and ``from_dict`` rebuilds it with the
dataclass's own required/optional split.  A field added to any of them
is serialized and checked here with no second edit.
"""

import json
from dataclasses import MISSING, fields

import pytest

from repro.diagnostics import Diagnostic
from repro.ir.program import HardwareLoop
from repro.opt.pipeline import OptStats
from repro.record.retarget import PhaseTimings
from repro.service.api import CompileRequest, ErrorInfo
from repro.sim.rtsim import TraceStep
from repro.toolchain.passes import PipelineConfig
from repro.toolchain.results import CompileMetrics, StatementArtifact

RECORDS = [
    CompileMetrics(
        code_size=4,
        operation_count=5,
        spill_count=1,
        selection_cost=6,
        statement_count=2,
        compile_time_s=0.5,
        nodes_labelled=7,
        label_memo_hit_rate=0.25,
        opt_gvn_hits=1,
        verify_checks=6,
    ),
    OptStats(nodes_before=9, nodes_after=8, folds=1, rewrites={"const-fold": 1}),
    StatementArtifact(statement="y = add(a, b)", cost=2, operations=("ACC := DMEM",)),
    Diagnostic(severity="warning", message="no cover", phase="select"),
    ErrorInfo(type="TargetError", message="unknown target", phase="toolchain"),
    HardwareLoop(latch="L1_while", trip_count=8, kind="rpt"),
    PhaseTimings(hdl_frontend=0.5, netlist=0.25, tables=0.125),
    TraceStep(
        statement="y = a", operations=["ACC := DMEM"], environment={"a": 1}, block="entry"
    ),
    CompileRequest(
        target="demo",
        kernel="fir",
        name="f",
        config=PipelineConfig(encode=True, verify=False),
        opt=False,
        verify=True,
        binding_overrides={"a": "R0"},
        request_id="r1",
        timeout_s=2.5,
        trace=True,
    ),
    PipelineConfig(allow_chained=False, encode=True, verify=False),
]

IDS = [type(record).__name__ for record in RECORDS]


def _default(spec):
    return spec.default if spec.default_factory is MISSING else spec.default_factory()


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_the_dict_is_the_fields_in_declaration_order(record):
    names = [spec.name for spec in fields(record)]
    if isinstance(record, CompileRequest):
        # A request's dict leaves out what it does not ask for.
        names = [
            spec.name
            for spec in fields(record)
            if getattr(record, spec.name) != _default(spec)
        ]
    assert list(record.to_dict()) == names
    if isinstance(record, PhaseTimings):
        assert list(record.as_dict()) == names + ["total"]
        assert record.as_dict()["total"] == record.total == 0.875


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_the_dict_survives_json(record):
    data = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(data) == record


REQUIRED = [
    (type(record), spec.name)
    for record in RECORDS
    if not isinstance(record, CompileRequest)
    for spec in fields(record)
    if spec.default is MISSING and spec.default_factory is MISSING
]


@pytest.mark.parametrize(
    "cls,name", REQUIRED, ids=["%s.%s" % (cls.__name__, name) for cls, name in REQUIRED]
)
def test_a_missing_required_field_raises_key_error(cls, name):
    (record,) = [record for record in RECORDS if type(record) is cls]
    data = record.to_dict()
    del data[name]
    with pytest.raises(KeyError, match=name):
        cls.from_dict(data)


def test_optional_fields_take_their_defaults():
    assert OptStats.from_dict({}) == OptStats()
    assert Diagnostic.from_dict({"severity": "note", "message": "m"}).phase == ""


def test_containers_are_copied_both_ways():
    stats = OptStats(rewrites={"add-zero": 2})
    data = stats.to_dict()
    assert data["rewrites"] == stats.rewrites and data["rewrites"] is not stats.rewrites
    assert OptStats.from_dict(data).rewrites is not data["rewrites"]
    step = RECORDS[IDS.index("TraceStep")]
    copied = step.to_dict()
    assert copied["operations"] is not step.operations
    assert copied["environment"] is not step.environment
