"""Records serialize from their own dataclass fields.

Each record below is a :class:`repro.records.Record`: its dict form is
its fields in declaration order, and ``from_dict`` rebuilds it with the
dataclass's own required/optional split, checking each value against
its field's annotation.  A field added to any of them is serialized and
checked here with no second edit.
"""

import json
from dataclasses import MISSING, fields

import pytest

from repro.diagnostics import Diagnostic
from repro.fuzz.campaign import Finding
from repro.ir.program import HardwareLoop
from repro.opt.pipeline import OptStats
from repro.record.retarget import PhaseTimings
from repro.records import Record, SchemaError
from repro.service.api import CompileRequest, CompileResponse, ErrorInfo, RequestError
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
    Finding(
        kind="crash", oracle="sim", target="demo", seed=3, index=1,
        source="int a; a = 1;", detail="boom",
    ),
    CompileResponse(
        target="demo", name="fir", ok=False, request_id="r1", elapsed_s=0.5,
        error=ErrorInfo(type="KernelError", message="unknown kernel", phase="request"),
    ),
]

IDS = [type(record).__name__ for record in RECORDS]


def test_every_record_is_covered():
    assert {type(record) for record in RECORDS} == set(Record.__subclasses__())


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
    if isinstance(record, Finding):
        names.append("hash")  # derived from the source
    if isinstance(record, CompileResponse):
        # An envelope leaves out what its outcome does not have.
        names = ["target", "name", "ok", "elapsed_s", "request_id", "error"]
    assert list(record.to_dict()) == names
    if isinstance(record, PhaseTimings):
        assert list(record.as_dict()) == names + ["total"]
        assert record.as_dict()["total"] == record.total == 0.875


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_the_dict_survives_json(record):
    data = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(data) == record


def _schema_error(cls):
    """What ``cls.from_dict`` raises for a dict that does not fit: a job
    is outside input, so its decode answers a ``RequestError``."""
    return RequestError if cls is CompileRequest else SchemaError


REQUIRED = [
    (type(record), spec.name)
    for record in RECORDS
    for spec in fields(record)
    if spec.default is MISSING and spec.default_factory is MISSING
]


@pytest.mark.parametrize(
    "cls,name", REQUIRED, ids=["%s.%s" % (cls.__name__, name) for cls, name in REQUIRED]
)
def test_a_missing_required_field_is_a_schema_error(cls, name):
    (record,) = [record for record in RECORDS if type(record) is cls]
    data = record.to_dict()
    del data[name]
    message = "^%s: missing field\\(s\\): %s$" % (cls.__name__, name)
    with pytest.raises(_schema_error(cls), match=message):
        cls.from_dict(data)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_an_unknown_key_is_a_schema_error(record):
    cls = type(record)
    message = "^%s: unknown field\\(s\\): bogus$" % cls.__name__
    with pytest.raises(_schema_error(cls), match=message):
        cls.from_dict(dict(record.to_dict(), bogus=1))


FIELDS = [
    (record, spec.name) for record in RECORDS for spec in fields(record)
]


@pytest.mark.parametrize(
    "record,name", FIELDS,
    ids=["%s.%s" % (type(record).__name__, name) for record, name in FIELDS],
)
def test_a_wrongly_typed_value_is_a_schema_error(record, name):
    # An array holding an empty object fits none of the fields: no field
    # is a list of records.
    cls = type(record)
    with pytest.raises(_schema_error(cls)) as excinfo:
        cls.from_dict(dict(record.to_dict(), **{name: [{}]}))
    message = str(excinfo.value)
    assert message.startswith("%s.%s" % (cls.__name__, name)) and ": expected " in message


ERRORS = [
    (CompileMetrics, {"code_size": True},
     r"CompileMetrics\.code_size: expected integer, got boolean"),
    (CompileMetrics, {"compile_time_s": "0.5"},
     r"CompileMetrics\.compile_time_s: expected number, got string"),
    (TraceStep, {"operations": ["ACC := DMEM", None]},
     r"TraceStep\.operations\[1\]: expected string, got null"),
    (TraceStep, {"environment": {"a": 1.5}},
     r"TraceStep\.environment\['a'\]: expected integer, got number"),
    (CompileRequest, {"config": {"encode": 1}},
     r"PipelineConfig\.encode: expected boolean, got integer"),
]


@pytest.mark.parametrize("cls,change,message", ERRORS)
def test_the_error_names_the_json_types_and_the_item(cls, change, message):
    data = dict(RECORDS[IDS.index(cls.__name__)].to_dict(), **change)
    with pytest.raises(_schema_error(cls), match="^%s$" % message):
        cls.from_dict(data)


def test_a_record_is_an_object():
    with pytest.raises(SchemaError, match=r"^Diagnostic: expected object, got array$"):
        Diagnostic.from_dict([])


def test_an_integer_is_a_number():
    metrics = dict(RECORDS[IDS.index("CompileMetrics")].to_dict(), compile_time_s=2)
    assert CompileMetrics.from_dict(metrics).compile_time_s == 2


def test_a_decoded_tuple_field_is_a_tuple():
    data = json.loads(json.dumps(RECORDS[IDS.index("StatementArtifact")].to_dict()))
    assert isinstance(data["operations"], list)
    assert StatementArtifact.from_dict(data).operations == ("ACC := DMEM",)


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
