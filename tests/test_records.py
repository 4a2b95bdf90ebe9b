"""The contract every grespipe record keeps: immutable, equal and hashed by
its field values within its own class only, and shown by the ``repr`` that
``@dataclass(frozen=True)`` gives, whatever the record is built from."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import threading
from pathlib import Path

import pytest

import grespipe
from grespipe import data
from grespipe._record import Record
from grespipe.gres import GresEntry, GresList, MalformedCount
from grespipe.infoprovider import (
    BadConfig,
    ComputingManagerRecord,
    ComputingServiceRecord,
    SiteConfig,
    render_glue2_xml,
)
from grespipe.jobsubmit import (
    RteManifestError,
    UnknownRte,
    generate_submit_script,
    load_rte_manifest,
    load_rte_registry,
)
from grespipe.lrms import ClusterFixture, ClusterSnapshot, InvalidFixture, NodeClass
from grespipe.xrsl import JobDescription

_JOB = (
    "JobDescription(executable='hello.sh', arguments=('-v',), job_name='gpu-hello', count=2, "
    "runtime_environments=('KGPU6',), stdout_name='out.txt', stderr_name='err.txt')"
)

# (record factory, field names in order, the repr a @dataclass(frozen=True) gives)
RECORDS = {
    "GresEntry": (
        lambda: GresEntry("gpu", "k80", 4, "4"),
        ("name", "subtype", "count", "count_literal"),
        "GresEntry(name='gpu', subtype='k80', count=4, count_literal='4')",
    ),
    "GresList": (
        lambda: GresList((GresEntry("gpu", "k80", 4, "4"), GresEntry("mps"))),
        ("entries",),
        "GresList(entries=(GresEntry(name='gpu', subtype='k80', count=4, count_literal='4'), "
        "GresEntry(name='mps', subtype=None, count=1, count_literal=None)))",
    ),
    "NodeClass": (
        lambda: NodeClass("gpu", 2, "gpu:k80:4"),
        ("partition", "node_count", "gres_line"),
        "NodeClass(partition='gpu', node_count=2, gres_line='gpu:k80:4')",
    ),
    "ClusterFixture": (
        lambda: ClusterFixture("kebnekaise", [NodeClass("gpu", 2, "gpu:k80:4")]),
        ("cluster_name", "node_classes"),
        "ClusterFixture(cluster_name='kebnekaise', "
        "node_classes=(NodeClass(partition='gpu', node_count=2, gres_line='gpu:k80:4'),))",
    ),
    "ClusterSnapshot": (
        lambda: ClusterSnapshot("kebnekaise", ("gpu:k80:4",), 0),
        ("cluster_name", "gres", "collected_at"),
        "ClusterSnapshot(cluster_name='kebnekaise', gres=('gpu:k80:4',), collected_at=0)",
    ),
    "ComputingManagerRecord": (
        lambda: ComputingManagerRecord("slurm", ("gpu:k80:4",)),
        ("manager_name", "general_resources"),
        "ComputingManagerRecord(manager_name='slurm', general_resources=('gpu:k80:4',))",
    ),
    "ComputingServiceRecord": (
        lambda: ComputingServiceRecord("hpc2n.umu.se", "kebnekaise-ce", ComputingManagerRecord("slurm")),
        ("admin_domain", "service_id", "manager"),
        "ComputingServiceRecord(admin_domain='hpc2n.umu.se', service_id='kebnekaise-ce', "
        "manager=ComputingManagerRecord(manager_name='slurm', general_resources=()))",
    ),
    "JobDescription": (
        lambda: JobDescription("hello.sh", ("-v",), "gpu-hello", 2, ("KGPU6",), "out.txt", "err.txt"),
        ("executable", "arguments", "job_name", "count", "runtime_environments", "stdout_name", "stderr_name"),
        _JOB,
    ),
    "SiteConfig": (
        lambda: SiteConfig("hpc2n.umu.se", "kebnekaise-ce", "slurm"),
        ("admin_domain", "service_id", "manager_name", "bind", "refresh_interval_seconds"),
        "SiteConfig(admin_domain='hpc2n.umu.se', service_id='kebnekaise-ce', manager_name='slurm', "
        "bind='127.0.0.1:8070', refresh_interval_seconds=30.0)",
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, fields, expected_repr = RECORDS[request.param]
    return make, fields, expected_repr


def test_record_is_frozen(record):
    make, fields, _repr = record
    built = make()
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(built, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(built, field)
    assert built == make()


def test_equal_records_hash_alike(record):
    make, _fields, _repr = record
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_record_equals_only_its_own_class(record):
    make, fields, _repr = record
    built = make()
    values = tuple(getattr(built, field) for field in fields)
    assert built.__eq__(values) is NotImplemented
    assert built != values and values != built
    assert built != object()
    assert built.__match_args__ == fields


def test_record_replace_builds_a_new_equal_record(record):
    make, _fields, _repr = record
    built = make()
    replaced = built.replace()
    assert replaced == built and replaced is not built and type(replaced) is type(built)
    with pytest.raises(TypeError):
        built.replace(no_such_field=None)


def test_record_replace_changes_only_the_fields_named_and_checks_again():
    site = SiteConfig("hpc2n.umu.se", "kebnekaise-ce", "slurm")
    assert site.replace(bind="0.0.0.0:80") == SiteConfig("hpc2n.umu.se", "kebnekaise-ce", "slurm", bind="0.0.0.0:80")
    with pytest.raises(BadConfig) as raised:
        site.replace(bind="nope")
    assert type(raised.value) is BadConfig
    assert str(raised.value) == "bind must be host:port, got 'nope'"


def test_records_of_two_classes_with_the_same_values_differ():
    node_class = NodeClass("a", "b", "c")
    service = ComputingServiceRecord("a", "b", "c")
    assert (node_class.partition, node_class.node_count, node_class.gres_line) == (
        service.admin_domain, service.service_id, service.manager
    )
    assert node_class != service and service != node_class


def test_record_repr(record):
    make, _fields, expected_repr = record
    assert repr(make()) == expected_repr


def test_record_keeps_no_instance_dict(record):
    make, _fields, _repr = record
    assert not hasattr(make(), "__dict__")


def test_every_record_in_the_package_is_in_the_table():
    for module in pkgutil.iter_modules(grespipe.__path__, "grespipe."):
        importlib.import_module(module.name)
    found, pending = set(), [Record]
    while pending:
        for subclass in pending.pop().__subclasses__():
            if subclass.__module__.startswith("grespipe."):
                found.add(subclass.__qualname__)
            pending.append(subclass)
    assert found == set(RECORDS)


def test_record_copies_and_pickles(record):
    make, _fields, _repr = record
    built = make()
    for copied in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert copied == built and type(copied) is type(built)
        assert repr(copied) == repr(built)


def _load_manifest(text: str) -> tuple[str, ...]:
    # X.rte in the working directory, so the refusal's path does not vary
    Path("X.rte").write_text(text)
    return load_rte_manifest("X.rte")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: GresEntry("gpu", "k80", 5, "4"), ValueError,
         "GresEntry(name='gpu', subtype='k80', count=5, count_literal='4') does not parse back from 'gpu:k80:4'"),
        (lambda: GresEntry(""), ValueError,
         "GresEntry(name='', subtype=None, count=1, count_literal=None) does not parse back from ''"),
        (lambda: GresEntry("gpu", "a:b"), MalformedCount, "segment 0: bad count 'b' in 'gpu:a:b'"),
        (lambda: ClusterFixture("c", ()), InvalidFixture, "fixture has no node classes"),
        (lambda: ClusterFixture("c", (NodeClass("gpu", 1, "gpu:1"), NodeClass("", 1, "gpu:1"))), InvalidFixture,
         "node class with empty partition name"),
        (lambda: ClusterFixture("c", (NodeClass("gpu", 0, "gpu:1"),)), InvalidFixture,
         "partition 'gpu': node_count must be positive"),
        (lambda: ClusterFixture("c", (NodeClass("gpu", 1, "(null)"), NodeClass("mps", 1, "gpu:"))), InvalidFixture,
         "partition 'mps': bad gres line 'gpu:': segment 0: empty field in 'gpu:'"),
        (lambda: ClusterSnapshot("c", ("gpu:1", "(null)", ""), 0), ValueError, "snapshot must not contain '(null)'"),
        (lambda: ClusterSnapshot("c", ("", "(null)"), 0), ValueError, "snapshot must not contain ''"),
        (lambda: load_rte_registry(data.RTE_DIR, ["bad name"]), UnknownRte, "unknown runtime environment: bad name"),
        (lambda: _load_manifest("name = X\nnode_properties = --a\rx\n"), RteManifestError,
         "X.rte:3: expected key = value"),
        (lambda: _load_manifest("name = X\nnode_properties =\n"), RteManifestError,
         "X.rte:2: empty value for 'node_properties'"),
        (lambda: generate_submit_script(JobDescription("x"), ("--a\n#SBATCH --b",)), ValueError,
         "directive must be a single line: '#SBATCH --a\\n#SBATCH --b'"),
        (lambda: JobDescription("", count=0), ValueError, "executable must be non-empty"),
        (lambda: JobDescription("x", count=0), ValueError, "count must be at least 1"),
        (lambda: SiteConfig("", "", "m", bind="nope", refresh_interval_seconds=0), BadConfig,
         "missing required config keys: admin_domain, service_id"),
        (lambda: SiteConfig("d", "s", "m", bind="nope", refresh_interval_seconds=float("nan")), BadConfig,
         f"refresh_interval_seconds must be in (0, {threading.TIMEOUT_MAX:g}]"),
        (lambda: SiteConfig("d", "s", "m", bind="nope"), BadConfig, "bind must be host:port, got 'nope'"),
        (lambda: ComputingManagerRecord("").validate(), ValueError, "manager_name must be non-empty"),
        (lambda: render_glue2_xml(ComputingServiceRecord("d", "s", ComputingManagerRecord(""))), ValueError,
         "manager_name must be non-empty"),
    ],
    ids=[
        "entry-count", "entry-empty", "entry-grammar", "fixture-empty", "fixture-partition", "fixture-count",
        "fixture-gres", "snapshot-null", "snapshot-empty", "rte-name",
        "rte-newline", "rte-empty", "script-newline", "job-executable",
        "job-count", "site-keys", "site-interval", "site-bind", "manager-name", "manager-name-render",
    ],
)
def test_construction_refusals(make, error, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where _load_manifest writes its file
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message
