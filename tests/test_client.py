"""Tests for info-document parsing, report formatting and fetching."""

import contextlib
import gc
import socket
import sys
import threading
import time
import tracemalloc
import warnings
from xml.etree import ElementTree

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grespipe import _text, client
from grespipe.client import (
    BadContentType,
    BadStatus,
    DocumentTooLarge,
    FetchError,
    MalformedXml,
    NoServices,
    Unreachable,
    fetch_info,
    format_arcinfo,
    parse_execution_targets,
)
from grespipe.infoprovider import ComputingManagerRecord, ComputingServiceRecord, render_glue2_xml

from conftest import PRINTABLE_WIDE_CHARS, RESOURCE_LINES, answer_once, run_python

# Wire-format sample with comment placeholders where a full publisher would
# emit additional entities.
GOLDEN_DOCUMENT = """\
<InfoRoot>
  <Domains>
    <AdminDomain>
      <!-- ... -->
      <Services>
        <ComputingService>
          <!-- ... -->
          <ComputingManager>
            <!-- ... -->
            <GeneralResources>
              <Resource>gpu:k80ce:4,mps:no_consume:1,gpuexcl:no_consume:1</Resource>
              <Resource>gpu:k80ce:8,mps:no_consume:1,gpuexcl:no_consume:1</Resource>
              <Resource>gpu:v100:2,mps:no_consume:1,gpuexcl:no_consume:1</Resource>
              <Resource>hbm:16G</Resource>
              <Resource>hbm:0</Resource>
            </GeneralResources>
            <!-- ... -->
          </ComputingManager>
          <!-- ... -->
        </ComputingService>
      </Services>
    </AdminDomain>
  </Domains>
</InfoRoot>
"""


class TestParseExecutionTargets:
    def test_golden_document(self):
        records = parse_execution_targets(GOLDEN_DOCUMENT)
        assert len(records) == 1
        assert list(records[0].manager.general_resources) == RESOURCE_LINES

    def test_empty_general_resources_element(self):
        document = (
            "<InfoRoot><Domains><AdminDomain><Services><ComputingService>"
            "<ComputingManager><GeneralResources/></ComputingManager>"
            "</ComputingService></Services></AdminDomain></Domains></InfoRoot>"
        )
        records = parse_execution_targets(document)
        assert records[0].manager.general_resources == ()

    def test_absent_general_resources(self):
        document = (
            "<InfoRoot><Services><ComputingService><ComputingManager/>"
            "</ComputingService></Services></InfoRoot>"
        )
        records = parse_execution_targets(document)
        assert records[0].manager.general_resources == ()

    def test_multiple_managers_per_service(self):
        document = (
            "<InfoRoot><ComputingService id='svc'>"
            "<ComputingManager id='one'><GeneralResources>"
            "<Resource>gpu:1</Resource></GeneralResources></ComputingManager>"
            "<ComputingManager id='two'><GeneralResources>"
            "<Resource>hbm:0</Resource></GeneralResources></ComputingManager>"
            "</ComputingService></InfoRoot>"
        )
        records = parse_execution_targets(document)
        assert [(r.manager.manager_name, r.manager.general_resources) for r in records] == [
            ("one", ("gpu:1",)),
            ("two", ("hbm:0",)),
        ]

    def test_service_without_manager(self):
        records = parse_execution_targets("<InfoRoot><ComputingService/></InfoRoot>")
        assert len(records) == 1
        assert records[0].manager.general_resources == ()

    def test_ids_recovered(self, site_config):
        record = ComputingServiceRecord(
            "domain.example", "svc-1", ComputingManagerRecord("slurm", ("gpu:1",))
        )
        parsed = parse_execution_targets(render_glue2_xml(record))[0]
        assert parsed.admin_domain == "domain.example"
        assert parsed.service_id == "svc-1"
        assert parsed.manager.manager_name == "slurm"

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_execution_targets("<InfoRoot><unclosed>")
        with pytest.raises(MalformedXml):
            parse_execution_targets("")

    def test_no_services(self):
        with pytest.raises(NoServices):
            parse_execution_targets("<InfoRoot><Domains/></InfoRoot>")

    def test_unknown_elements_ignored(self):
        document = (
            "<InfoRoot><Banner>hi</Banner><Domains><AdminDomain>"
            "<Unknown><Deep><Tree>x</Tree></Deep></Unknown>"
            "<Services><ComputingService><Endpoint>ignored</Endpoint>"
            "<ComputingManager><Benchmark>1.0</Benchmark>"
            "<GeneralResources><Resource>gpu:v100:2</Resource></GeneralResources>"
            "<Slots>12</Slots></ComputingManager></ComputingService>"
            "</Services></AdminDomain></Domains></InfoRoot>"
        )
        records = parse_execution_targets(document)
        assert [r.manager.general_resources for r in records] == [("gpu:v100:2",)]

    def test_deep_chain_of_services_parses_in_linear_time(self):
        # 20,000 services at the bottom of a 20,000-deep chain: walking up
        # from each service without remembering the chain took tens of seconds.
        depth = 20_000
        document = (
            "<InfoRoot><AdminDomain id='outer'>" + "<x>" * depth + "<ComputingService/>" * depth
            + "<AdminDomain id='inner'><ComputingService/></AdminDomain>" + "</x>" * depth
            + "</AdminDomain></InfoRoot>"
        )
        start = time.perf_counter()
        records = parse_execution_targets(document)
        elapsed = time.perf_counter() - start
        assert [r.admin_domain for r in records] == ["outer"] * depth + ["inner"]
        assert elapsed < 5, f"parse took {elapsed:.1f} s"

    def test_a_parse_runs_no_collection_and_leaves_no_cyclic_garbage(self):
        resources = tuple(f"gpu:model{index}:{index % 8 + 1},mps:{index}" for index in range(10_000))
        document = render_glue2_xml(ComputingServiceRecord("domain", "svc", ComputingManagerRecord("slurm", resources)))
        parse_execution_targets(document)  # warm-up: the first parse imports xml.etree
        gc.collect()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            records = parse_execution_targets(document)
        finally:
            gc.callbacks.remove(count)
        assert starts == [], f"{len(starts)} collections started during one parse"
        assert records[0].manager.general_resources == resources
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "document, error",
        [(GOLDEN_DOCUMENT, None), ("<InfoRoot><unclosed>", MalformedXml), ("<InfoRoot/>", NoServices)],
        ids=["valid", "malformed", "no-services"],
    )
    def test_parse_restores_the_collector_state(self, enabled, document, error):
        def parse_twenty():
            for _ in range(20):
                parse_execution_targets(GOLDEN_DOCUMENT)

        at_start, interval = gc.isenabled(), sys.getswitchinterval()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(error) if error else contextlib.nullcontext():
                parse_execution_targets(document)
            assert gc.isenabled() is enabled
            sys.setswitchinterval(1e-5)  # threads switch inside one another's parses
            threads = [threading.Thread(target=parse_twenty) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled() is enabled
        finally:
            sys.setswitchinterval(interval)
            (gc.enable if at_start else gc.disable)()

    def test_a_parse_ending_between_anothers_read_and_pause_leaves_the_collector_on(self, monkeypatch):
        # Parse A has paused the collector when parse B reads its state (off); A then ends and
        # turns it on before B pauses it.  Unless A's restore waits for B's pause, B pauses a
        # collector that it found off, so it never turns it on again.
        a_paused, b_read, a_ended = threading.Event(), threading.Event(), threading.Event()
        services = client._services

        def services_in_a(xml_text):
            if threading.current_thread() is parse_a:
                a_paused.set()
                assert b_read.wait(timeout=10)
            return services(xml_text)

        class ReadByB:  # the gc module; B's read of the collector's state holds B until A has ended
            def __getattr__(self, name):
                return getattr(gc, name)

            def isenabled(self):
                state = gc.isenabled()
                if threading.current_thread() is parse_b:
                    b_read.set()
                    a_ended.wait(timeout=0.2)  # times out while A's restore waits for B's pause
                return state

        def parse(ended=None):
            parse_execution_targets(GOLDEN_DOCUMENT)
            if ended:
                ended.set()

        monkeypatch.setattr(client, "_services", services_in_a)
        monkeypatch.setattr(client, "gc", ReadByB())
        parse_a, parse_b = threading.Thread(target=parse, args=(a_ended,)), threading.Thread(target=parse)
        at_start = gc.isenabled()
        try:
            gc.enable()
            parse_a.start()
            assert a_paused.wait(timeout=10)
            parse_b.start()
            for thread in (parse_a, parse_b):
                thread.join(timeout=30)
            assert not parse_a.is_alive() and not parse_b.is_alive()
            assert gc.isenabled()
        finally:
            (gc.enable if at_start else gc.disable)()

    def test_nested_elements_attach_to_their_nearest_ancestors(self):
        document = (
            "<InfoRoot><AdminDomain id='d1'><ComputingService id='s1'><ComputingManager id='m1'>"
            "<GeneralResources><Resource>a</Resource></GeneralResources>"
            "<ComputingService id='s2'>"
            "<GeneralResources><Resource>b</Resource></GeneralResources>"
            "<ComputingManager id='m2'><GeneralResources><Resource>c</Resource>"
            "<GeneralResources><Resource>d</Resource></GeneralResources>"
            "<ComputingService id='in-block'/></GeneralResources></ComputingManager>"
            "</ComputingService></ComputingManager></ComputingService></AdminDomain>"
            "<ComputingManager id='orphan'><GeneralResources><Resource>e</Resource>"
            "</GeneralResources></ComputingManager></InfoRoot>"
        )
        records = parse_execution_targets(document)
        assert records == [
            ComputingServiceRecord("d1", "s1", ComputingManagerRecord("m1", ("a", "b"))),
            ComputingServiceRecord("d1", "s2", ComputingManagerRecord("m2", ("c", "d"))),
        ]

    @pytest.mark.parametrize(
        "head, nested, tail, records, resources",
        [
            ("", "<ComputingService>", "", 20_000, 0),
            ("<ComputingService>", "<ComputingManager>", "</ComputingService>", 20_000, 0),
            (
                "<ComputingService><ComputingManager>",
                "<GeneralResources><Resource>gpu:1</Resource>",
                "</ComputingManager></ComputingService>",
                1,
                20_000,
            ),
        ],
        ids=["services", "managers", "blocks"],
    )
    def test_nesting_counts_each_element_once(self, head, nested, tail, records, resources):
        depth = 20_000
        closing = nested[: nested.index(">") + 1].replace("<", "</")
        document = f"<InfoRoot>{head}{nested * depth}{closing * depth}{tail}</InfoRoot>"
        start = time.perf_counter()
        parsed = parse_execution_targets(document)
        elapsed = time.perf_counter() - start
        assert len(parsed) == records
        assert sum(len(r.manager.general_resources) for r in parsed) == resources
        assert elapsed < 5, f"parse took {elapsed:.1f} s"


_resource_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=30,
)


@given(st.lists(_resource_text, max_size=6))
def test_emit_parse_round_trip(resources):
    record = ComputingServiceRecord(
        "domain", "service", ComputingManagerRecord("slurm", tuple(resources))
    )
    parsed = parse_execution_targets(render_glue2_xml(record))
    assert len(parsed) == 1
    assert list(parsed[0].manager.general_resources) == resources


# C0, printable ASCII, DEL, NEL, a Latin-1 letter, an astral character and U+FFFD to U+FFFF:
# characters XML 1.0 carries as they are, as references, or not at all.
_XML_EDGE_CHARS = [chr(code) for code in range(0x80)] + ["\x85", "\u00e9", "\U0001d11e", "\ufffd", "\ufffe", "\uffff"]
_XML_EDGE_TEXT = st.text(alphabet=st.sampled_from(_XML_EDGE_CHARS), max_size=8)


@given(_XML_EDGE_TEXT, _XML_EDGE_TEXT, _XML_EDGE_TEXT, st.lists(_XML_EDGE_TEXT, max_size=4))
@example("hpc\x01n", "svc", "slurm", [])
@example("domain", "svc", "slurm", ["gpu:\uffff"])
@example("do\tma\ni\rn", "s\u00e9rvice", "\U0001d11e", ["\x7f\x85\ufffd"])
def test_every_valid_record_reads_back_as_itself(admin_domain, service_id, manager_name, resources):
    record = ComputingServiceRecord(admin_domain, service_id, ComputingManagerRecord(manager_name, tuple(resources)))
    try:
        record.validate()
    except ValueError:
        return
    assert parse_execution_targets(render_glue2_xml(record)) == [record]


@given(st.lists(_resource_text, max_size=4), st.integers(min_value=0, max_value=10**6))
def test_injected_elements_do_not_change_resources(resources, seed):
    record = ComputingServiceRecord(
        "domain", "service", ComputingManagerRecord("slurm", tuple(resources))
    )
    root = ElementTree.fromstring(render_glue2_xml(record))
    import random

    rng = random.Random(seed)
    for element in list(root.iter()):
        if element.tag == "Resource":
            continue
        if rng.random() < 0.4:
            noise = ElementTree.SubElement(element, f"Unknown{rng.randint(0, 9)}")
            noise.text = "noise"
            ElementTree.SubElement(noise, "Nested").text = "deeper"
    mutated = ElementTree.tostring(root, encoding="unicode")
    parsed = parse_execution_targets(mutated)
    assert list(parsed[0].manager.general_resources) == resources


_TREE_TAGS = (
    "InfoRoot", "AdminDomain", "ComputingService", "ComputingManager", "GeneralResources", "Resource", "Unknown",
)


def _random_tree(nodes) -> ElementTree.Element:
    """Each node hangs below the element ``back`` places before the newest
    one, so small numbers nest deeply.  Every Resource text is unique."""
    root = ElementTree.Element("InfoRoot")
    elements = [root]
    for index, (back, tag, element_id, text) in enumerate(nodes):
        element = ElementTree.SubElement(elements[-1 - back % len(elements)], tag)
        if element_id is not None:
            element.set("id", element_id)
        element.text = f"resource-{index}" if tag == "Resource" else text
        elements.append(element)
    return root


def _oracle_records(root) -> list[ComputingServiceRecord]:
    """The parse contract, spelled out with a parent map and nearest-ancestor lookups."""
    parent_of = {child: parent for parent in root.iter() for child in parent}

    def nearest(element, tag):
        element = parent_of.get(element)
        while element is not None and element.tag != tag:
            element = parent_of.get(element)
        return element

    def outside_blocks(tag):
        return [e for e in root.iter(tag) if nearest(e, "GeneralResources") is None]

    managers = outside_blocks("ComputingManager")
    blocks = outside_blocks("GeneralResources")
    records = []
    for service in outside_blocks("ComputingService"):
        domain = nearest(service, "AdminDomain")
        domain_id = "" if domain is None else domain.get("id", "")
        own = [m for m in managers if nearest(m, "ComputingService") is service]
        for manager in own:
            resources = tuple(
                resource.text or ""
                for block in blocks
                if nearest(block, "ComputingManager") is manager
                for resource in block.iter("Resource")
            )
            manager_record = ComputingManagerRecord(manager.get("id", ""), resources)
            records.append(ComputingServiceRecord(domain_id, service.get("id", ""), manager_record))
        if not own:
            records.append(ComputingServiceRecord(domain_id, service.get("id", ""), ComputingManagerRecord("")))
    return records


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(_TREE_TAGS),
            st.sampled_from([None, "", "a", "b"]),
            st.sampled_from([None, "", "noise"]),
        ),
        max_size=60,
    )
)
def test_parse_matches_nearest_ancestor_oracle(nodes):
    root = _random_tree(nodes)
    expected = _oracle_records(root)
    document = ElementTree.tostring(root, encoding="unicode")
    if not expected:
        with pytest.raises(NoServices):
            parse_execution_targets(document)
        return
    parsed = parse_execution_targets(document)
    assert parsed == expected
    texts = [text for record in parsed for text in record.manager.general_resources]
    assert len(texts) == len(set(texts))  # no Resource element is counted twice


class TestFormatArcinfo:
    def _record(self, resources=(), service_id="kebnekaise-ce"):
        return ComputingServiceRecord(
            "dom", service_id, ComputingManagerRecord("slurm", tuple(resources))
        )

    def test_golden_block(self):
        output = format_arcinfo([self._record(RESOURCE_LINES)])
        assert output == (
            "Computing service: kebnekaise-ce\n"
            "  Batch System Information:\n"
            "    General resources:\n"
            "      gpu:k80ce:4,mps:no_consume:1,gpuexcl:no_consume:1\n"
            "      gpu:k80ce:8,mps:no_consume:1,gpuexcl:no_consume:1\n"
            "      gpu:v100:2,mps:no_consume:1,gpuexcl:no_consume:1\n"
            "      hbm:16G\n"
            "      hbm:0\n"
        )

    def test_empty_resources_omit_header(self):
        output = format_arcinfo([self._record()])
        assert "General resources:" not in output
        assert "Computing service:" in output

    def test_two_services_two_blocks_in_order(self):
        output = format_arcinfo([self._record((), "first"), self._record(("gpu:1",), "second")])
        assert output.count("Computing service:") == 2
        assert output.index("first") < output.index("second")

    def test_no_records(self):
        assert format_arcinfo([]) == ""

    @given(st.lists(_resource_text, max_size=6))
    def test_resource_block_line_count(self, resources):
        output = format_arcinfo([self._record(resources)])
        block_lines = [
            line
            for line in output.splitlines()
            if line.startswith("      ") or line.strip() == "General resources:"
        ]
        assert len(block_lines) == (len(resources) + 1 if resources else 0)


def _reference_format_arcinfo(records):
    """The report as it was first written: one template line per resource."""
    lines = []
    for record in records:
        header = "Computing service:"
        if record.service_id:
            header += f" {record.service_id}"
        lines.append(header)
        lines.append("  Batch System Information:")
        if record.manager.general_resources:
            lines.append("    General resources:")
            lines.extend(f"      {resource}" for resource in record.manager.general_resources)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


_WIDE_TEXT = st.text(alphabet=st.sampled_from(PRINTABLE_WIDE_CHARS), max_size=12)


@given(
    st.lists(
        st.tuples(_WIDE_TEXT, st.lists(_WIDE_TEXT.filter(bool), max_size=6)),
        max_size=4,
    )
)
def test_format_matches_per_resource_reference(services):
    records = [
        ComputingServiceRecord("dom", service_id, ComputingManagerRecord("slurm", tuple(resources)))
        for service_id, resources in services
    ]
    assert format_arcinfo(records) == _reference_format_arcinfo(records)


# For ``python -c``: writes the document fetched from ``sys.argv[1]`` to stdout.
_PRINT_FETCHED = (
    "import sys; from grespipe.client import fetch_info; sys.stdout.write(fetch_info(sys.argv[1], 2))"
)


def _assert_never_contacted(listener: socket.socket) -> None:
    listener.setblocking(False)
    with pytest.raises(BlockingIOError):  # no pending connection, so no bytes were sent to it
        listener.accept()


def _row(name: str, reply: bytes, expected: type[FetchError] | str, drip: bytes = b"", host: str = "127.0.0.1"):
    """One response edge case: ``reply``, then ``drip`` one byte every 0.3 s, from a listener on
    ``host``; ``expected`` is the exception class ``fetch_info`` raises or the exact body it returns."""
    return pytest.param(reply, drip, host, expected, id=name)


_XML_HEAD = b"HTTP/1.0 200 OK\r\nContent-Type: application/xml\r\n"
_RESPONSE_EDGE_CASES = [
    _row("not-http", b"hello\r\n\r\n", Unreachable),
    # HTTP/ DIGIT . DIGIT (RFC 9112 section 2.3), of major version 1.
    _row("http-1.2", b"HTTP/1.2 200 OK\r\nContent-Type: text/xml\r\n\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("http-2.0", b"HTTP/2.0 200 OK\r\nContent-Type: text/xml\r\n\r\n<InfoRoot/>", Unreachable),
    _row("http-1.10", b"HTTP/1.10 200 OK\r\nContent-Type: text/xml\r\n\r\n<InfoRoot/>", Unreachable),
    _row("http-1.1", b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 11\r\n\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("bare-lf", b"HTTP/1.0 200 OK\nContent-Type: application/xml\nContent-Length: 11\n\n<InfoRoot/>", "<InfoRoot/>"),
    # A line of exactly 65,536 bytes with its CRLF is within the limit.
    _row("line-65536", _XML_HEAD + b"X: " + b"x" * (65536 - 5) + b"\r\n\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("line-65537", _XML_HEAD + b"X: " + b"x" * (65537 - 5) + b"\r\n\r\n<InfoRoot/>", Unreachable),
    # Content-Type and the X lines are the header fields; the blank line is the head's 100th line after
    # the status line with 99 of them, its 101st with 100.
    _row("101-headers", _XML_HEAD + b"X: y\r\n" * 100 + b"\r\n<InfoRoot/>", Unreachable),
    _row("100-headers", _XML_HEAD + b"X: y\r\n" * 99 + b"\r\n<InfoRoot/>", Unreachable),
    _row("99-headers", _XML_HEAD + b"X: y\r\n" * 98 + b"\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("length-not-ascii", _XML_HEAD + "Content-Length: \u0661\u0661\r\n\r\n".encode() + b"<InfoRoot/>", Unreachable),
    _row("length-signed", _XML_HEAD + b"Content-Length: +11\r\n\r\n<InfoRoot/>", Unreachable),
    # Were a body byte read, the drip would hold the client to its deadline.
    _row("length-over-cap", _XML_HEAD + b"Content-Length: 67108865\r\n\r\n", DocumentTooLarge, drip=b"<" * 10),
    _row("extra-bytes", _XML_HEAD + b"Content-Length: 11\r\n\r\n<InfoRoot/>trailing", "<InfoRoot/>"),
    # Differing lengths leave the body's end unknown (RFC 9112 section 6.3); equal repeats agree on it.
    _row("length-conflict", _XML_HEAD + b"Content-Length: 11\r\nContent-Length: 5\r\n\r\n<InfoRoot/>", Unreachable),
    _row("length-repeated", _XML_HEAD + b"Content-Length: 11\r\nContent-Length: 11\r\n\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("chunked", _XML_HEAD + b"Transfer-Encoding: chunked\r\n\r\nb\r\n<InfoRoot/>\r\n0\r\n\r\n", Unreachable),
    _row("no-type", b"HTTP/1.0 200 OK\r\nContent-Length: 11\r\n\r\n<InfoRoot/>", BadContentType),
    _row("xhtml", b"HTTP/1.0 200 OK\r\nContent-Type: application/xhtml+xml\r\n\r\n<InfoRoot/>", "<InfoRoot/>"),
    _row("204", b"HTTP/1.0 204 No Content\r\n\r\n", BadStatus),
    _row("500", b"HTTP/1.0 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n", BadStatus),
    _row("ipv6-literal", _XML_HEAD + b"\r\n<InfoRoot/>", "<InfoRoot/>", host="::1"),
]


class TestFetchInfo:
    def test_loopback_fetch_matches_served_document(self, served):
        server, document = served
        assert fetch_info(server.url + "/info") == document

    def test_bad_status_on_404(self, served):
        with pytest.raises(BadStatus) as excinfo:
            fetch_info(served[0].url + "/nonexistent")
        assert excinfo.value.status == 404

    def test_bad_content_type(self, served):
        with pytest.raises(BadContentType):
            fetch_info(served[0].url + "/healthz")

    def test_document_over_cap_rejected(self, served, monkeypatch):
        url = served[0].url + "/info"
        body = fetch_info(url)
        size = len(body.encode("utf-8"))
        monkeypatch.setattr(_text, "MAX_DOCUMENT_BYTES", size)
        assert fetch_info(url) == body
        monkeypatch.setattr(_text, "MAX_DOCUMENT_BYTES", size - 1)
        with pytest.raises(DocumentTooLarge, match=f"exceeds {size - 1} bytes") as excinfo:
            fetch_info(url)
        assert isinstance(excinfo.value, FetchError)

    def test_truncated_body_rejected(self):
        head = b"HTTP/1.0 200 OK\r\nContent-Type: application/xml\r\nContent-Length: 100\r\n\r\n"
        with answer_once(head + b"<InfoRoot>") as port:
            with pytest.raises(FetchError, match="body ended after 10 of 100 bytes"):
                fetch_info(f"http://127.0.0.1:{port}/info", timeout=5)

    def test_close_delimited_body(self, monkeypatch):
        head = b"HTTP/1.0 200 OK\r\nContent-Type: application/xml\r\n\r\n"
        with answer_once(head + b"<InfoRoot/>") as port:
            assert fetch_info(f"http://127.0.0.1:{port}/info", timeout=5) == "<InfoRoot/>"
        # Read in chunks, so a body with no Content-Length does not reserve the cap.
        body = "<InfoRoot>" + "x" * (400 * 1024) + "</InfoRoot>"
        with answer_once(head + body.encode("ascii")) as port:
            tracemalloc.start()
            try:
                assert fetch_info(f"http://127.0.0.1:{port}/info", timeout=5) == body
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 1024 * 1024
        monkeypatch.setattr(_text, "MAX_DOCUMENT_BYTES", 100)
        with answer_once(head + b"x" * 101) as port:
            with pytest.raises(DocumentTooLarge, match="exceeds 100 bytes"):
                fetch_info(f"http://127.0.0.1:{port}/info", timeout=5)

    def test_redirect_is_bad_status_and_not_followed(self):
        with socket.create_server(("127.0.0.1", 0)) as elsewhere:
            location = f"http://127.0.0.1:{elsewhere.getsockname()[1]}/info"
            reply = f"HTTP/1.0 302 Found\r\nLocation: {location}\r\nContent-Length: 0\r\n\r\n"
            with answer_once(reply.encode("ascii")) as port:
                with pytest.raises(BadStatus) as excinfo:
                    fetch_info(f"http://127.0.0.1:{port}/info", timeout=2)
            assert excinfo.value.status == 302
            _assert_never_contacted(elsewhere)

    def test_proxy_variables_are_not_read(self, served, monkeypatch):
        server, document = served
        with socket.create_server(("127.0.0.1", 0)) as proxy:
            for name in ("http_proxy", "HTTP_PROXY"):
                monkeypatch.setenv(name, f"http://127.0.0.1:{proxy.getsockname()[1]}")
            for name in ("no_proxy", "NO_PROXY"):
                monkeypatch.delenv(name, raising=False)
            # A fresh interpreter, so nothing this process read from the environment earlier is reused.
            child = run_python("-c", _PRINT_FETCHED, server.url + "/info", timeout=30)
            _assert_never_contacted(proxy)
        assert child.returncode == 0, child.stderr
        assert child.stdout == document

    def test_bad_status_leaves_no_unclosed_socket(self, served):
        def fetch_missing(url):
            with pytest.raises(BadStatus) as excinfo:
                fetch_info(url)
            # excinfo -> traceback -> this frame -> excinfo: only the collector frees the error,
            # in no set order, so a socket left open behind it is finalized unclosed.
            assert excinfo.value.status == 404

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            fetch_missing(served[0].url + "/nonexistent")
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize(
        "head, drip",
        [
            (b"HTTP/1.0 200 OK\r\nContent-Type: application/xml\r\nContent-Length: 20\r\n\r\n", b"<InfoRoot>" + b" " * 10),
            (b"HTTP/1.0 200 OK\r\nContent-Length: 11\r\nContent-Type: ", b"application/xml\r\n\r\n<InfoRoot/>"),
        ],
        ids=["body", "header"],
    )
    def test_drip_is_cut_off_at_the_deadline(self, head, drip):
        with answer_once(head, drip) as port:
            start = time.monotonic()
            with pytest.raises(FetchError, match="no complete answer within 1 s"):
                fetch_info(f"http://127.0.0.1:{port}/info", timeout=1.0)
            assert time.monotonic() - start < 1.5

    def test_silent_listener_is_cut_off_at_the_deadline(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:  # connects complete, but no answer ever comes
            start = time.monotonic()
            with pytest.raises(FetchError, match="no complete answer within 1 s"):
                fetch_info(f"http://127.0.0.1:{listener.getsockname()[1]}/info", timeout=1.0)
            assert time.monotonic() - start < 1.5

    def test_connect_deadline_covers_every_address(self, monkeypatch):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            address = listener.getsockname()
            with contextlib.ExitStack() as held:
                for _ in range(16):  # fill the backlog, so a connect hangs
                    filler = held.enter_context(socket.socket())
                    filler.settimeout(0.2)
                    try:
                        filler.connect(address)
                    except TimeoutError:
                        break
                else:
                    pytest.fail("a listen(0) backlog took 16 connects")
                hanging = socket.getaddrinfo(*address, type=socket.SOCK_STREAM)[0]
                monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: [hanging] * 3)
                start = time.monotonic()
                with pytest.raises(Unreachable, match="no complete answer within 0.5 s"):
                    fetch_info(f"http://127.0.0.1:{address[1]}/info", timeout=0.5)
                assert time.monotonic() - start < 0.5 + 0.3

    @pytest.mark.parametrize("target", ["/in fo", "/in\x7ffo", "/inf\u00f6"], ids=["space", "control", "non-ascii"])
    def test_url_unfit_for_the_request_head_is_refused(self, target):
        url = f"http://127.0.0.1:1{target}"
        message = f"cannot fetch {url}: the URL holds a space, a control or a non-ASCII character"
        with pytest.raises(Unreachable) as excinfo:
            fetch_info(url)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("reply, drip, host, expected", _RESPONSE_EDGE_CASES)
    def test_response_edge_cases(self, reply, drip, host, expected):
        if ":" in host:
            try:
                socket.create_server((host, 0), family=socket.AF_INET6).close()
            except OSError:
                pytest.skip("no IPv6 loopback on this machine")
        with answer_once(reply, drip, host) as port:
            url = f"http://{f'[{host}]' if ':' in host else host}:{port}/info"
            if isinstance(expected, str):
                assert fetch_info(url, timeout=2) == expected
                return
            with pytest.raises(FetchError) as excinfo:
                fetch_info(url, timeout=2)
        assert type(excinfo.value) is expected, excinfo.value

    @pytest.mark.parametrize("url", ["http://[::1/info", "http://::1]/info"], ids=["open-bracket", "close-bracket"])
    def test_url_that_cannot_be_split_is_refused_by_name(self, url):
        with pytest.raises(Unreachable) as excinfo:
            fetch_info(url)
        assert str(excinfo.value) == f"cannot fetch {url}: Invalid IPv6 URL"

    def test_unreachable_port(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(Unreachable):
            fetch_info(f"http://127.0.0.1:{port}/info", timeout=2)

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ValueError):
            fetch_info("ftp://example.org/info")
        with pytest.raises(ValueError):
            fetch_info("https://example.org/info")
