"""Tests for record building, XML rendering and the info endpoint."""

import contextlib
import io
import itertools
import logging
import random
import re
import select
import socket
import struct
import threading
import time
import urllib.request
from functools import partial
from http import HTTPStatus
from xml.etree import ElementTree
from xml.sax import saxutils

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grespipe import _httpd, infoprovider
from grespipe._wire import MAX_LINE_BYTES, head_ended
from grespipe.infoprovider import (
    BadConfig,
    BindFailure,
    ComputingManagerRecord,
    ComputingServiceRecord,
    SiteConfig,
    build_computing_service,
    render_glue2_xml,
    _escape,
    _quoteattr,
    serve_info,
    split_bind,
)
from grespipe.lrms import ClusterSnapshot, collect_cluster_info, collect_from_sinfo, read_gres_info

from conftest import PRINTABLE_WIDE_CHARS, RESOURCE_LINES, SAMPLE_SINFO, fake_sinfo, random_fixture

SPINE = "Domains/AdminDomain/Services/ComputingService/ComputingManager"
# An HTTP Date header in IMF-fixdate form (RFC 9110 section 5.6.7).
_IMF_FIXDATE = rb"Date: (Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d (Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT"

# Request heads, each with the status the endpoint answers it with, and the ids of the cases.
REQUEST_EDGE_CASES = dict(
    argvalues=[
        (b"GET /info HTTP/1.0\r\n\r\n", b"200"),
        (b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n", b"200"),
        (b"GET /info?since=0 HTTP/1.1\r\n\r\n", b"200"),
        (b"GET /info HTTP/1.1\nHost: x\n\n", b"200"),
        (b"GET /nope HTTP/1.1\r\n\r\n", b"404"),
        (b"GET http://127.0.0.1/info HTTP/1.1\r\n\r\n", b"404"),
        (b"HEAD /info HTTP/1.0\r\n\r\n", b"501"),
        (b"POST /info HTTP/1.0\r\nContent-Length: 2\r\n\r\nhi", b"501"),
        (b"GET /" + b"a" * 65536 + b" HTTP/1.0\r\n\r\n", b"414"),
        # Lines of exactly 65,536 bytes with their CRLF are within the limit.
        (b"GET /" + b"a" * (65536 - 16) + b" HTTP/1.0\r\n\r\n", b"404"),
        (b"GET /info HTTP/1.0\r\nX: " + b"a" * (65536 - 5) + b"\r\n\r\n", b"200"),
        (b"GET /info HTTP/1.0\r\nX: " + b"a" * 65536 + b"\r\n\r\n", b"431"),
        # http.server counts the blank line that ends the head among its 100 lines.
        (b"GET /info HTTP/1.0\r\n" + b"X: a\r\n" * 99 + b"\r\n", b"200"),
        (b"GET /info HTTP/1.0\r\n" + b"X: a\r\n" * 100 + b"\r\n", b"431"),
        (b"GET /info HTTP/1.0\r\n" + b"X: a\r\n" * 101 + b"\r\n", b"431"),
        (b"GET /info\r\n", b"400"),
        (b"hello\r\n", b"400"),
        (b"GET /info HTTP/1.x\r\n\r\n", b"400"),
        # HTTP/ DIGIT . DIGIT (RFC 9112 section 2.3): any 1.x is served, another major version gets 505.
        (b"GET /info HTTP/2.0\r\n\r\n", b"505"),
        (b"GET /info HTTP/1.2\r\n\r\n", b"200"),
        (b"GET /info HTTP/3.0\r\n\r\n", b"505"),
        (b"GET /info HTTP/01.0\r\n\r\n", b"400"),
        (b"GET /info HTTP/1.10\r\n\r\n", b"400"),
        # One empty line before the request line is skipped (RFC 9112 section 2.2).
        (b"\r\nGET /info HTTP/1.0\r\n\r\n", b"200"),
        (b"\r\nGET /" + b"a" * 65536 + b" HTTP/1.0\r\n\r\n", b"414"),
        (b"GET //info HTTP/1.0\r\n\r\n", b"200"),
    ],
    ids=[
        "http-1.0", "http-1.1", "query", "bare-lf", "unknown-path", "absolute-form", "head", "post",
        "long-request-line", "request-line-65536", "header-65536", "long-header", "99-headers", "100-headers",
        "101-headers", "http-0.9", "hello", "http-1.x", "http-2.0", "http-1.2", "http-3.0", "http-01.0",
        "http-1.10", "leading-crlf", "leading-crlf-long-request-line", "double-slash",
    ],
)


def _resources_of(document: str) -> list[str]:
    root = ElementTree.fromstring(document)
    assert root.tag == "InfoRoot"
    block = root.find(f"{SPINE}/GeneralResources")
    assert block is not None, "GeneralResources element must always be present"
    return [resource.text or "" for resource in block.findall("Resource")]


class TestSiteConfig:
    def test_from_file_sample(self, site_config):
        assert site_config.manager_name == "slurm"
        assert site_config.service_id == "kebnekaise-ce"
        assert site_config.refresh_interval_seconds == 30.0

    def test_missing_required_key(self):
        with pytest.raises(BadConfig):
            SiteConfig.from_mapping({"admin_domain": "x", "manager_name": "slurm"})

    def test_unknown_key(self):
        with pytest.raises(BadConfig):
            SiteConfig.from_mapping(
                {"admin_domain": "x", "service_id": "y", "manager_name": "z", "color": "red"}
            )

    def test_bad_refresh_interval(self):
        base = {"admin_domain": "x", "service_id": "y", "manager_name": "z"}
        # nan would make the refresher spin; inf and values above
        # threading.TIMEOUT_MAX make select raise in the refresher.
        for value in ["soon", "0", "nan", "inf", "1e12"]:
            with pytest.raises(BadConfig):
                SiteConfig.from_mapping({**base, "refresh_interval_seconds": value})

    def test_bad_bind(self):
        for bind in [
            "no-port",
            "host:notaport",
            "127.0.0.1:70000",
            "127.0.0.1:-1",
            "127.0.0.1:٨٠٧٠",
            "127.0.0.1: 8_070",
            "127.0.0.1:" + "9" * 5000,
            "127.0.0.1:65536",
            ":8070",
        ]:
            with pytest.raises(BadConfig):
                split_bind(bind)
        assert split_bind("127.0.0.1:65535") == ("127.0.0.1", 65535)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "site.conf"
        path.write_text("admin_domain x\n")
        with pytest.raises(BadConfig):
            SiteConfig.from_file(path)
        with pytest.raises(BadConfig):
            SiteConfig.from_file(tmp_path / "missing.conf")
        path.write_text("admin_domain = x\ncolour = blue\n")
        with pytest.raises(BadConfig) as raised:
            SiteConfig.from_file(path)
        assert str(raised.value) == f"{path}:2: unknown key 'colour'"

    def test_bind_from_file(self, tmp_path):
        path = tmp_path / "site.conf"
        path.write_text("admin_domain = x\nservice_id = y\nmanager_name = z\nbind = 0.0.0.0:9\n")
        assert SiteConfig.from_file(path).bind == "0.0.0.0:9"


class TestBuildComputingService:
    def test_kebnekaise_record(self, kebnekaise_fixture, site_config):
        snapshot = collect_cluster_info(kebnekaise_fixture, now=0)
        record = build_computing_service(snapshot, site_config)
        assert record.service_id == "kebnekaise-ce"
        assert record.manager.manager_name == "slurm"
        assert list(record.manager.general_resources) == RESOURCE_LINES

    def test_empty_snapshot(self, site_config):
        record = build_computing_service(ClusterSnapshot("x", (), 0), site_config)
        assert record.manager.general_resources == ()

    def test_mapping_config_missing_service_id(self):
        snapshot = ClusterSnapshot("x", (), 0)
        with pytest.raises(BadConfig):
            build_computing_service(snapshot, {"admin_domain": "a", "manager_name": "slurm"})


class TestRenderXml:
    def test_kebnekaise_document(self, kebnekaise_fixture, site_config):
        snapshot = collect_cluster_info(kebnekaise_fixture, now=0)
        document = render_glue2_xml(build_computing_service(snapshot, site_config))
        assert _resources_of(document) == RESOURCE_LINES

    def test_empty_resources_element_still_emitted(self, site_config):
        record = build_computing_service(ClusterSnapshot("x", (), 0), site_config)
        document = render_glue2_xml(record)
        assert _resources_of(document) == []
        assert "<GeneralResources/>" in document

    def test_escaping_round_trips(self, site_config):
        snapshot = ClusterSnapshot("x", ("gpu&co:<a>:2", 'quote"mark:1'), 0)
        document = render_glue2_xml(build_computing_service(snapshot, site_config))
        assert "&amp;" in document and "&lt;a&gt;" in document
        assert _resources_of(document) == ["gpu&co:<a>:2", 'quote"mark:1']

    def test_ids_on_spine(self, site_config):
        record = build_computing_service(ClusterSnapshot("x", (), 0), site_config)
        root = ElementTree.fromstring(render_glue2_xml(record))
        assert root.find("Domains/AdminDomain").get("id") == "hpc2n.umu.se"
        assert root.find(f"{SPINE}").get("id") == "slurm"

    @pytest.mark.parametrize(
        "value, quoted",
        [
            ('say "hi"', "'say \"hi\"'"),
            ("it's", "\"it's\""),
            ("both \"' kinds", "\"both &quot;' kinds\""),
            ("a&b<c>", '"a&amp;b&lt;c&gt;"'),
            ("tab\there", '"tab&#9;here"'),
        ],
    )
    def test_id_attribute_quoting(self, value, quoted):
        record = ComputingServiceRecord(value, value, ComputingManagerRecord(value, ("gpu:1",)))
        document = render_glue2_xml(record)
        for tag in ("AdminDomain", "ComputingService", "ComputingManager"):
            assert f"<{tag} id={quoted}>" in document
        assert ElementTree.fromstring(document).find(SPINE).get("id") == value

    def test_invalid_record_rejected(self):
        record = ComputingServiceRecord("a", "", ComputingManagerRecord("slurm"))
        with pytest.raises(ValueError):
            render_glue2_xml(record)
        record = ComputingServiceRecord("a", "s", ComputingManagerRecord("slurm", ("",)))
        with pytest.raises(ValueError):
            render_glue2_xml(record)

    def test_control_characters_rejected_at_build_and_render(self, site_config):
        snapshot = ClusterSnapshot("c", ("gpu:1", "gpu:\x1f2"), 0)
        with pytest.raises(ValueError, match="control characters"):
            build_computing_service(snapshot, site_config)
        record = ComputingServiceRecord("a", "s", ComputingManagerRecord("slurm", ("gpu:1", "\tgpu")))
        with pytest.raises(ValueError, match="control characters"):
            render_glue2_xml(record)

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1,
                max_size=30,
            ),
            max_size=6,
        )
    )
    def test_documents_are_well_formed(self, resources):
        record = ComputingServiceRecord(
            "domain", "service", ComputingManagerRecord("slurm", tuple(resources))
        )
        document = render_glue2_xml(record)
        assert _resources_of(document) == resources


# ASCII, a Latin-1 letter and a character outside the Basic Multilingual Plane.
_ASCII_E_ACUTE_AND_ASTRAL = st.sampled_from([chr(code) for code in range(0x80)] + ["\u00e9", "\U0001d11e"])


@given(st.lists(st.text(alphabet=_ASCII_E_ACUTE_AND_ASTRAL, min_size=1, max_size=12), max_size=8))
@example(["gpu:1", "gpu\x7f"])
@example(["gpu:1", "gpu\x1f", "\x00"])
@example(["\U0001d11e:1", "\u00e9\x1f\U0001d11e"])
def test_manager_validate_rejects_exactly_control_characters(resources):
    record = ComputingManagerRecord("slurm", tuple(resources))
    offenders = [r for r in resources if any(ord(ch) < 0x20 for ch in r)]
    if not offenders:
        record.validate()
        return
    with pytest.raises(ValueError) as excinfo:
        record.validate()
    assert str(excinfo.value) == f"resource string contains control characters: {offenders[0]!r}"


def _reference_render(record):
    """The document as it was first rendered: one template line per resource."""
    record.validate()
    resources = record.manager.general_resources
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<InfoRoot>",
        "  <Domains>",
        f"    <AdminDomain id={saxutils.quoteattr(record.admin_domain)}>",
        "      <Services>",
        f"        <ComputingService id={saxutils.quoteattr(record.service_id)}>",
        f"          <ComputingManager id={saxutils.quoteattr(record.manager.manager_name)}>",
    ]
    if resources:
        lines.append("            <GeneralResources>")
        lines.extend(f"              <Resource>{saxutils.escape(resource)}</Resource>" for resource in resources)
        lines.append("            </GeneralResources>")
    else:
        lines.append("            <GeneralResources/>")
    lines += [
        "          </ComputingManager>",
        "        </ComputingService>",
        "      </Services>",
        "    </AdminDomain>",
        "  </Domains>",
        "</InfoRoot>",
        "",
    ]
    return "\n".join(lines)


_PRINTABLE_TEXT = st.text(alphabet=st.sampled_from(PRINTABLE_WIDE_CHARS), min_size=1, max_size=12)


@given(_PRINTABLE_TEXT, _PRINTABLE_TEXT, _PRINTABLE_TEXT, st.lists(_PRINTABLE_TEXT, max_size=8))
@example("d", "s", "m", ["a&b", "<c>", "\"'", "\u00e9\U0001d11e"])
def test_render_matches_per_resource_reference(domain, service, manager, resources):
    record = ComputingServiceRecord(domain, service, ComputingManagerRecord(manager, tuple(resources)))
    assert render_glue2_xml(record) == _reference_render(record)


@given(st.text(alphabet="\"'&<>\n\r\t\u00e9a "))
@example("both \"double\" and 'single' quotes")
@example("")
def test_escaping_matches_saxutils(text):
    # The standard library's functions are the oracle the renderer's own
    # copies must match byte for byte.
    assert _escape(text) == saxutils.escape(text)
    assert _quoteattr(text) == saxutils.quoteattr(text)


def test_pipeline_fidelity_random_fixtures():
    rng = random.Random(7)
    config = SiteConfig("dom", "svc", "slurm")
    for _ in range(50):
        fixture = random_fixture(rng)
        snapshot = collect_cluster_info(fixture)
        document = render_glue2_xml(build_computing_service(snapshot, config))
        assert _resources_of(document) == read_gres_info(fixture)


class TestServeInfo:
    def _config(self, site_config, **overrides):
        return site_config.replace(bind="127.0.0.1:0", **overrides)

    def test_get_info_matches_render(self, served):
        server, document = served
        with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
            assert response.status == 200
            assert response.headers.get("Content-Type") == "application/xml"
            assert response.read().decode("utf-8") == document

    def test_exec_source_serves_the_sample_document(self, kebnekaise_fixture, site_config, tmp_path):
        # A fake sinfo printing the sample listing stands in for the scheduler.
        source = partial(collect_from_sinfo, "kebnekaise", sinfo_path=fake_sinfo(tmp_path, SAMPLE_SINFO))
        expected = render_glue2_xml(build_computing_service(collect_cluster_info(kebnekaise_fixture), site_config))
        with serve_info(source, self._config(site_config)) as server:
            with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                assert response.read() == expected.encode("utf-8")

    def test_healthz(self, served):
        with urllib.request.urlopen(served[0].url + "/healthz", timeout=5) as response:
            assert response.status == 200
            assert response.read() == b"ok"

    def test_unknown_path_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served[0].url + "/nonexistent", timeout=5)
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_idle_connection_is_closed(self, served, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 0.5)
        server, document = served
        host, port = server.url.removeprefix("http://").rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as idle:
            start = time.monotonic()
            # End of stream: the server gave up on the silent client.
            assert idle.recv(1) == b""
            assert time.monotonic() - start < 4
        with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
            assert response.read().decode("utf-8") == document

    def test_exit_stops_every_thread_and_frees_the_port(self, kebnekaise_fixture, site_config):
        before = set(threading.enumerate())
        with serve_info(partial(collect_cluster_info, kebnekaise_fixture), self._config(site_config)) as server:
            with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                response.read()
            port = int(server.url.rsplit(":", 1)[1])
        assert set(threading.enumerate()) - before == set()
        # The served connection leaves the port in TIME_WAIT, hence SO_REUSEADDR.
        with socket.socket() as again:
            again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            again.bind(("127.0.0.1", port))
            again.listen(1)

    def test_idle_sockets_hold_at_most_the_pool(self, kebnekaise_fixture, site_config, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 0.5)
        backend = partial(collect_cluster_info, kebnekaise_fixture)
        before = threading.active_count()
        with serve_info(backend, self._config(site_config)) as server, contextlib.ExitStack() as idle:
            peak = before
            for _ in range(_httpd.WORKERS + 4):
                idle.enter_context(socket.create_connection(server.server_address[:2], timeout=5))
                time.sleep(0.01)  # room for a worker to accept before the threads are counted
                peak = max(peak, threading.active_count())
            # The workers and the refresher, and no thread per connection.
            assert peak - before <= _httpd.WORKERS + 1
            # The first idle sockets time out, the rest follow, then the GET is served.
            with urllib.request.urlopen(server.url + "/info", timeout=10) as response:
                body = response.read()
        expected = render_glue2_xml(build_computing_service(backend(), site_config))
        assert body.decode("utf-8") == expected

    def test_drip_client_is_cut_off_at_the_deadline(self, served, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 0.5)
        with socket.create_connection(served[0].server_address[:2], timeout=5) as drip:
            start = time.monotonic()
            drip.sendall(b"GET /info HTTP/1.0\r\nX-Drip: ")
            try:
                # One header byte every 0.2 s, each well inside the deadline.
                while not select.select([drip], [], [], 0.2)[0]:
                    assert time.monotonic() - start < 3, "a dripping client is never cut off"
                    drip.send(b"a")
                assert drip.recv(1) == b""
            except ConnectionResetError:  # the server closed with the drip unread
                pass
            assert time.monotonic() - start < 0.5 + 0.5

    def test_stop_twice_is_quiet_and_frees_the_port(self, kebnekaise_fixture, site_config, capfd):
        before = set(threading.enumerate())
        with serve_info(partial(collect_cluster_info, kebnekaise_fixture), self._config(site_config)) as server:
            port = server.server_address[1]
            server.stop()
        server.stop()  # the third time, after the exit's
        assert set(threading.enumerate()) - before == set()
        assert capfd.readouterr().err == ""
        # No connection was served, so none sits in TIME_WAIT: a bind without SO_REUSEADDR succeeds.
        with socket.socket() as again:
            again.bind(("127.0.0.1", port))
            again.listen(1)

    def test_fault_in_an_answer_is_reported_and_the_workers_serve_on(self, served, monkeypatch, capfd):
        answer = _httpd.InfoServer._answer
        faults = [RuntimeError("injected answer fault")]

        def answer_or_fail_once(server, *args):
            if faults:
                raise faults.pop()
            return answer(server, *args)

        monkeypatch.setattr(_httpd.InfoServer, "_answer", answer_or_fail_once)
        server = served[0]
        threads = threading.active_count()
        with socket.create_connection(server.server_address[:2], timeout=5) as client:
            client.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            try:
                assert client.recv(1) == b""  # closed with no answer
            except ConnectionResetError:
                pass
        assert faults == []
        for _ in range(5):
            with urllib.request.urlopen(server.url + "/healthz", timeout=5) as response:
                assert response.read() == b"ok"
        assert threading.active_count() == threads  # no worker died of the fault
        server.stop()  # joins the worker that reports the fault
        err = capfd.readouterr().err
        assert "Traceback (most recent call last):" in err
        assert "RuntimeError: injected answer fault" in err
        assert "Exception in thread" not in err  # reported by the worker, not by a dying thread

    def test_stop_is_prompt_while_every_worker_waits_for_a_connection(self, kebnekaise_fixture, site_config):
        server = serve_info(partial(collect_cluster_info, kebnekaise_fixture), self._config(site_config))
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as response:
            assert response.read() == b"ok"
        time.sleep(0.1)  # the worker that answered waits again
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1

    def test_late_request_and_unread_response_share_one_deadline(self, site_config, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 1.0)
        # About 10 MB, far more than the socket buffers of a client that does
        # not read, so the response blocks until the deadline cuts it off.
        gres = tuple(f"gpu:model{i}:2" for i in range(200_000))
        server = serve_info(lambda: ClusterSnapshot("big", gres, 0), self._config(site_config))
        with socket.socket() as client:
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            client.connect(server.server_address[:2])
            start = time.monotonic()
            try:
                time.sleep(0.7)  # most of the deadline passes before the request is sent
                client.sendall(b"GET /info HTTP/1.0\r\n\r\n")
            finally:
                server.stop()  # joins the worker that writes to the client
            # The write gets only the 0.3 s left, not a fresh second.
            assert time.monotonic() - start < 1.0 + 0.4

    def test_reset_clients_leave_stderr_empty(self, site_config, capfd):
        # A document of about 5 MB, far more than the socket buffers of a
        # client that does not read, so each reset meets the server mid-write.
        gres = tuple(f"gpu:model{i}:2" for i in range(100_000))
        with serve_info(lambda: ClusterSnapshot("big", gres, 0), self._config(site_config)) as server:
            for _ in range(3):
                with socket.create_connection(server.server_address[:2], timeout=5) as client:
                    client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                    client.sendall(b"GET /info HTTP/1.0\r\n\r\n")
                    assert client.recv(1) == b"H"  # the response has begun; close with a reset
        # stop() has joined every worker, so each reset has been handled.
        assert capfd.readouterr().err == ""

    def test_connect_burst_is_not_dropped(self, served, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 0.5)
        with contextlib.ExitStack() as held:
            # The workers each hold an idle socket, so the rest wait in the listen
            # backlog; a connect whose SYN overflowed it is retried only after 1 s.
            for _ in range(12):
                start = time.monotonic()
                held.enter_context(socket.create_connection(served[0].server_address[:2], timeout=5))
                assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("request_bytes, status", **REQUEST_EDGE_CASES)
    def test_request_edge_cases(self, request_bytes, status, served, monkeypatch):
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 1.0)
        with socket.create_connection(served[0].server_address[:2], timeout=5) as client:
            start = time.monotonic()
            client.sendall(request_bytes)
            answer = b""
            try:
                while chunk := client.recv(65536):
                    answer += chunk
            except ConnectionResetError:  # closed with the rest of a refused request unread
                pass
            elapsed = time.monotonic() - start
        status_line, *header_lines = answer.partition(b"\r\n\r\n")[0].split(b"\r\n")
        assert status_line.split(b" ", 2)[:2] == [b"HTTP/1.0", status], answer[:200]
        names = {line.partition(b":")[0].lower() for line in header_lines}
        assert {b"date", b"content-type", b"content-length"} <= names
        assert any(re.fullmatch(_IMF_FIXDATE, line) for line in header_lines), header_lines
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "head_start, status",
        [
            (b"GET /info HTTP/2.0\r\n", b"505"),
            (b"hello\r\n", b"400"),
            (b"GET /" + b"a" * (65537 - 16) + b" HTTP/1.0\r\n", b"414"),
            (b"GET /info HTTP/1.0\r\nX: " + b"a" * (65537 - 5) + b"\r\n", b"431"),
        ],
        ids=["http-2.0", "hello", "request-line-65537", "header-65537"],
    )
    def test_bad_head_start_is_answered_while_the_headers_drip(self, head_start, status, served, monkeypatch):
        # The request line, and a header line over the limit, are answered as read: not at the deadline.
        monkeypatch.setattr(infoprovider, "HANDLER_TIMEOUT_SECONDS", 3.0)
        with socket.create_connection(served[0].server_address[:2], timeout=5) as client:
            start = time.monotonic()
            client.sendall(head_start)
            answer = b""
            try:
                for byte in b"X-Drip: " + b"a" * 40:  # one byte every 0.1 s until the answer comes
                    if select.select([client], [], [], 0.1)[0]:
                        break
                    client.send(bytes([byte]))
                while chunk := client.recv(65536):
                    answer += chunk
            except ConnectionResetError:  # closed with the drip unread
                pass
            elapsed = time.monotonic() - start
        assert answer.startswith(b"HTTP/1.0 " + status + b" "), answer[:200]
        assert elapsed < 1.0

    def test_a_client_that_sends_nothing_gets_nothing(self, served):
        with socket.create_connection(served[0].server_address[:2], timeout=5) as client:
            client.shutdown(socket.SHUT_WR)
            assert client.recv(65536) == b""

    def test_answer_is_decided_from_the_lines_read_and_a_given_time(self, served, monkeypatch):
        server, document = served
        now = 784111777  # the example date of RFC 9110 section 5.6.7

        def head(status: HTTPStatus, content_type: str, body: bytes) -> bytes:
            return (
                f"HTTP/1.0 {status.value} {status.phrase}\r\nDate: Sun, 06 Nov 1994 08:49:37 GMT\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")

        def no_clock():
            raise AssertionError("the answer read the clock")

        monkeypatch.setattr(time, "time", no_clock)
        for case, (request_bytes, status) in zip(REQUEST_EDGE_CASES["ids"], REQUEST_EDGE_CASES["argvalues"]):
            if case.startswith("leading-crlf"):  # the empty line before a request line is skipped by the reader, not here
                continue
            stream = io.BytesIO(request_bytes)  # read as the workers read a connection
            lines = [stream.readline(MAX_LINE_BYTES + 1)]
            while (answer := server._answer(lines, now)) is None:
                lines.append(stream.readline(MAX_LINE_BYTES + 1))
            code = HTTPStatus(int(status))
            if code == HTTPStatus.OK:
                content_type, body = "application/xml", document.encode("utf-8")
            else:
                content_type, body = "text/plain", code.phrase.encode("ascii")
            assert answer == (head(code, content_type, body), body), case
            assert code != HTTPStatus.OK or answer[1] is server.document, case  # the served bytes themselves
            # A bad request line is answered from that line alone.
            assert (len(lines) == 1) == (code in (400, 414, 505)), case
        healthz = [b"GET /healthz HTTP/1.0\r\n", b"\r\n"]
        assert server._answer(healthz, now) == (head(HTTPStatus.OK, "text/plain", b"ok"), b"ok")
        assert server._answer(healthz[:1], now) is None
        assert server._answer([b"hello\r\n"], now)[0].startswith(b"HTTP/1.0 400 Bad Request\r\n")
        # An empty first line is no head that ended, even at the end of the stream.
        assert head_ended([b""]) is False

    def test_bind_failure(self, kebnekaise_fixture, site_config):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = site_config.replace(bind=f"127.0.0.1:{port}")
            with pytest.raises(BindFailure):
                serve_info(partial(collect_cluster_info, kebnekaise_fixture), config)
        finally:
            blocker.close()

    def test_first_render_failure_is_raised_and_leaves_the_port_free(self, site_config):
        def source():
            raise RuntimeError("no first snapshot")

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = site_config.replace(bind=f"127.0.0.1:{port}")
        # Holding the traceback keeps a half-started server alive, so a socket
        # left open is not closed by garbage collection before the re-bind.
        with pytest.raises(RuntimeError) as raised:
            serve_info(source, config)
        with socket.socket() as again:
            again.bind(("127.0.0.1", port))
            again.listen(1)
        assert "no first snapshot" in str(raised.value)

    def test_concurrent_fetches_during_refresh(self, site_config):
        counter = itertools.count()

        def source():
            n = next(counter)
            gres = tuple(f"gpu:model{n}:{i + 1}" for i in range(1 + n % 3))
            return ClusterSnapshot("varying", gres, n)

        config = self._config(site_config, refresh_interval_seconds=0.02)
        errors = []
        with serve_info(source, config) as server:
            def fetch_many():
                for _ in range(25):
                    try:
                        with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                            body = response.read().decode("utf-8")
                        resources = _resources_of(body)
                        models = {value.split(":")[1] for value in resources}
                        assert len(models) == 1, f"torn document: {resources}"
                    except Exception as exc:  # noqa: BLE001 (collected for the assert)
                        errors.append(exc)

            threads = [threading.Thread(target=fetch_many) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_refresh_renders_only_when_gres_change(self, site_config, monkeypatch):
        model = ["k80"]
        collected_at = []
        renders = []
        render = infoprovider.render_glue2_xml

        def counting_render(record):
            renders.append(record.manager.general_resources)
            return render(record)

        def source():
            # A fresh tuple of fresh strings on every call, and a new
            # collection time: only the content decides.
            collected_at.append(len(collected_at))
            return ClusterSnapshot("counted", (f"gpu:{model[0]}:2", "hbm:16G"), collected_at[-1])

        def wait_for(condition):
            deadline = time.monotonic() + 5
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert condition()

        monkeypatch.setattr(infoprovider, "render_glue2_xml", counting_render)
        config = self._config(site_config, refresh_interval_seconds=0.005)
        with serve_info(source, config) as server:
            with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                first = response.read()
            wait_for(lambda: len(collected_at) > 20)
            assert renders == [("gpu:k80:2", "hbm:16G")]
            model[0] = "v100"
            wait_for(lambda: len(renders) == 2)
            with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                second = response.read()
        assert renders == [("gpu:k80:2", "hbm:16G"), ("gpu:v100:2", "hbm:16G")]
        assert first == render(build_computing_service(ClusterSnapshot("c", renders[0], 0), site_config)).encode()
        assert second == render(build_computing_service(ClusterSnapshot("c", renders[1], 0), site_config)).encode()

    def test_refresh_survives_collection_failure(self, site_config, caplog):
        flips = itertools.count()

        def source():
            if next(flips) % 2 == 1:
                raise RuntimeError("collection hiccup")
            return ClusterSnapshot("flaky", ("gpu:1",), 0)

        def failures():
            return [
                record
                for record in caplog.records
                if record.name == "grespipe.infoprovider" and record.levelno == logging.WARNING
            ]

        config = self._config(site_config, refresh_interval_seconds=0.01)
        with serve_info(source, config) as server:
            for _ in range(5):
                with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                    assert _resources_of(response.read().decode("utf-8")) == ["gpu:1"]
            deadline = time.monotonic() + 5
            while not failures() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert failures(), "a failed refresh was not logged"
        assert "collection hiccup" in failures()[0].getMessage()
