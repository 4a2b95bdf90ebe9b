"""Tests for record building, XML rendering and the info endpoint."""

import dataclasses
import itertools
import random
import socket
import threading
import urllib.request
from xml.etree import ElementTree

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grespipe.infoprovider import (
    BadConfig,
    BindFailure,
    ComputingManagerRecord,
    ComputingServiceRecord,
    SiteConfig,
    build_computing_service,
    render_glue2_xml,
    serve_info,
    split_bind,
)
from grespipe.lrms import ClusterSnapshot, SlurmFixtureBackend, collect_cluster_info, read_gres_info

from conftest import RESOURCE_LINES, random_fixture

SPINE = "Domains/AdminDomain/Services/ComputingService/ComputingManager"


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
        with pytest.raises(BadConfig):
            SiteConfig.from_mapping({**base, "refresh_interval_seconds": "soon"})
        with pytest.raises(BadConfig):
            SiteConfig.from_mapping({**base, "refresh_interval_seconds": "0"})

    def test_bad_bind(self):
        with pytest.raises(BadConfig):
            split_bind("no-port")
        with pytest.raises(BadConfig):
            split_bind("host:notaport")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "site.conf"
        path.write_text("admin_domain x\n")
        with pytest.raises(BadConfig):
            SiteConfig.from_file(path)
        with pytest.raises(BadConfig):
            SiteConfig.from_file(tmp_path / "missing.conf")


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
        return dataclasses.replace(site_config, bind="127.0.0.1:0", **overrides)

    def test_get_info_matches_render(self, kebnekaise_fixture, site_config):
        backend = SlurmFixtureBackend(kebnekaise_fixture)
        with serve_info(backend, self._config(site_config)) as server:
            with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                assert response.status == 200
                assert response.headers.get("Content-Type") == "application/xml"
                body = response.read()
        expected = render_glue2_xml(build_computing_service(backend.collect(), site_config))
        assert body.decode("utf-8") == expected

    def test_healthz(self, kebnekaise_fixture, site_config):
        with serve_info(SlurmFixtureBackend(kebnekaise_fixture), self._config(site_config)) as server:
            with urllib.request.urlopen(server.url + "/healthz", timeout=5) as response:
                assert response.status == 200
                assert response.read() == b"ok"

    def test_unknown_path_is_404(self, kebnekaise_fixture, site_config):
        with serve_info(SlurmFixtureBackend(kebnekaise_fixture), self._config(site_config)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/nonexistent", timeout=5)
            assert excinfo.value.code == 404

    def test_bind_failure(self, kebnekaise_fixture, site_config):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = dataclasses.replace(site_config, bind=f"127.0.0.1:{port}")
            with pytest.raises(BindFailure):
                serve_info(SlurmFixtureBackend(kebnekaise_fixture), config)
        finally:
            blocker.close()

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

    def test_refresh_survives_collection_failure(self, site_config):
        flips = itertools.count()

        def source():
            if next(flips) % 2 == 1:
                raise RuntimeError("collection hiccup")
            return ClusterSnapshot("flaky", ("gpu:1",), 0)

        config = self._config(site_config, refresh_interval_seconds=0.01)
        with serve_info(source, config) as server:
            for _ in range(5):
                with urllib.request.urlopen(server.url + "/info", timeout=5) as response:
                    assert _resources_of(response.read().decode("utf-8")) == ["gpu:1"]
