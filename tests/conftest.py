"""Shared constants, fixtures and generators for the test suite."""

from __future__ import annotations

import contextlib
import os
import random
import socket
import string
import sys
import threading
import time
from pathlib import Path

import pytest

import grespipe
from grespipe import data
from grespipe.infoprovider import SiteConfig
from grespipe.lrms import ClusterFixture, NodeClass, load_fixture

# The six node-class GRES lines of the emulated cluster, in fixture order.
SINFO_BARE_LINES = [
    "(null)",
    "gpu:k80ce:4,mps:no_consume:1,gpuexcl:no_consume:1",
    "gpu:k80ce:8,mps:no_consume:1,gpuexcl:no_consume:1",
    "gpu:v100:2,mps:no_consume:1,gpuexcl:no_consume:1",
    "hbm:16G",
    "hbm:0",
]
RESOURCE_LINES = [line for line in SINFO_BARE_LINES if line != "(null)"]
PREFIXED_LINES = [f"gresinfo={line}" for line in SINFO_BARE_LINES]

TOKEN_CHARS = string.ascii_lowercase + string.digits + "_-."
ESCAPABLE_CHARS = "&<>\"'"
# Printable ASCII, which includes ``& < > " '``, plus a Latin-1 letter and a
# character outside the Basic Multilingual Plane: the characters a
# whole-string rewrite of the renderer or the report must carry unchanged.
PRINTABLE_WIDE_CHARS = [chr(code) for code in range(32, 127)] + ["\u00e9", "\U0001d11e"]


def child_env() -> dict[str, str]:
    """Environment for a Python child that imports the same grespipe as this
    suite, installed or not."""
    src = str(Path(grespipe.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


@contextlib.contextmanager
def answer_once(reply: bytes, drip: bytes = b"", host: str = "127.0.0.1"):
    """Yield the port of a listener on ``host`` that answers one request with ``reply``,
    then sends ``drip`` one byte every 0.3 s until it is sent or the client hangs up."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.create_server((host, 0), family=family) as listener:

        def answer():
            conn, _addr = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(reply)
                for byte in drip:
                    time.sleep(0.3)
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:  # the client hung up
                        break

        server = threading.Thread(target=answer, daemon=True)
        server.start()
        yield listener.getsockname()[1]
        server.join(timeout=5)
    assert not server.is_alive()


@pytest.fixture
def int_digits_limit():
    """Pin the interpreter's int-from-string digit limit to CPython's default
    (``PYTHONINTMAXSTRDIGITS`` may lift it) for one test, and return it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts digit strings of any length")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.fixture
def kebnekaise_fixture() -> ClusterFixture:
    return load_fixture(data.KEBNEKAISE_FIXTURE)


@pytest.fixture
def site_config() -> SiteConfig:
    return SiteConfig.from_file(data.SITE_CONF)


def random_token(rng: random.Random, alphabet: str = TOKEN_CHARS) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))


def random_count_literal(rng: random.Random) -> str:
    # Canonical digits (no leading zeros) plus an optional binary suffix.
    return str(rng.randint(0, 99999)) + rng.choice(["", "K", "M", "G", "T", "P"])


def random_gres_segment(rng: random.Random, alphabet: str = TOKEN_CHARS) -> str:
    name = random_token(rng, alphabet)
    form = rng.randint(0, 3)
    if form == 0:
        return name
    if form == 1:
        return f"{name}:{random_token(rng, alphabet)}"
    if form == 2:
        return f"{name}:{random_count_literal(rng)}"
    return f"{name}:{random_token(rng, alphabet)}:{random_count_literal(rng)}"


def random_gres_line(rng: random.Random, alphabet: str = TOKEN_CHARS) -> str:
    return ",".join(random_gres_segment(rng, alphabet) for _ in range(rng.randint(1, 4)))


def random_fixture(
    rng: random.Random,
    null_fraction: float | None = None,
    escapable: bool = False,
) -> ClusterFixture:
    """A valid random fixture; ``null_fraction`` steers how many node classes
    advertise nothing (``(null)``), and ``escapable`` mixes XML-significant
    characters into the resource tokens.
    """
    if null_fraction is None:
        null_fraction = rng.random()
    alphabet = TOKEN_CHARS + (ESCAPABLE_CHARS if escapable else "")
    classes = []
    for index in range(rng.randint(1, 8)):
        if rng.random() < null_fraction:
            line = "(null)"
        else:
            line = random_gres_line(rng, alphabet)
            if rng.random() < 0.1:
                # A line merely containing the null marker is also dropped.
                line = f"{random_token(rng)}(null){random_token(rng)}:{random_count_literal(rng)}"
        classes.append(NodeClass(f"part{index}", rng.randint(1, 100), line))
    return ClusterFixture("random-cluster", tuple(classes))


def brute_force_match(
    request: list[tuple[str, str | None, int]],
    classes: list[list[tuple[str, str | None, int]]],
) -> bool:
    """Exhaustive matchmaking oracle over raw (name, subtype, count) tuples:
    some single class must satisfy every requested entry.
    """
    if not request:
        return True
    for node_class in classes:
        satisfied_all = True
        for want_name, want_subtype, want_count in request:
            entry_found = False
            for have_name, have_subtype, have_count in node_class:
                if have_name != want_name:
                    continue
                if want_subtype is not None and have_subtype != want_subtype:
                    continue
                if have_count < want_count:
                    continue
                entry_found = True
                break
            if not entry_found:
                satisfied_all = False
                break
        if satisfied_all:
            return True
    return False
