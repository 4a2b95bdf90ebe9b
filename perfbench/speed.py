"""Machine speed references for normalising timings.

The shared machines this benchmark runs on change speed by a third or more
from one minute to the next (turbo and neighbours' load), far more than
the changes the benchmark must detect.  So the benchmark times a fixed
reference task, which shares no code with grespipe, right before every
block of operations and before and after every set-up, and scales the
run's timings by its mean reading, to a machine on which the reference
takes its nominal time.  A change to grespipe moves the scaled
numbers; a change in machine speed moves both timings alike and largely
cancels.  Raw timings are reported beside the scaled ones.

There are two reference tasks, one per kind of work: a piece of in-process
Python work (:func:`reference_ms`), and starting an interpreter that
imports the standard modules grespipe uses (:func:`startup_ms`), for
workloads that start a process per operation.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

NOMINAL_MS = 10.0
NOMINAL_START_MS = 150.0
REPS = 3
STDLIB_IMPORTS = "import argparse, dataclasses, hashlib, http.server, shlex, urllib.request, xml.etree.ElementTree"
_COUNT_RE = re.compile(r"[0-9]+[KMGTP]?\Z")


def reference_work(lines: int = 1500) -> int:
    """Format, split, match, tally and join GRES-like lines: the same kinds
    of string, regex, dict and allocation work the pipeline does."""
    tally: dict[str, int] = {}
    rows = []
    for i in range(lines):
        line = f"part{i}|{i % 100}|gpu{i % 37}:k{i % 11}:{i % 9}K,mps:no_consume:{i % 3},hbm:{i}G"
        _partition, _count, gres = line.split("|")
        for segment in gres.split(","):
            fields = segment.split(":")
            if _COUNT_RE.fullmatch(fields[-1]):
                tally[fields[0]] = tally.get(fields[0], 0) + int(fields[-1].rstrip("KMGTP"))
        rows.append(f"      <Resource>{gres}</Resource>")
    return len("\n".join(rows)) + len(tally)


def reference_ms() -> float:
    """Median wall time of ``REPS`` runs of the reference work, in ms."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        reference_work()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def startup_ms(env: dict[str, str]) -> float:
    """Wall time of one interpreter start that imports ``STDLIB_IMPORTS``, in ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STDLIB_IMPORTS], env=env, check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def scale(seconds: float, ref_ms: float, nominal_ms: float = NOMINAL_MS) -> float:
    """``seconds`` measured where the reference took ``ref_ms``, scaled to
    a machine where it takes ``nominal_ms``."""
    return seconds * nominal_ms / ref_ms
