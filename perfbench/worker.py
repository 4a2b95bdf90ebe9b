"""A fresh process doing one workload's program work, for its peak RSS.

The benchmark starts this once per run, after the measured window, and
reads the process's peak resident set from ``wait4``.  It makes the same
calls as the in-process workload (``workloads.py``), without the checks,
on the files that workload generated::

    PYTHONPATH=src python3 perfbench/worker.py refresh FIXTURE...
    PYTHONPATH=src python3 perfbench/worker.py submit RTE_DIR SPOOL_DIR DOC JOB...
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads
from grespipe import data, infoprovider, lrms

REFRESH_ROUNDS = 2  # each fixture refreshed this many times
SUBMIT_JOBS = 16


def main(argv: list[str]) -> int:
    kind, *args = argv
    if kind == "refresh":
        site = infoprovider.SiteConfig.from_file(data.SITE_CONF)
        fixtures = [lrms.load_fixture(Path(path)) for path in args]
        for _ in range(REFRESH_ROUNDS):
            for fixture in fixtures:
                workloads.refresh_and_report(fixture, site)
    elif kind == "submit":
        rte_dir, spool, doc, *jobs = map(Path, args)
        for job in jobs[:SUBMIT_JOBS]:
            workloads.arcsub(workloads.submit_argv(job, rte_dir, spool, doc))
    else:
        print(f"worker.py: unknown workload {kind!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
