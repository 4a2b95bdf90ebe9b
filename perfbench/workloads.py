"""The four benchmark workloads, each driving grespipe only through its
public functions or its command line.

Every call into the package goes through a module attribute
(``lrms.collect_cluster_info(...)``), never a name bound at import, so that
the tracer in ``spans.py`` can wrap it.

Closed loops throughout: a caller sends its next operation only after the
previous one completed.  ``refresh-10k``, ``submit-10k`` and ``cli-sample``
have one caller; ``poll-10k`` has two (the machine's core count), and never
more, so the benchmark itself cannot crowd the machine.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
PINNED_NOW = "1754700000"
SERVER_START_TIMEOUT = 60.0
CHILD_TIMEOUT = 60.0
POLL_CALLERS = 2
BLOCK_OPS = 1_000_000  # span op ids of block b start at 1 + b * BLOCK_OPS

# Imported by run.py once ``SRC`` is on the path.
from grespipe import cli, client, data, infoprovider, lrms  # noqa: E402


def child_env() -> dict[str, str]:
    """Environment for grespipe subprocesses: the checkout's sources, no
    inherited ``GRESPIPE_*`` settings, the clock pinned."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("GRESPIPE_")}
    env["PYTHONPATH"] = str(SRC)
    env["GRESPIPE_NOW"] = PINNED_NOW
    return env


def render_document(fixture_path: Path, site) -> tuple[object, object, str]:
    """Load, collect, build and render in-process: ``(fixture, snapshot, xml)``."""
    fixture = lrms.load_fixture(fixture_path)
    snapshot = lrms.collect_cluster_info(fixture)
    record = infoprovider.build_computing_service(snapshot, site)
    return fixture, snapshot, infoprovider.render_glue2_xml(record)


def refresh_and_report(fixture, site):
    """One refresh (collect, build, render), then one report (parse,
    format) of the document it produced.  Returns the two parts' times in
    seconds and every intermediate output."""
    clock = time.perf_counter
    t0 = clock()
    snapshot = lrms.collect_cluster_info(fixture)
    record = infoprovider.build_computing_service(snapshot, site)
    document = infoprovider.render_glue2_xml(record)
    t1 = clock()
    records = client.parse_execution_targets(document)
    report = client.format_arcinfo(records)
    t2 = clock()
    return {"refresh": t1 - t0, "report": t2 - t1}, snapshot, document, records, report


def submit_argv(job: Path, rte_dir: Path, spool: Path, doc: Path) -> list[str]:
    return ["arcsub", str(job), "--rte-dir", str(rte_dir), "--spool-dir", str(spool), "--match", str(doc)]


def arcsub(argv: list[str]) -> tuple[float, int, str]:
    """``grespipe arcsub`` through ``cli.main``: seconds, exit code, stdout."""
    out = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        code = cli.main(argv)
        t1 = clock()
    return t1 - t0, code, out.getvalue()


def run_child(args: list[str], env: dict[str, str], cwd: Path) -> tuple[int, bytes, int]:
    """Run ``python <args>`` to completion: exit code, standard output and
    the child's own peak RSS in kB, from ``wait4`` (so it counts neither
    this process nor any other child).  Standard error goes to
    ``cwd/child.err``."""
    with open(cwd / "child.err", "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=cwd, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss


class Samples:
    """Per-op timings (seconds) of one measured window, and the readings
    of the speed reference taken before each block of it."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.refs_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall = 0.0
        self.gc_gen2 = 0

    def add(self, parts: dict[str, float] | None, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error and len(self.errors) < 5:
                self.errors.append(error)
        if parts:
            self.latency.append(sum(parts.values()))
            for name, seconds in parts.items():
                self.parts.setdefault(name, []).append(seconds)

    def add_block(self, block: "Samples", ref_ms: float) -> None:
        self.merge(block)
        self.refs_ms.append(ref_ms)
        self.wall += block.wall

    def merge(self, other: "Samples") -> None:
        self.latency += other.latency
        self.refs_ms += other.refs_ms
        for name, values in other.parts.items():
            self.parts.setdefault(name, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]


def run_ops(op, seconds: float, tracer=None, first_op: int = 1, stride: int = 1, first_index: int = 0) -> Samples:
    """Closed loop: call ``op(first_index + i)`` until ``seconds`` have passed."""
    samples = Samples()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    i = 0
    while clock() < deadline:
        if tracer is not None:
            tracer.begin_op(first_op + i * stride)
        try:
            parts, ok = op(first_index + i)
            samples.add(parts, ok, None if ok else f"op {i}: wrong output")
        except Exception as exc:  # a failed op is counted, not fatal
            samples.add(None, False, f"op {i}: {type(exc).__name__}: {exc}")
        i += 1
    samples.wall = clock() - start
    return samples


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts from now on, on one CPU.

    On small shared virtual machines the hypervisor steals far more time
    once every virtual CPU is busy; a client and server spread over two
    CPUs then swing by a factor of two from run to run, while on one CPU,
    taking turns, they do not.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Server:
    """``grespipe infoprovider --serve`` in a subprocess on an ephemeral
    port, sharing one CPU with the benchmark process that polls it."""

    def __init__(self, fixture: Path, workdir: Path):
        pin_to_one_cpu()
        self.stderr_path = workdir / f"server-{time.monotonic_ns()}.err"
        self._stderr = self.stderr_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "grespipe", "infoprovider", "--serve",
             "--fixture", str(fixture), "--bind", "127.0.0.1:0", "--refresh", "1"],
            stdout=subprocess.PIPE, stderr=self._stderr, stdin=subprocess.DEVNULL,
            cwd=workdir, env=child_env(), text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT)
            line = self.proc.stdout.readline().strip() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r} {self.stderr_path.read_text()!r}")
            self.url = line.removeprefix("serving on ") + "/info"
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from ``/proc/<pid>/stat``."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    @contextlib.contextmanager
    def paused(self):
        """Hold the server stopped (SIGSTOP) for the ``with`` block, so that
        its refresher cannot take CPU from what the block measures."""
        self.proc.send_signal(signal.SIGSTOP)
        try:
            yield
        finally:
            self.proc.send_signal(signal.SIGCONT)

    def status(self, key: str) -> int:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        raise KeyError(key)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def serve_and_poll(server: Server, expected: str, seconds: float, callers: int, tracer=None, first_op: int = 1):
    """Closed-loop GETs of ``/info`` from ``callers`` threads while the main
    thread samples the server's thread count.  Returns the samples plus the
    server's CPU seconds and peak thread count over the window."""

    def fetch(_i):
        start = time.perf_counter()
        body = client.fetch_info(server.url)
        elapsed = time.perf_counter() - start
        return {"get": elapsed}, body == expected

    per_caller = [Samples() for _ in range(callers)]

    def caller(index: int) -> None:
        per_caller[index] = run_ops(fetch, seconds, tracer, first_op + index, stride=callers)

    threads = [threading.Thread(target=caller, args=(index,), daemon=True) for index in range(callers)]
    cpu_before = server.cpu_seconds()
    threads_peak = server.status("Threads")
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        threads_peak = max(threads_peak, server.status("Threads"))
        time.sleep(0.02)
    wall = time.perf_counter() - start
    for thread in threads:
        thread.join(timeout=30)
    cpu = server.cpu_seconds() - cpu_before
    samples = Samples()
    for part in per_caller:
        samples.merge(part)
    samples.wall = wall
    return samples, cpu, threads_peak


class Workload:
    """One benchmark workload.  ``prepare`` generates the seed's inputs in
    ``workdir``; ``setup`` does the program's set-up work on them (loading,
    rendering, starting a server) and warms up; ``measure`` runs the closed
    loop; ``teardown`` stops what setup started; ``peak_rss_kb`` is the
    peak RSS of the process doing the work.  ``probe_inputs`` names the
    files a layer probe uses at this workload's scale."""

    name = ""
    n_fixtures = 1
    op_unit = "op"
    block_seconds = 1.0  # operations between two readings of the speed reference
    nominal_ms = speed.NOMINAL_MS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.site = infoprovider.SiteConfig.from_file(data.SITE_CONF)
        self.stats: dict = {}

    def prepare(self) -> None:
        clusters, rtes, jobs = gen.generate(self.seed, n_fixtures=self.n_fixtures)
        self.inputs = self.workdir / "inputs"
        self.paths = gen.write_inputs(self.inputs, clusters, rtes, jobs)
        self.clusters, self.jobs = clusters, jobs
        self.stats = gen.stats(clusters, jobs)
        self.stats["null_dropped"] = clusters[0].classes - len(clusters[0].advertised)

    def setup(self) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        raise NotImplementedError

    def worker_rss_kb(self, args: list[str]) -> int:
        """Peak RSS of a fresh ``worker.py`` process doing this workload's
        program work on the generated files."""
        code, _out, rss_kb = run_child([str(HERE / "worker.py"), *args], child_env(), self.workdir)
        if code != 0:
            raise RuntimeError(f"worker.py failed: {(self.workdir / 'child.err').read_text()!r}")
        return rss_kb

    def op(self, i: int) -> tuple[dict[str, float], bool]:
        raise NotImplementedError

    def reference_ms(self) -> float:
        """The machine speed reference that suits this workload's work."""
        return speed.reference_ms()

    def measure(self, seconds: float, tracer=None) -> Samples:
        """Run operations for ``seconds`` in blocks, reading the speed
        reference before each block."""
        samples = Samples()
        deadline = time.perf_counter() + seconds
        block = 0
        while (left := deadline - time.perf_counter()) > 0:
            ref_ms = self.reference_ms()
            gen2 = gc.get_stats()[2]["collections"]
            ops = self.run_block(min(self.block_seconds, left), tracer, 1 + block * BLOCK_OPS, samples.attempted)
            samples.gc_gen2 += gc.get_stats()[2]["collections"] - gen2
            samples.add_block(ops, ref_ms)
            block += 1
        return samples

    def run_block(self, seconds: float, tracer, first_op: int, first_index: int) -> Samples:
        return run_ops(self.op, seconds, tracer, first_op, first_index=first_index)

    def teardown(self) -> None:
        pass

    def probe_inputs(self) -> dict[str, Path]:
        return {
            "fixture": self.paths["fixtures"][0],
            "rte_dir": self.paths["rte_dir"],
            "job": self.paths["job_dir"] / next(job["name"] for job in self.jobs if job["matches"]),
        }


class Refresh(Workload):
    """Refresh (collect, build, render) then report (parse, format), rotating
    over three 10k-class fixtures so consecutive snapshots differ."""

    name = "refresh-10k"
    n_fixtures = gen.N_FIXTURES

    def setup(self) -> None:
        self.fixtures = [lrms.load_fixture(path) for path in self.paths["fixtures"]]
        self.op(0)
        self.stats["doc_bytes"] = len(self._last_doc.encode("utf-8"))

    def op(self, i: int):
        index = i % len(self.fixtures)
        parts, snapshot, document, records, report = refresh_and_report(self.fixtures[index], self.site)
        self._last_doc = document
        expected = self.clusters[index].advertised
        ok = (
            list(snapshot.gres) == expected
            and len(records) == 1
            and list(records[0].manager.general_resources) == list(snapshot.gres)
            and [line.strip() for line in report.splitlines()[3:]] == expected
        )
        return parts, ok

    def peak_rss_kb(self) -> int:
        return self.worker_rss_kb(["refresh", *map(str, self.paths["fixtures"])])


class Poll(Workload):
    """Two closed-loop callers GET ``/info`` from a server subprocess whose
    refresher re-renders the same 10k-class fixture every second."""

    name = "poll-10k"
    op_unit = "GET"

    def setup(self) -> None:
        fixture_path = self.paths["fixtures"][0]
        _fixture, _snapshot, self.expected = render_document(fixture_path, self.site)
        self.server = Server(fixture_path, self.workdir)
        for _ in range(3):
            if client.fetch_info(self.server.url) != self.expected:
                raise RuntimeError("served document differs from the in-process rendering")
        self.stats["doc_bytes"] = len(self.expected.encode("utf-8"))

    def reference_ms(self) -> float:
        """The Python reference, read while the server is stopped, so that
        the reading cannot depend on grespipe's own refresher."""
        server = getattr(self, "server", None)
        if server is None:
            return speed.reference_ms()
        with server.paused():
            return speed.reference_ms()

    def measure(self, seconds: float, tracer=None) -> Samples:
        self.server_cpu_s = 0.0
        self.server_threads_peak = 0
        return super().measure(seconds, tracer)

    def run_block(self, seconds: float, tracer, first_op: int, first_index: int) -> Samples:
        samples, cpu, threads_peak = serve_and_poll(self.server, self.expected, seconds, POLL_CALLERS, tracer, first_op)
        self.server_cpu_s += cpu
        self.server_threads_peak = max(self.server_threads_peak, threads_peak)
        return samples

    def peak_rss_kb(self) -> int:
        return self.server.status("VmHWM")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None


class Submit(Workload):
    """``arcsub --match`` through ``cli.main`` against a pre-rendered
    10k-class document, with seeded jobs and RTEs, about half of whose GRES
    requests the cluster can satisfy."""

    name = "submit-10k"
    op_unit = "job"

    def setup(self) -> None:
        _fixture, _snapshot, document = render_document(self.paths["fixtures"][0], self.site)
        self.doc_path = self.inputs / "info.xml"
        self.doc_path.write_text(document, encoding="utf-8")
        self.spool = self.workdir / f"spool-{time.monotonic_ns()}"
        self.stats["doc_bytes"] = len(document.encode("utf-8"))
        self.op(0)

    def op(self, i: int):
        job = self.jobs[i % len(self.jobs)]
        elapsed, code, out = arcsub(submit_argv(self.paths["job_dir"] / job["name"], self.paths["rte_dir"],
                                                self.spool, self.doc_path))
        if code != (0 if job["matches"] else 1):
            return {"submit": elapsed}, False
        if code == 1:
            return {"submit": elapsed}, out == ""
        _job_id, script_path = out.split()
        script = Path(script_path).read_text(encoding="utf-8").splitlines()
        gres_lines = [line for line in script if line.startswith("#SBATCH --gres=")]
        return {"submit": elapsed}, gres_lines == job["gres_lines"]

    def peak_rss_kb(self) -> int:
        jobs = [str(self.paths["job_dir"] / job["name"]) for job in self.jobs]
        return self.worker_rss_kb(["submit", str(self.paths["rte_dir"]), str(self.workdir / "worker-spool"),
                                   str(self.doc_path), *jobs])


class CliSample(Workload):
    """Each op is one fresh ``python -m grespipe`` process running one of
    the four subcommands on the shipped samples, in rotation."""

    name = "cli-sample"
    op_unit = "process"
    block_seconds = 2.0
    nominal_ms = speed.NOMINAL_START_MS

    def reference_ms(self) -> float:
        return speed.startup_ms(child_env())

    def prepare(self) -> None:
        self.env = child_env()
        self.rss_kb = 0
        golden = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in
                  ("mock-sinfo-bare.out", "infoprovider.out", "arcinfo.out", "arcsub.out", "arcsub.sbatch")}
        self.golden_script = golden["arcsub.sbatch"]
        self.commands = [
            (["mock-sinfo", "--bare"], golden["mock-sinfo-bare.out"]),
            (["infoprovider"], golden["infoprovider.out"]),
            (["arcinfo", str(GOLDEN / "infoprovider.out")], golden["arcinfo.out"]),
            (["arcsub", str(data.HELLO_XRSL), "--spool-dir", "{spool}"], golden["arcsub.out"]),
        ]
        self.spools = 0
        listing = golden["mock-sinfo-bare.out"].splitlines()
        dropped = sum(gen.NULL_TOKEN in line for line in listing)
        self.stats = {"classes": len(listing), "non_null_lines": [len(listing) - dropped], "null_dropped": dropped,
                      "doc_bytes": len(golden["infoprovider.out"].encode("utf-8"))}

    def setup(self) -> None:
        for i in range(len(self.commands)):
            self.op(i)

    def op(self, i: int):
        argv, expected = self.commands[i % len(self.commands)]
        spool = None
        if "{spool}" in argv:
            self.spools += 1
            spool = self.workdir / f"spool-{self.spools}"
            argv = [arg.replace("{spool}", str(spool)) for arg in argv]
            expected = expected.replace("{spool}", str(spool))
        start = time.perf_counter()
        code, out, rss_kb = run_child(["-m", "grespipe", *argv], self.env, self.workdir)
        elapsed = time.perf_counter() - start
        self.rss_kb = max(self.rss_kb, rss_kb)
        ok = code == 0 and out.decode("utf-8") == expected
        if ok and spool is not None:
            scripts = list(spool.glob("*.sbatch"))
            ok = len(scripts) == 1 and scripts[0].read_text(encoding="utf-8") == self.golden_script
        return {argv[0]: elapsed}, ok

    def peak_rss_kb(self) -> int:
        """The largest peak RSS of any ``grespipe`` process of this run."""
        return self.rss_kb

    def probe_inputs(self) -> dict[str, Path]:
        return {"fixture": data.KEBNEKAISE_FIXTURE, "rte_dir": data.RTE_DIR, "job": data.HELLO_XRSL}


WORKLOADS = {cls.name: cls for cls in (Refresh, Poll, Submit, CliSample)}
