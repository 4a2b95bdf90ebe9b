"""grespipe benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload refresh-10k --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``refresh-10k``, ``poll-10k``,
``submit-10k`` and ``cli-sample``.  Inputs are generated from ``--seed``
(``gen.py``); the package under test is imported from ``src/`` and run as
``python -m grespipe`` with ``PYTHONPATH=src``.

Each run first generates the seed's inputs (untimed; reported as
``gen_s``).  ``--trace 0`` then sets up the workload seven times (the
program's own set-up work: loading fixtures, rendering, starting and
warming the server, warm-up operations), runs closed-loop operations for
``--seconds`` with tracing off and reports the end-to-end metrics:
``latency_scaled_ms_mean`` (the 10%-trimmed mean op latency) and
``setup_s`` (the median set-up), both scaled by the run's speed reference
(see ``speed.py``), and ``peak_rss_mb``, the peak RSS of the process doing
the work: the server on ``poll-10k``, the largest ``grespipe`` process on
``cli-sample``, and a fresh ``worker.py`` process doing the same calls on
the same files elsewhere.  ``--trace 1`` sets up once, runs half the time
untraced and half traced (``bench.trace_overhead_ratio`` compares the
two), then probes every layer the workload's own operations did not reach,
at the workload's scale, because the result must carry every per-layer
metric on every workload; each per-layer metric says whether it came from
the workload or the probe.

Every operation's output is checked against an oracle; a wrong or failed
operation counts in ``failed``.  The last line of standard output is the JSON
result; the lines before it list every metric with its unit and sample
count.  A full report, and with ``--trace 1`` every span (gzip TSV), go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 7
PROBE_OP0 = 10**12  # span op ids from here on belong to the layer probe
PROBE_POLL_SECONDS = 1.0
CLI_PROBE_REPS = 5


def proc_stat_cpu() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU time stolen by the hypervisor between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else 0.0


def loadavg1() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "grespipe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    The machine's speed flips between two states many times a second, so a
    run's timings are bimodal and their median jumps from one mode to the
    other between runs; a trimmed mean moves with the share of time spent
    in each state, which varies much less, and still drops stalls."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def metric(value: float, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def end_to_end(wl, samples, gen_s: float, setup_times: list[float], setup_refs_ms: list[float], rss_kb: int):
    """The contract's end-to-end metrics, and the workload's named ones.

    The contract's timings are scaled by the run's mean reading of the
    speed reference (``speed.py``); the named ones are as measured."""
    ok = samples.attempted - samples.failed
    latency_ms = [s * 1e3 for s in samples.latency]
    refs_ms = samples.refs_ms + setup_refs_ms
    ref_ms = trimmed_mean(refs_ms)
    setup_raw = statistics.median(setup_times)
    result = {
        "latency_scaled_ms_mean": metric(speed.scale(trimmed_mean(latency_ms), ref_ms, wl.nominal_ms), "ms",
                                         len(latency_ms)),
        "peak_rss_mb": metric(rss_kb / 1024, "MB", 1),
        "setup_s": metric(speed.scale(setup_raw, ref_ms, wl.nominal_ms), "s", len(setup_times)),
    }
    named = {"latency_ms_p50": metric(statistics.median(latency_ms), "ms", len(latency_ms)),
             "gen_s": metric(gen_s, "s", 1),
             "setup_raw_s": metric(setup_raw, "s", len(setup_times)),
             "speed.reference_ms_mean": metric(ref_ms, "ms", len(refs_ms)),
             "error_rate": metric(samples.failed / samples.attempted, "ratio", samples.attempted),
             "ops_per_s": metric(ok / samples.wall, f"{wl.op_unit}/s", ok)}
    parts = {name: [s * 1e3 for s in values] for name, values in samples.parts.items()}
    if wl.name == "refresh-10k":
        named["refresh_ms_p50"] = metric(statistics.median(parts["refresh"]), "ms", len(parts["refresh"]))
        named["report_ms_p50"] = metric(statistics.median(parts["report"]), "ms", len(parts["report"]))
    elif wl.name == "poll-10k":
        named["info_get_per_s"] = named.pop("ops_per_s")
        named["info_get_ms_p50"] = metric(statistics.median(latency_ms), "ms", len(latency_ms))
    elif wl.name == "submit-10k":
        named["submit_ms_p50"] = metric(statistics.median(latency_ms), "ms", len(latency_ms))
    else:
        named["cli_ms_p50"] = metric(statistics.median(latency_ms), "ms", len(latency_ms))
        for name, values in parts.items():
            named[f"cli.{name}_ms_p50"] = metric(statistics.median(values), "ms", len(values))
    return result, named


TAIL_NAMES = {"refresh-10k": {"refresh": "tail.refresh_ms_p90", "report": "tail.report_ms_p90"},
              "poll-10k": {"get": "tail.info_get_ms_p90"},
              "submit-10k": {"submit": "tail.submit_ms_p90"}}

# Per-layer metric -> (span name, statistic, unit); statistics are taken
# over the workload's spans when it has any of that name, else the probe's.
SPAN_METRICS = {
    "lrms.load_fixture_ms": ("lrms.load_fixture", "self_ms_p50", "ms"),
    "lrms.collect_ms": ("lrms.collect", "self_ms_p50", "ms"),
    "gres.parse_us_per_line": ("gres.parse", "self_us_mean", "us"),
    "gres.lines_parsed_per_op": ("gres.parse", "calls_per_op", "count"),
    "infoprovider.build_ms": ("infoprovider.build", "self_ms_p50", "ms"),
    "infoprovider.render_ms": ("infoprovider.render", "self_ms_p50", "ms"),
    "client.fetch_ms": ("client.fetch", "self_ms_p50", "ms"),
    "client.parse_ms": ("client.parse", "self_ms_p50", "ms"),
    "client.format_ms": ("client.format", "self_ms_p50", "ms"),
    "xrsl.parse_us": ("xrsl.parse", "self_us_p50", "us"),
    "jobsubmit.load_registry_us": ("jobsubmit.load_registry", "self_us_p50", "us"),
    "jobsubmit.apply_us": ("jobsubmit.apply", "self_us_p50", "us"),
    "jobsubmit.script_us": ("jobsubmit.script", "self_us_p50", "us"),
    "jobsubmit.match_us": ("jobsubmit.match", "self_us_p50", "us"),
    "jobsubmit.spool_write_us": ("jobsubmit.spool_write", "self_us_p50", "us"),
    "jobsubmit.match_accept_ratio": ("jobsubmit.match", "true_ratio", "ratio"),
}


def span_metrics(tracer, traced_ops: int, probe_ops: int) -> dict:
    def in_workload(op):
        return op < PROBE_OP0

    def in_probe(op):
        return op >= PROBE_OP0

    sources = {
        # name: (spans counted, spans counted per op, number of ops, keep)
        "workload": (tracer.summary(in_workload), tracer.summary(lambda op: 0 < op < PROBE_OP0),
                     traced_ops, in_workload),
        "probe": (tracer.summary(in_probe), tracer.summary(in_probe), probe_ops, in_probe),
    }
    out = {}
    for metric_name, (span, stat, unit) in SPAN_METRICS.items():
        source = "workload" if span in sources["workload"][0] else "probe"
        rows, per_op_rows, ops, keep = sources[source]
        row = rows[span]
        n = row["calls"]
        if stat == "self_ms_p50":
            value = row["self_ns_p50"] / 1e6
        elif stat == "self_us_p50":
            value = row["self_ns_p50"] / 1e3
        elif stat == "self_us_mean":
            value = row["self_ns_total"] / row["calls"] / 1e3
        elif stat == "calls_per_op":
            value, n = per_op_rows.get(span, {"calls": 0})["calls"] / ops, ops
        else:  # true_ratio
            value = sum(1 for name, op in tracer.true_results if name == span and keep(op)) / row["calls"]
        out[metric_name] = metric(value, unit, n, source=source, incl_ms_p50=row["incl_ns_p50"] / 1e6)
    return out


def probe_layers(wl, tracer) -> tuple[int, dict, object]:
    """Run every layer at the workload's scale, traced as probe ops: the
    in-process refresh, report and submit paths, and a short poll of a
    server subprocess unless the workload polls one itself."""
    import workloads
    from grespipe import cli, client

    inputs = wl.probe_inputs()
    reps = 20 if wl.name == "cli-sample" else 3
    doc_path = wl.workdir / "probe-info.xml"
    spool = wl.workdir / "probe-spool"
    tracer.install()
    try:
        for rep in range(reps):
            tracer.begin_op(PROBE_OP0 + rep)
            _fixture, _snapshot, document = workloads.render_document(inputs["fixture"], wl.site)
            client.format_arcinfo(client.parse_execution_targets(document))
            if rep == 0:
                doc_path.write_text(document, encoding="utf-8")
            # With --match for the matchmaking path, and without, so that a
            # job the sample cluster refuses still reaches the spool write.
            submit = ["arcsub", str(inputs["job"]), "--rte-dir", str(inputs["rte_dir"]), "--spool-dir", str(spool)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(submit + ["--match", str(doc_path)])
                cli.main(submit)
        server_stats, samples = {}, None
        if wl.name != "poll-10k":
            server = workloads.Server(Path(inputs["fixture"]), wl.workdir)
            try:
                samples, cpu, threads = workloads.serve_and_poll(
                    server, document, PROBE_POLL_SECONDS, 1, tracer, first_op=PROBE_OP0 + reps)
            finally:
                server.stop()
            server_stats = {"cpu_s": cpu, "gets": samples.attempted, "threads_peak": threads}
    finally:
        tracer.uninstall()
    return reps, server_stats, samples


def start_times_ms(code: str, env: dict) -> list[float]:
    """Wall times of ``CLI_PROBE_REPS`` runs of ``python -c <code>``, in ms."""
    times = []
    for _ in range(CLI_PROBE_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * 1e3)
    return times


def traced_run(wl, seconds: float):
    from spans import Tracer
    import workloads

    tracer = Tracer()
    wl.prepare()
    tracer.install()
    tracer.begin_op(0)
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    plain = wl.measure(seconds / 2)
    plain_server = (getattr(wl, "server_cpu_s", None), getattr(wl, "server_threads_peak", None))
    tracer.install()
    try:
        traced = wl.measure(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    wl.teardown()
    probe_ops, probe_server, probe_gets = probe_layers(wl, tracer)
    env = workloads.child_env()
    interp = start_times_ms("pass", env)
    imported = start_times_ms("import grespipe.cli", env)

    layers = span_metrics(tracer, traced.attempted, probe_ops)
    stats = wl.stats
    layers["lrms.null_drop_ratio"] = metric(stats["null_dropped"] / stats["classes"], "ratio", stats["classes"],
                                            source="workload")
    layers["infoprovider.doc_bytes"] = metric(stats["doc_bytes"], "bytes", 1, source="workload")
    if wl.name == "poll-10k":
        cpu_s, threads_peak = plain_server
        gets, source = plain.attempted, "workload"
    else:
        cpu_s, threads_peak = probe_server["cpu_s"], probe_server["threads_peak"]
        gets, source = probe_server["gets"], "probe"
    layers["infoprovider.server_cpu_us_per_get"] = metric(cpu_s * 1e6 / gets, "us", gets, source=source)
    layers["infoprovider.server_threads_peak"] = metric(threads_peak, "count", 1, source=source)
    interp_p50 = statistics.median(interp)
    layers["cli.interp_ms"] = metric(interp_p50, "ms", len(interp), source="subprocess")
    layers["cli.import_ms"] = metric(statistics.median(imported) - interp_p50, "ms", len(imported),
                                     source="subprocess")
    plain_ms = [s * 1e3 for s in plain.latency]
    traced_ms = [s * 1e3 for s in traced.latency]
    layers["tail.latency_ms_p90"] = metric(percentile(plain_ms, 0.9), "ms", len(plain_ms), source="workload")
    layers["python.gc_gen2_per_op"] = metric(plain.gc_gen2 / plain.attempted, "count", plain.attempted,
                                             source="workload")
    # Each half's median latency over its own median speed reading.
    layers["bench.trace_overhead_ratio"] = metric(
        (statistics.median(traced_ms) / statistics.median(traced.refs_ms))
        / (statistics.median(plain_ms) / statistics.median(plain.refs_ms)),
        "ratio", len(traced_ms), source="workload")
    layers["machine.ref_ms"] = metric(statistics.median(plain.refs_ms + traced.refs_ms), "ms",
                                      len(plain.refs_ms) + len(traced.refs_ms), source="machine")
    named = {}
    for part, name in TAIL_NAMES.get(wl.name, {}).items():
        values = [s * 1e3 for s in plain.parts[part]]
        named[name] = metric(percentile(values, 0.9), "ms", len(values))
    if wl.name == "cli-sample":
        named["tail.cli_ms_p90"] = metric(percentile(plain_ms, 0.9), "ms", len(plain_ms))
    plain.merge(traced)
    if probe_gets is not None:
        plain.merge(probe_gets)
    return layers, named, plain, tracer


def untraced_run(wl, seconds: float):
    start = time.perf_counter()
    wl.prepare()
    gen_s = time.perf_counter() - start
    setup_times, setup_refs_ms = [], []
    for _ in range(SETUP_REPS):
        wl.teardown()
        setup_refs_ms.append(wl.reference_ms())
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    setup_refs_ms.append(wl.reference_ms())
    samples = wl.measure(seconds)
    return samples, gen_s, setup_times, setup_refs_ms, wl.peak_rss_kb()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="grespipe benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grespipe" / "__init__.py").is_file():
        print(f"perfbench: no grespipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cpu_before = proc_stat_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, named, samples, tracer = traced_run(wl, args.seconds)
            tracer.write(OUT / f"spans-{tag}.tsv.gz")
        else:
            samples, gen_s, setup_times, setup_refs_ms, rss_kb = untraced_run(wl, args.seconds)
            metrics, named = end_to_end(wl, samples, gen_s, setup_times, setup_refs_ms, rss_kb)
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    machine = {**provenance(), "steal_share": steal_share(cpu_before, proc_stat_cpu()), "loadavg1": loadavg1()}
    if args.trace:
        metrics["machine.steal_share"] = metric(machine["steal_share"], "ratio", 1, source="machine")
        metrics["machine.loadavg1"] = metric(machine["loadavg1"], "load", 1, source="machine")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "inputs": wl.stats, "attempted": samples.attempted, "failed": samples.failed,
              "errors": samples.errors, "metrics": metrics, "named": named}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{key}={value}" for key, value in machine.items()))
    print("inputs " + json.dumps(wl.stats, sort_keys=True))
    for name, row in {**metrics, **named}.items():
        source = f" [{row['source']}]" if "source" in row else ""
        print(f"  {name} = {row['value']:.6g} {row['unit']} (n={row['n']}){source}")
    for error in samples.errors:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]} for name, row in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
