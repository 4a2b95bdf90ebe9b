"""Seeded input generator for the grespipe benchmark.

Everything the program under test reads is made here from one seed: cluster
fixtures of synthetic node classes, runtime-environment (RTE) manifests and
XRSL job descriptions.  The generator keeps the structured form of every
line it writes, so the benchmark can check the program's outputs against
oracles that share no code with the program.

The line shapes follow the test suite's random fixtures: 1-4 segments per
line, each ``name``, ``name:subtype``, ``name:count`` or
``name:subtype:count``; counts are 0-99999 with an optional K/M/G/T/P
suffix; about 30% of node classes advertise ``(null)``, and one in ten of
the others advertises a line that merely *contains* ``(null)`` (it is
dropped by collection too).  Names and subtypes come from a small seeded
vocabulary so that generated GRES requests can actually match.

Run as a script to write one seed's inputs to a directory::

    python3 perfbench/gen.py --seed 7 --out /some/dir
"""

from __future__ import annotations

import argparse
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

TOKEN_CHARS = string.ascii_lowercase + string.digits + "_-."
SUFFIX_RANK = {"": 0, "K": 1, "M": 2, "G": 3, "T": 4, "P": 5}
NULL_TOKEN = "(null)"
NULL_FRACTION = 0.3
CONTAINS_NULL_FRACTION = 0.1
N_NAMES = 48
N_SUBTYPES = 24
CLASSES = 10000  # node classes per fixture
N_FIXTURES = 3  # fixtures the refresh workload rotates over
N_RTES = 40
N_JOBS = 64

# (name, subtype or None, count, count literal or None)
Entry = tuple[str, "str | None", int, "str | None"]


def _token(rng: random.Random) -> str:
    # Tokens start with a letter so a subtype can never read as a count.
    return rng.choice(string.ascii_lowercase) + "".join(
        rng.choice(TOKEN_CHARS) for _ in range(rng.randint(0, 7))
    )


def _count_literal(rng: random.Random) -> tuple[int, str]:
    digits = rng.randint(0, 99999)
    suffix = rng.choice(list(SUFFIX_RANK))
    return digits * 1024 ** SUFFIX_RANK[suffix], f"{digits}{suffix}"


def render_entries(entries: list[Entry]) -> str:
    """Wire form of a GRES list: ``name[:subtype][:count]`` joined by commas."""
    segments = []
    for name, subtype, _count, literal in entries:
        parts = [name]
        if subtype is not None:
            parts.append(subtype)
        if literal is not None:
            parts.append(literal)
        segments.append(":".join(parts))
    return ",".join(segments)


@dataclass
class Cluster:
    """One generated fixture: its file text plus what collection must yield."""

    name: str
    text: str
    classes: int
    advertised: list[str]  # non-null GRES lines, in fixture order
    parsed: list[list[Entry]]  # structured form of ``advertised``


def make_vocabulary(rng: random.Random) -> tuple[list[str], list[str]]:
    names = sorted({_token(rng) for _ in range(N_NAMES)})
    subtypes = sorted({_token(rng) for _ in range(N_SUBTYPES)})
    return names, subtypes


def make_cluster(rng: random.Random, name: str, vocabulary) -> Cluster:
    names, subtypes = vocabulary
    rows = [f"# synthetic cluster {name}: {CLASSES} node classes", "# partition|node_count|gres_line"]
    advertised: list[str] = []
    parsed: list[list[Entry]] = []
    for index in range(CLASSES):
        if rng.random() < NULL_FRACTION:
            line = NULL_TOKEN
        elif rng.random() < CONTAINS_NULL_FRACTION:
            _count, literal = _count_literal(rng)
            line = f"{_token(rng)}{NULL_TOKEN}{_token(rng)}:{literal}"
        else:
            entries: list[Entry] = []
            for _ in range(rng.randint(1, 4)):
                form = rng.randint(0, 3)
                subtype = rng.choice(subtypes) if form in (1, 3) else None
                count, literal = _count_literal(rng) if form in (2, 3) else (1, None)
                entries.append((rng.choice(names), subtype, count, literal))
            line = render_entries(entries)
            advertised.append(line)
            parsed.append(entries)
        rows.append(f"part{index}|{rng.randint(1, 100)}|{line}")
    return Cluster(name, "\n".join(rows) + "\n", CLASSES, advertised, parsed)


def brute_force_match(request: list[Entry], classes: list[list[Entry]]) -> bool:
    """Matchmaking oracle: some single class satisfies every requested entry."""
    if not request:
        return True
    for have in classes:
        if all(
            any(
                h_name == name and (subtype is None or h_subtype == subtype) and h_count >= count
                for h_name, h_subtype, h_count, _ in have
            )
            for name, subtype, count, _ in request
        ):
            return True
    return False


def _satisfiable_request(rng: random.Random, cluster: Cluster) -> list[Entry]:
    # A subset of one advertised class, with some subtypes dropped.
    have = rng.choice(cluster.parsed)
    picked = rng.sample(have, rng.randint(1, min(2, len(have))))
    return [
        (name, subtype if rng.random() < 0.7 else None, count, literal)
        for name, subtype, count, literal in picked
    ]


def _unsatisfiable_request(rng: random.Random, cluster: Cluster, names: list[str]) -> list[Entry]:
    # One more unit of a name than any class advertises under that name.
    name = rng.choice(names)
    most = max(
        (count for entries in cluster.parsed for n, _s, count, _l in entries if n == name),
        default=0,
    )
    return [(name, None, most + 1, str(most + 1))]


_PLAIN_OPTIONS = ("--exclusive", "--mem={}G", "--time={}:00:00", "--constraint=ib{}", "--partition=part{}")


def make_submit_inputs(rng: random.Random, cluster: Cluster, vocabulary):
    """RTE manifests and XRSL jobs whose GRES requests are drawn from the
    cluster's vocabulary, about half of them satisfiable.

    Returns ``(rtes, jobs)``: ``rtes`` maps file name to manifest text;
    each job is a dict with its XRSL ``text``, the ``gres_lines`` its script
    must carry and whether the oracle says it ``matches``.
    """
    names, _subtypes = vocabulary
    gres_rtes: list[tuple[str, str]] = []  # (rte name, --gres= option)
    plain_rtes: list[str] = []
    rtes: dict[str, str] = {}
    requests: dict[str, list[Entry]] = {}
    for index in range(N_RTES):
        rte = f"BENCH{index:03d}"
        options = [rng.choice(_PLAIN_OPTIONS).format(rng.randint(1, 64)) for _ in range(rng.randint(0, 2))]
        if index % 2 == 0:
            wants = _satisfiable_request(rng, cluster) if index % 4 == 0 else _unsatisfiable_request(rng, cluster, names)
            gres = "--gres=" + render_entries(wants)
            options.insert(rng.randint(0, len(options)), gres)
            gres_rtes.append((rte, gres))
            requests[rte] = wants
        else:
            options = options or ["--exclusive"]
            plain_rtes.append(rte)
        body = [f"# generated runtime environment {rte}", f"name = {rte}"]
        body += [f"node_properties = {option}" for option in options]
        rtes[f"{rte}.rte"] = "\n".join(body) + "\n"
    jobs = []
    for index in range(N_JOBS):
        gres_rte, gres = rng.choice(gres_rtes)
        chosen = [gres_rte] + rng.sample(plain_rtes, rng.randint(0, 2))
        rng.shuffle(chosen)
        clauses = [f'(executable="run{index}.sh")', f'(jobName="bench-{index}")', f"(count={rng.randint(1, 8)})"]
        if rng.random() < 0.5:
            clauses.append('(arguments="--step" "{}")'.format(rng.randint(1, 99)))
        if rng.random() < 0.5:
            clauses.append(f'(stdout="bench-{index}.out")(stderr="bench-{index}.err")')
        clauses += [f'(runTimeEnvironment="{rte}")' for rte in chosen]
        text = f"(* generated job {index} *)\n&" + "\n ".join(clauses) + "\n"
        jobs.append(
            {
                "name": f"job{index:03d}.xrsl",
                "text": text,
                "gres_lines": [f"#SBATCH {gres}"],
                "matches": brute_force_match(requests[gres_rte], cluster.parsed),
            }
        )
    return rtes, jobs


def generate(seed: int, n_fixtures: int = N_FIXTURES):
    """All inputs for one seed: ``n_fixtures`` clusters plus submit inputs
    built against the first of them."""
    rng = random.Random(seed)
    vocabulary = make_vocabulary(rng)
    clusters = [make_cluster(rng, f"synth{seed}-{i}", vocabulary) for i in range(n_fixtures)]
    rtes, jobs = make_submit_inputs(rng, clusters[0], vocabulary)
    return clusters, rtes, jobs


def write_inputs(out: Path, clusters: list[Cluster], rtes: dict[str, str], jobs: list[dict]) -> dict:
    """Write fixtures, ``rte/`` and ``jobs/`` under ``out``; return the paths."""
    rte_dir = out / "rte"
    job_dir = out / "jobs"
    rte_dir.mkdir(parents=True, exist_ok=True)
    job_dir.mkdir(parents=True, exist_ok=True)
    fixtures = []
    for cluster in clusters:
        path = out / f"{cluster.name}.fixture"
        path.write_text(cluster.text, encoding="utf-8")
        fixtures.append(path)
    for name, text in rtes.items():
        (rte_dir / name).write_text(text, encoding="utf-8")
    for job in jobs:
        (job_dir / job["name"]).write_text(job["text"], encoding="utf-8")
    return {"fixtures": fixtures, "rte_dir": rte_dir, "job_dir": job_dir}


def stats(clusters: list[Cluster], jobs: list[dict]) -> dict:
    return {
        "classes": clusters[0].classes,
        "fixtures": len(clusters),
        "non_null_lines": [len(cluster.advertised) for cluster in clusters],
        "jobs": len(jobs),
        "jobs_matching": sum(job["matches"] for job in jobs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    clusters, rtes, jobs = generate(args.seed)
    write_inputs(args.out, clusters, rtes, jobs)
    expected = {job["name"]: {"matches": job["matches"], "gres_lines": job["gres_lines"]} for job in jobs}
    (args.out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(stats(clusters, jobs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
