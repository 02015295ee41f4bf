"""cli-oneshot: every request is a fresh ``python -m tpqr.cli <cmd> --json``.

A seeded mix over the six exact subcommands at paper-sized inputs, plus a
minority of out-of-table inputs that must exit 2 with a one-line message
on stderr.  Interpreter start and ``import tpqr`` dominate each request.

Exact output must stay byte-identical: the sha256 of every request's
stdout, and its exit code, were recorded with ``record_expected.py`` and
a mismatch fails the request.

``tpqr dual 2 3 1000000000`` is not a request here: at this revision it
can exhaust the memory of a small machine, so it belongs in a test that
runs it in a subprocess under ``ulimit -v``.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import common
import tracer as tr
from common import Request

ROUND_S = 3.3  # nominal round time on a 2-vCPU x86-64 host
RSS_OF = resource.RUSAGE_CHILDREN
EXPECTED = common.BENCH / "expected_stdout.json"

ERRORS = (
    ("dual", "2", "3", "20"),
    ("dual", "2", "3", "11"),
    ("dual", "2", "2", "5"),
    ("k3", "--pair", "2,3,20"),
    ("k3", "--pair", "2,4,8"),
    ("lattice", "e", "--k", "11"),
    ("lattice", "e", "--k", "5"),
    ("lattice", "ttilde", "--triple", "2,3,5"),
    ("lattice", "t", "--triple", "1,3,7"),
    ("inose", "--case", "3,0,0,0"),
    ("monodromy", "2", "3"),
    ("monodromy", "1", "3", "7"),
)
_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def cusp_triples(bound: int = 10):
    """Sorted triples with max index <= bound and 1/p + 1/q + 1/r < 1."""
    return [
        (p, q, r)
        for p in range(2, bound + 1)
        for q in range(p, bound + 1)
        for r in range(q, bound + 1)
        if q * r + r * p + p * q < p * q * r
    ]


def universe() -> dict[str, list[tuple[str, ...]]]:
    """Every request the workload can draw, by kind, without --json; the
    triples are ordered by size."""
    cusps = sorted(cusp_triples(), key=lambda t: (sum(t), t))

    def comma(t):
        return ",".join(map(str, t))

    return {
        "monodromy": [("monodromy", *map(str, t)) for t in cusps],
        "dual": [("dual", *map(str, t)) for t in sorted(common.TABLE_TRIPLES, key=sum)],
        "lattice-t": [("lattice", "t", "--triple", comma(t)) for t in cusps],
        "lattice-ttilde": [
            ("lattice", "ttilde", "--triple", comma(t), "--generator", g)
            for t in cusps for g in ("S", "S'")
        ],
        "lattice-e": [("lattice", "e", "--k", str(k)) for k in range(6, 11)],
        "lattice-h": [("lattice", "h")],
        "lattice-k3": [("lattice", "k3")],
        "k3": [("k3", "--pair", comma(t)) for t in sorted(common.TABLE_TRIPLES, key=sum)],
        "inose": [
            ("inose", "--case", f"{a},{b},{c},{d}")
            for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        ],
        "table": [("table",)],
        "error": list(ERRORS),
    }


def key(args) -> str:
    return " ".join(args)


@dataclass
class State:
    expected: dict


def setup() -> State:
    import tpqr.cli  # noqa: F401  -- what every request pays before main()

    return State(json.loads(EXPECTED.read_text())["requests"])


def make_round(state, seed: int, index: int) -> list[Request]:
    """One request of every kind of ``universe()``, in random order: each
    subcommand, each of ``lattice``'s five lattices, and one out-of-table
    input.  No usage data exists to weight the kinds, so none is weighted
    over another."""
    rng = common.rng_for(seed, "cli-oneshot", index)
    requests = [Request(kind.split("-")[0], kind, rng.choice(pool) + ("--json",))
                for kind, pool in universe().items()]
    rng.shuffle(requests)
    return requests


def check_output(expected: dict, args, rc: int, stdout: bytes, stderr: str) -> list[str]:
    """Exit code and stdout bytes as recorded; exit-2 requests print one
    line to stderr and nothing to stdout; nothing ever prints a traceback."""
    want = expected.get(key(args))
    if want is None:
        return [f"no recorded output for {key(args)!r}"]
    errors = []
    if rc != want["rc"]:
        errors.append(f"exit code {rc}, recorded {want['rc']}")
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        errors.append("stdout differs from the recorded bytes")
    if "Traceback" in stderr:
        errors.append("traceback on stderr")
    if want["rc"] == 2:
        lines = stderr.strip().splitlines()
        if stdout or len(lines) != 1:
            errors.append(f"exit-2 request must print one stderr line, got {lines!r}")
    return errors


def execute(state, request_id, req, tracer):
    args = req.payload
    if tracer is None:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tpqr.cli", *args], cwd=common.ROOT,
            capture_output=True, timeout=common.CHILD_TIMEOUT_S,
        )
        latency = perf_counter() - t0
        errors = check_output(state.expected, args, proc.returncode, proc.stdout,
                              proc.stderr.decode(errors="replace"))
        return common.Done(req, request_id, -1, latency, errors)

    spawned = time.monotonic()
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(common.BENCH / "cli_child.py"), *args],
        cwd=common.ROOT, capture_output=True, timeout=common.CHILD_TIMEOUT_S,
    )
    latency = perf_counter() - t0
    stderr_lines, numpy_us = [], 0
    for line in proc.stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            stderr_lines.append(line)
            continue
        m = _IMPORTTIME.match(line)
        if m is not None and m.group(3) == "numpy":
            numpy_us = int(m.group(2))
    try:
        child = json.loads(proc.stdout)
    except ValueError:
        return common.Done(req, request_id, -1, latency,
                           ["traced child failed:\n" + "\n".join(stderr_lines)])
    tracer.adopt(child["spans"], request_id)
    errors = check_output(state.expected, args, child["rc"], child["stdout"].encode(),
                          "\n".join(stderr_lines))
    info = {
        "spawn": child["t_start"] - spawned,
        "import": child["import_s"],
        "numpy": numpy_us * 1e-6,
        "squarefree": tuple(child["squarefree"]),
    }
    return common.Done(req, request_id, -1, latency, errors, info)


def layer_metrics(rounds, tracer) -> dict:
    traced = [d for r in rounds if r.traced for d in r.done if d.info]
    calls = common.call_stats(rounds, tracer)
    selfs = tr.self_times(tracer.spans)
    main_self = [selfs[rec[tr.ID]] for rec in tracer.spans if rec[tr.NAME] == "cli.main"]

    def ms(name, own=False):
        return common.median(c[1 if own else 0] for c in calls.get((name, None), ())) * 1e3

    return {
        "cli.spawn_ms": common.median(d.info["spawn"] for d in traced) * 1e3,
        "cli.import_ms": common.median(d.info["import"] for d in traced) * 1e3,
        "cli.import_numpy_ms": common.median(d.info["numpy"] for d in traced) * 1e3,
        "cli.main_self_ms": common.median(main_self) * 1e3,
        "milnorfiber.monodromy_action_ms": ms("milnorfiber.monodromy_action"),
        "cuspdual.verify_duality_ms": ms("cuspdual.verify_duality"),
        "cuspdual.squarefree_hits":
            common.per_round(rounds, lambda d: d.info.get("squarefree", (0, 0))[0]),
        "cuspdual.squarefree_misses":
            common.per_round(rounds, lambda d: d.info.get("squarefree", (0, 0))[1]),
        "k3glue.glued_lattice_ms": ms("k3glue.glued_lattice", own=True),
        "k3glue.classify_inose_boundary_ms": ms("k3glue.classify_inose_boundary", own=True),
    }
