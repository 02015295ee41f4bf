"""Harness shared by the workloads: environment, rounds, statistics,
set-up probes, provenance and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# numpy here links OpenBLAS, which otherwise starts one thread per core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The fourteen cusp triples with a hypersurface dual: both sides of the
# ten pairs of the strange-duality table.
TABLE_TRIPLES = (
    (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 4, 5), (2, 4, 6), (2, 4, 7), (2, 5, 5),
    (2, 5, 6), (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 4, 4), (3, 4, 5), (4, 4, 4),
)

MIN_ROUNDS = 2  # a traced run needs an untraced and a traced round
SETUP_REPEATS = 15
SPAWN_REF_S = 0.07  # a bare interpreter start at the reference speed
CHILD_TIMEOUT_S = 120


def pin_environment() -> None:
    """One BLAS thread, one CPU for this process and its children, the
    package from this checkout's ``src``, no user tolerance file.  Must
    run before numpy is imported."""
    os.environ.update(BLAS_ENV)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("TPQR_CONFIG", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))


def rng_for(seed: int, *labels) -> random.Random:
    """Independent stream per (seed, labels): the same seed always yields
    the same inputs, whatever else the run did."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class Request:
    kind: str
    bucket: str
    payload: object


@dataclass
class Done:
    request: Request
    request_id: int
    round: int
    latency: float
    errors: list[str]
    info: dict = field(default_factory=dict)


@dataclass
class Round:
    index: int
    traced: bool
    done: list[Done]
    calibration: list[float]

    @property
    def wall(self) -> float:
        return sum(d.latency for d in self.done)

    @property
    def wall_ref(self) -> float:
        """The round's wall time at the reference speed."""
        return self.wall / slowdown([d.latency for d in self.done], self.calibration)


# The host's speed drifts by 15-25% over tens of seconds (a shared 2-vCPU
# machine), more than a relative bound of 0.25 can absorb across runs.
# Round timings are therefore also reported at a reference speed: a slice
# of fixed pure-Python work, timed before every request and after the
# last, takes CAL_SLICE_S at the reference speed.  The slices run outside
# every timed region.  Allocation-heavy float work tracked the workloads'
# speed better, when the host was busy, than a small-integer loop did.
CAL_SLICE_S = 0.005
CAL_ITERATIONS = 1_700  # about CAL_SLICE_S on a 2-vCPU x86-64 host


def calibration_slice() -> float:
    t0 = perf_counter()
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    for i in range(CAL_ITERATIONS):
        table = {j: math.sin(v) * 0.5 + 1e-9 * i for j, v in enumerate(x)}
        x = list(table.values())
    return perf_counter() - t0


def slowdown(times: list[float], calibration: list[float]) -> float:
    """How much slower than the reference speed the host ran during
    ``times``: each time weighs the mean of the slices just before and
    just after it, ``calibration[i]`` and ``calibration[i + 1]``."""
    around = [(a + b) / 2 for a, b in zip(calibration, calibration[1:])]
    return sum(t * c for t, c in zip(times, around)) / sum(times) / CAL_SLICE_S


def run_in_process(request_id: int, req: Request, call, check, tracer) -> Done:
    """Time ``call(payload)`` as one request, then run ``check(payload,
    out, info)`` outside the timed region.  An exception is a failed
    request."""
    info: dict = {}
    t0 = perf_counter()
    try:
        if tracer is None:
            out = call(req.payload)
        else:
            with tracer.request(request_id, req.kind):
                out = call(req.payload)
        latency = perf_counter() - t0
    except Exception as exc:  # a request that raises is counted, not fatal
        latency = perf_counter() - t0
        return Done(req, request_id, -1, latency, [f"{type(exc).__name__}: {exc}"],
                    {"exception": type(exc).__name__})
    try:
        errors = check(req.payload, out, info)
    except Exception:
        errors = ["check raised:\n" + traceback.format_exc()]
    return Done(req, request_id, -1, latency, errors, info)


def round_count(workload, seconds: float) -> int:
    """Rounds in a run, fixed by ``seconds`` and the workload's nominal
    round time ROUND_S, never by the clock: every commit serves the same
    request lists, and a run at the reference speed lasts about
    ``seconds``."""
    return max(MIN_ROUNDS, round(seconds / workload.ROUND_S))


def run_rounds(workload, state, seed: int, seconds: float, trace: bool, tracer):
    """Closed loop, one request in flight, ``round_count`` rounds; round i
    serves the request list drawn from (seed, i).  In a traced run, odd
    rounds are traced and even rounds are not, so the tracing overhead is
    measured in the same process."""
    rounds: list[Round] = []
    next_id = 0
    for index in range(round_count(workload, seconds)):
        traced = trace and index % 2 == 1
        done, calibration = [], []
        requests = workload.make_round(state, seed, index)
        with tr.installed(tracer) if traced else nullcontext():
            for req in requests:
                calibration.append(calibration_slice())
                d = workload.execute(state, next_id, req, tracer if traced else None)
                d.round = index
                done.append(d)
                next_id += 1
        calibration.append(calibration_slice())
        rounds.append(Round(index, traced, done, calibration))
    return rounds


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(count: int) -> float:
    """The highest of the usual percentiles with at least ten of ``count``
    samples beyond it (50 if none has)."""
    return max((p for p in (50, 75, 90, 95, 99, 99.9) if count * (100 - p) / 100 >= 10),
               default=50)


def _timed_child(args: list[str]) -> float:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} failed:\n{proc.stderr.decode(errors='replace')}")
    return elapsed


def setup_seconds(workload_module: str) -> tuple[float, float]:
    """Median wall time, over SETUP_REPEATS fresh interpreters, of
    spawning one and running the workload's ``setup()`` in it: as
    measured, and at the reference speed.  Each probe follows a bare
    interpreter start (``python -c pass``), which tpqr cannot change; the
    median of the probe / bare-start ratios times SPAWN_REF_S is the
    set-up time at the reference speed."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        f"import common; common.pin_environment(); "
        f"import {workload_module}; {workload_module}.setup()"
    )
    times, ratios = [], []
    for _ in range(SETUP_REPEATS):
        bare = _timed_child(["-c", "pass"])
        times.append(_timed_child(["-c", code]))
        ratios.append(times[-1] / bare)
    return statistics.median(times), statistics.median(ratios) * SPAWN_REF_S


def peak_rss_mb(who: int) -> float:
    """ru_maxrss is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories when there is no repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of every file under src/, identifying the code under test
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# Span queries used by the per-layer metrics
# --------------------------------------------------------------------------

CLIENT_LAYERS = ("bench", "cli")


def client_calls(spans: list[list], selfs: list[float]):
    """(span, duration, self time) of every call made into the library by
    the client code, i.e. whose parent is a request root or ``cli.main``."""
    for rec in spans:
        parent = rec[tr.PARENT]
        if parent is not None and spans[parent][tr.LAYER] in CLIENT_LAYERS:
            if rec[tr.LAYER] not in CLIENT_LAYERS:
                yield rec, rec[tr.END] - rec[tr.START], selfs[rec[tr.ID]]


def call_stats(rounds: list[Round], tracer, client_only: bool = True) -> dict:
    """{(span name, bucket or None): [(duration, self time)]} of the calls
    made in traced rounds, in seconds: only the client's calls into the
    library, or with ``client_only=False`` every span."""
    bucket_of = {d.request_id: d.request.bucket for r in rounds if r.traced for d in r.done}
    selfs = tr.self_times(tracer.spans)
    if client_only:
        calls = client_calls(tracer.spans, selfs)
    else:
        calls = ((rec, rec[tr.END] - rec[tr.START], selfs[rec[tr.ID]]) for rec in tracer.spans)
    stats = defaultdict(list)
    for rec, duration, own in calls:
        bucket = bucket_of.get(rec[tr.REQUEST])
        if bucket is not None:
            stats[(rec[tr.NAME], bucket)].append((duration, own))
            stats[(rec[tr.NAME], None)].append((duration, own))
    return stats


def per_round(rounds: list[Round], value) -> float:
    """Median over traced rounds of the round's sum of ``value(done)``."""
    return median(sum(value(d) for d in r.done) for r in rounds if r.traced)


def generic_layer_metrics(rounds: list[Round], tracer) -> dict:
    """Self time and call count of each layer per traced round, span
    count per traced round, and the tracing overhead."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    selfs = tr.self_times(tracer.spans)
    round_of = {d.request_id: r.index for r in traced for d in r.done}
    totals = {r.index: {layer: [0.0, 0] for layer in tr.LAYERS} for r in traced}
    spans_per_round = {r.index: 0 for r in traced}
    for rec in tracer.spans:
        idx = round_of.get(rec[tr.REQUEST])
        if idx is None:
            continue
        spans_per_round[idx] += 1
        acc = totals[idx].get(rec[tr.LAYER])
        if acc is not None:
            acc[0] += selfs[rec[tr.ID]]
            acc[1] += 1
    out = {}
    for layer in tr.LAYERS:
        out[f"{layer}.self_ms"] = median(t[layer][0] * 1e3 for t in totals.values())
        out[f"{layer}.calls"] = median(t[layer][1] for t in totals.values())
    out["trace.spans"] = median(spans_per_round.values())
    base = median(r.wall_ref for r in plain)
    out["trace.overhead_pct"] = (
        (median(r.wall_ref for r in traced) / base - 1.0) * 100.0 if base > 0 else 0.0
    )
    return out


def write_spans(tracer, rounds: list[Round], name: str) -> Path:
    """Write the traced run's spans, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.jsonl"
    bucket = {d.request_id: (d.round, d.request.kind, d.request.bucket)
              for r in rounds for d in r.done}
    with path.open("w") as fh:
        for rec in tracer.spans:
            rnd, kind, buck = bucket.get(rec[tr.REQUEST], (None, None, None))
            fh.write(json.dumps({
                "id": rec[tr.ID], "parent": rec[tr.PARENT], "request": rec[tr.REQUEST],
                "round": rnd, "kind": kind, "bucket": buck, "name": rec[tr.NAME],
                "layer": rec[tr.LAYER], "start": rec[tr.START], "end": rec[tr.END],
            }) + "\n")
    return path
