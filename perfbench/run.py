"""Plan-request benchmark for cutplan.

Drives plan requests through the real CLI entry point, ``cutplan.cli.main``,
in-process with stdout and stderr captured.  One client sends requests in a
closed loop: the next request goes out only when the previous one returned.
Input generation and report checks run between requests, outside the timed
region, so throughput is successful requests per second of request time.
Timings are scaled to a reference host speed measured between requests (see
bench_speed.py), so that the shared host's changing speed stays out of them.

    python3 perfbench/run.py --workload replan_hot --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from the traced requests of a run
that alternates traced and untraced ones, and the tracing overhead between
the two.  Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import bench_inputs as inputs
from bench_check import CheckerError, LpChecker, ReportChecker
from bench_speed import REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
DIGEST_REQUESTS = 32
# The loop stops at --seconds of request time, or at this multiple of it in
# wall time when checking between requests costs more than the requests.
WALL_LIMIT_FACTOR = 3
# Kernel samples taken before and after each timed stretch, so that the
# requests and set-ups at its edges have samples on both sides.
EDGE_SAMPLES = 5

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class SetupError(RuntimeError):
    """Pre-fill or warm-up failed: the program cannot serve this workload."""


@dataclass(frozen=True)
class Job:
    structure: inputs.Structure
    path: str
    input_bytes: int
    request: inputs.Request


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


class ColdSolve:
    """Distinct structures, m=10 with 14 minimal cutsets, each requested once.

    Warm-up requests use a fixed set of structures, the same for every seed,
    so that set-up time does not depend on which structures a seed drew.
    """

    name = "cold_solve"
    replayable = False
    M, S = 10, 14
    WARMUP_REQUESTS = 5

    def __init__(self, seed: int, workdir: Path, digest: inputs.InputDigest):
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self._structures = inputs.distinct_structures(
            random.Random("cold_solve/structures/%d" % seed), self.M, self.S
        )
        self._requests = random.Random("cold_solve/requests/%d" % seed)
        self._warmup = random.Random("cold_solve/warmup")
        self._generated = 0
        self._ready = deque(self._generate() for _ in range(DIGEST_REQUESTS))
        for job, text in self._ready:
            digest.add_document(text)
            digest.add_request(job.request)

    def _generate(self) -> tuple[Job, str]:
        st = next(self._structures)
        text = inputs.cutset_document(st)
        path = self.workdir / ("doc%06d.json" % self._generated)
        job = Job(st, str(path), _write(path, text), inputs.random_request(self._requests, self._generated))
        self._generated += 1
        return job, text

    def warm_up(self, cli, checker: ReportChecker):
        cache = self.workdir / "warmup-cache"
        for k in range(self.WARMUP_REQUESTS):
            st = inputs.random_structure(self._warmup, self.M, self.S)
            path = self.workdir / ("warmup%d.json" % k)
            _write(path, inputs.cutset_document(st))
            _setup_request(cli, checker, Job(st, str(path), 0, inputs.random_request(self._warmup, k)), cache)

    def next_job(self) -> Job:
        return (self._ready.popleft() if self._ready else self._generate())[0]


class PoolWorkload:
    """A fixed catalog of structures, pre-solved into the cache during set-up.

    The catalog is the same for every seed, so runs with different seeds do
    the same mix of work; per-structure cost varies by several times within
    a catalog, and a seed-drawn pool this small would make run-to-run spread
    a matter of which structures were drawn.  The seed draws the component
    labels and the request stream: budget, alpha, flags, and the pool member,
    taken in rounds that visit every member once in a random order so that
    every run sends each member the same share of requests.

    Requests for one structure cost about the same, so the latency
    distribution is a mix of one cluster per member.  Catalog sizes are 5 or
    15 so that p50 (rank 0.5 n) and p90 (rank 0.9 n) fall in the middle of a
    member's cluster, not on the edge between two, where they would jump.
    """

    name: str
    replayable = True
    render = staticmethod(inputs.cutset_document)

    def __init__(self, seed: int, workdir: Path, digest: inputs.InputDigest):
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        labels = random.Random("%s/labels/%d" % (self.name, seed))
        self.pool = []
        for i, st in enumerate(self.catalog()):
            st = st.relabelled(labels)
            text = self.render(st)
            path = workdir / ("pool%02d.json" % i)
            self.pool.append((st, str(path), _write(path, text)))
            digest.add_document(text)
        self._requests = random.Random("%s/requests/%d" % (self.name, seed))
        self._round: list[int] = []
        self._ready = deque(self._generate() for _ in range(DIGEST_REQUESTS))
        for job in self._ready:
            digest.add_request(job.request)
        self._warmup = random.Random("%s/warmup/%d" % (self.name, seed))

    @classmethod
    def catalog(cls) -> list[inputs.Structure]:
        raise NotImplementedError

    def _generate(self) -> Job:
        if not self._round:
            self._round = list(range(len(self.pool)))
            self._requests.shuffle(self._round)
        i = self._round.pop()
        st, path, nbytes = self.pool[i]
        return Job(st, path, nbytes, inputs.random_request(self._requests, i))

    def warm_up(self, cli, checker: ReportChecker):
        for st, path, _nbytes in self.pool:
            rc, _out, err, _dt = call_cli(cli, [path, "--format", "json", "--cache-dir", str(self.cache_dir)])
            if rc != 0:
                raise SetupError("pre-fill of %s exited %r: %s" % (path, rc, err.strip()))
        for i, (st, path, nbytes) in enumerate(self.pool):
            _setup_request(cli, checker, Job(st, path, nbytes, inputs.random_request(self._warmup, i)), self.cache_dir)

    def next_job(self) -> Job:
        return self._ready.popleft() if self._ready else self._generate()


class ReplanHot(PoolWorkload):
    """Fifteen cutset structures, five each with m = 10, 11, 12 and 14 cutsets."""

    name = "replan_hot"

    @classmethod
    def catalog(cls):
        rng = random.Random("replan_hot/catalog")
        return [st for m in (10, 11, 12) for st, _ in zip(inputs.distinct_structures(rng, m, 14), range(5))]


class TruthTable(PoolWorkload):
    """Five full truth tables with m = 12 (4096 states, ~250 KB each)."""

    name = "truth_table"
    render = staticmethod(inputs.truth_table_document)

    @classmethod
    def catalog(cls):
        rng = random.Random("truth_table/catalog")
        return [st for st, _ in zip(inputs.distinct_structures(rng, 12, 14), range(5))]


WORKLOADS = {w.name: w for w in (ColdSolve, ReplanHot, TruthTable)}


class LogSink(io.TextIOBase):
    """Stream the CLI's log records are formatted into and then discarded."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def call_cli(cli, argv):
    """One plan request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            rc = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def send(cli, checker: ReportChecker, job: Job, cache_dir: Path):
    """Send one plan request and check its report: (seconds, stdout, problems)."""
    argv = [job.path, *job.request.cli_args(), "--cache-dir", str(cache_dir)]
    rc, out, err, elapsed = call_cli(cli, argv)
    if rc != 0:
        return elapsed, out, ["exit code %r: %s" % (rc, err.strip())]
    return elapsed, out, checker.check(out, job.structure, job.request)


def _setup_request(cli, checker: ReportChecker, job: Job, cache_dir: Path):
    _elapsed, _out, problems = send(cli, checker, job, cache_dir)
    if problems:
        raise SetupError("warm-up request %s failed: %s" % (job.path, "; ".join(problems)))


@dataclass
class Phase:
    """What the requests of one phase took and returned."""

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    succeeded: list[bool] = field(default_factory=list)
    busy_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    input_bytes: int = 0
    output_bytes: int = 0
    cache_bytes_written: int = 0

    @property
    def failed(self) -> int:
        return self.succeeded.count(False)

    def throughput(self) -> float:
        return (len(self.latencies) - self.failed) / self.busy_s

    def scaled_latencies(self, speed: HostSpeed) -> list[float]:
        return [lat * speed.factor(start, start + lat) for lat, start in zip(self.latencies, self.starts)]


def serve(cli, workload, checker: ReportChecker, seconds: float, speed: HostSpeed) -> Phase:
    """Closed loop of one client for ``seconds`` of request time.

    The host speed is sampled between requests, outside the timed region.
    """
    phase = Phase()
    speed.sample(EDGE_SAMPLES)
    wall_limit = time.perf_counter() + WALL_LIMIT_FACTOR * seconds
    while phase.busy_s < seconds and time.perf_counter() < wall_limit:
        _serve_one(cli, workload, checker, workload.next_job(), phase)
        speed.sample_if_due()
    speed.sample(EDGE_SAMPLES)
    return phase


def serve_traced(cli, workload, checker: ReportChecker, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Closed loop alternating untraced and traced requests.

    Pool workloads send each job twice, once each way, in alternating order;
    cold_solve cannot repeat a job without hitting the cache, so it pairs
    consecutive jobs.  Both halves see the same mix of work, so their
    throughput gap is the tracing overhead.
    """
    plain, traced = Phase(), Phase()
    wall_limit = time.perf_counter() + WALL_LIMIT_FACTOR * seconds
    pair = 0
    while plain.busy_s + traced.busy_s < seconds and time.perf_counter() < wall_limit:
        first = workload.next_job()
        second = first if workload.replayable else workload.next_job()
        for job, with_trace in ((first, pair % 2 == 1), (second, pair % 2 == 0)):
            if with_trace:
                tracer.request_id = len(traced.latencies)
                before = _dir_bytes(workload.cache_dir)
                with tracer:
                    _serve_one(cli, workload, checker, job, traced)
                traced.cache_bytes_written += _dir_bytes(workload.cache_dir) - before
            else:
                _serve_one(cli, workload, checker, job, plain)
        pair += 1
    return plain, traced


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _serve_one(cli, workload, checker: ReportChecker, job: Job, phase: Phase):
    phase.starts.append(time.perf_counter())
    elapsed, out, problems = send(cli, checker, job, workload.cache_dir)
    phase.latencies.append(elapsed)
    phase.busy_s += elapsed
    phase.succeeded.append(not problems)
    phase.input_bytes += job.input_bytes
    phase.output_bytes += len(out.encode("utf-8"))
    if problems and len(phase.problems) < 5:
        phase.problems.append("%s: %s" % (job.path, "; ".join(problems)))


def _import_cli():
    if not (SRC / "cutplan" / "cli.py").is_file():
        raise SetupError("no cutplan sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import cutplan.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError("imported cutplan from %s, not from %s" % (cli.__file__, SRC))
    return cli


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path = WORK_DIR):
    """Run one workload; returns (result object, human-readable lines)."""
    cli = _import_cli()
    os.environ.pop("CUTPLAN_CACHE_DIR", None)
    work_root.mkdir(parents=True, exist_ok=True)
    sink = LogSink()
    handler = logging.StreamHandler(sink)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root_logger = logging.getLogger()
    saved_level = root_logger.level
    root_logger.addHandler(handler)
    root_logger.setLevel(logging.INFO)
    run_dir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=work_root))
    try:
        return _run(cli, WORKLOADS[name], seed, seconds, trace, run_dir, work_root, sink)
    finally:
        root_logger.removeHandler(handler)
        root_logger.setLevel(saved_level)
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(cli, workload_cls, seed, seconds, trace, run_dir, work_root, sink):
    speed = HostSpeed()
    setup_times, setup_scaled = [], []
    digests = set()
    for k in range(SETUP_REPEATS):
        workdir = run_dir / ("setup%d" % k)
        if k:
            shutil.rmtree(run_dir / ("setup%d" % (k - 1)))
        speed.sample(EDGE_SAMPLES)
        start = time.perf_counter()
        workdir.mkdir()
        digest = inputs.InputDigest()
        workload = workload_cls(seed, workdir, digest)
        workload.warm_up(cli, ReportChecker())
        end = time.perf_counter()
        speed.sample(EDGE_SAMPLES)
        setup_times.append(end - start)
        setup_scaled.append((end - start) * speed.factor(start, end))
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        raise SetupError("set-up is not deterministic: %d different input digests" % len(digests))

    log_lines_before = sink.lines
    lines = [
        "workload %s  seed %d  trace %d" % (workload_cls.name, seed, trace),
        "inputs digest %s (documents plus the first %d requests)" % (digests.pop(), DIGEST_REQUESTS),
        "set-up times %s s (unscaled)" % " ".join("%.3f" % t for t in setup_times),
    ]
    with LpChecker() as lp:
        checker = ReportChecker(lp)
        if not trace:
            phases = [serve(cli, workload, checker, seconds, speed)]
        else:
            from bench_trace import Tracer

            tracer = Tracer()
            untraced, traced = serve_traced(cli, workload, checker, seconds, tracer)
            phases = [untraced, traced]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        lines += ["failed: %s" % text for text in p.problems]

    if not trace:
        phase = phases[0]
        scaled = phase.scaled_latencies(speed)
        metrics = {
            "throughput_rps": (attempted - failed) / sum(scaled),
            "latency_p50_ms": 1000.0 * statistics.median(scaled),
            "latency_p90_ms": 1000.0 * _p90(scaled),
            "success_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        lines += [
            "latency samples %d (%d beyond p90); failure_ratio %.6g; %d diagnostic log lines"
            % (attempted, sum(v > _p90(scaled) for v in scaled), failed / attempted,
               sink.lines - log_lines_before),
            "reference kernel: median %.3f ms over %d samples; timings below are scaled to %.3f ms"
            % (speed.median_ms(), len(speed.seconds), 1000.0 * REFERENCE_S),
            "unscaled: throughput_rps %.6f, latency_p50_ms %.6f, latency_p90_ms %.6f, setup_s %.6f"
            % (phase.throughput(), 1000.0 * statistics.median(phase.latencies),
               1000.0 * _p90(phase.latencies), statistics.median(setup_times)),
        ]
    else:
        metrics, units = _trace_metrics(tracer, traced, untraced)
        trace_path = work_root / "traces" / ("%s-seed%d.jsonl" % (workload_cls.name, seed))
        tracer.write(trace_path)
        lines.append("traced %d requests, %d spans, written to %s"
                     % (len(traced.latencies), len(tracer.spans), trace_path))
        if tracer.missing:
            lines.append("not traced (attribute missing): %s" % ", ".join(sorted(tracer.missing)))

    for metric, value in metrics.items():
        lines.append("  %-40s %14.6f %s" % (metric, value, units[metric]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    return result, lines


def _p90(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def _trace_metrics(tracer, traced: Phase, untraced: Phase):
    from bench_trace import CALL_COUNT_SPANS, SELF_TIME_SPANS

    requests = len(traced.latencies)
    self_ns = tracer.self_times_ns()
    calls = tracer.call_counts()
    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    for span in SELF_TIME_SPANS:
        put(span + ".self_ms", self_ns.get(span, 0) / 1e6 / requests, "ms")
    for span in CALL_COUNT_SPANS:
        put(span + ".calls", calls.get(span, 0) / requests, "count")
    put("cache.hit_ratio", tracer.hits / tracer.lookups if tracer.lookups else 0.0, "ratio")
    put("cache.bytes_written", traced.cache_bytes_written / requests, "bytes")
    put("documents.input_bytes", traced.input_bytes / requests, "bytes")
    put("report.output_bytes", traced.output_bytes / requests, "bytes")
    put("tracing.overhead_ratio", 1.0 - traced.throughput() / untraced.throughput(), "ratio")
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, CheckerError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
