"""Benchmark of the biphoton CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One invocation is one fresh process. It imports ``biphoton`` from the
checkout's ``src/`` and drives the CLI in-process through
``biphoton.cli.main``, with ``workers = 2`` in every config. It repeats the
workload's command sequence (a closed loop with one caller) for about
``--seconds`` seconds, at least twice, each time into a new out directory,
and checks every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced sequences and reports the
per-layer metrics, including the tracing overhead. The last line of stdout
is the JSON result; the line before it records host and input facts and
named warnings. ``--smoke`` runs every workload at a tiny size and checks
the benchmark itself (see ``smoke``).

Inputs come from ``--seed`` alone. Scratch files go to ``.bench_work/`` in
the checkout; the run's out directories and tag file are deleted at exit and
its result and spans are kept under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# setup_s is the median of SETUP_SAMPLES samples spread evenly over the
# whole run (a few before the first sequence, the rest between sequences in
# step with the measured time), because on a shared host the CPU speed
# drifts over tens of seconds and samples taken back to back share one state
SETUP_SAMPLES = 20
SETUP_SAMPLES_BEFORE = 4
SMOKE_SETUP_SAMPLES = 3
SPEEDUP_REPEATS = 3
MIN_SEQUENCES = 2


# Child process for setup_s: interpreter start, importing biphoton.cli and
# parsing the run's config. It prints the monotonic clock, which Linux shares
# across processes, when done.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import biphoton.cli
from biphoton.config import load_config
load_config(sys.argv[2])
print(time.monotonic())
"""


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def setup_sample(config_path: str) -> float:
    """One fresh process's time from start to a parsed config."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, config_path],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def make_tag_file(seed: int, duration_s: float, prefix: str) -> dict:
    """Write the dense tag file in a child process, so its memory stays out
    of this process's peak RSS; return the facts it computed."""
    command = [sys.executable, os.path.join(HERE, "tagfile.py"), "--seed", str(seed)]
    command += ["--duration-s", str(duration_s), "--out", prefix]
    for lo, hi in (workloads.HISTOGRAM_RANGE_PS, workloads.WINDOW_RANGE_PS):
        command += ["--range-ps", str(lo), str(hi)]
    subprocess.run(command, check=True, timeout=300)
    with open(prefix + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def run_sequence(workload, call, config_path: str, out: str, tag_path: str | None):
    """Run the workload's commands in order; return (wall_s, cpu_s, exit codes)."""
    codes = []
    cpu = time.process_time()
    start = time.perf_counter()
    for command in workload.commands:
        argv = [command, "--config", config_path, "--out", out]
        if tag_path:
            argv += ["--tags", tag_path]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(call(argv))
        except Exception:
            traceback.print_exc()
            codes.append(None)
    return time.perf_counter() - start, time.process_time() - cpu, codes


class Tally:
    """Counts of CLI invocations and output checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)


def digest(out: str, run_dir: str) -> str:
    """Hash of every artifact, with the out directory's and the run
    directory's paths masked, so that runs in different processes compare."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read().replace(out.encode(), b"<out>").replace(run_dir.encode(), b"<run>")
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def layer_metrics(recorded: list, wall: float, cpu: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced sequence, as name -> (value, unit)."""
    own = spans.self_times(recorded)
    by_name: dict[str, list] = {}
    for span in recorded:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.info.get(key, 0) for s in by_name.get(name, []))

    sim = by_name.get("simulator.simulate", [])
    sim_busy = sum(s.duration for s in sim)
    sim_union = spans.union_length([(s.start, s.end) for s in sim])
    sim_tags = total("simulator.simulate", "tags")
    fits = by_name.get("fitting.fit", [])
    converged = sum(s.info.get("converged", False) for s in fits)
    pairs = total("correlator.histogram", "pairs")
    starts = total("correlator.histogram", "starts")
    read_mb = total("tagstream.read", "bytes") / 1e6
    cli_s = sum(s.duration for s in by_name.get(spans.ROOT, []))
    return {
        "simulator.simulate_s": (self_s("simulator.simulate"), "s"),
        "simulator.calls": (calls("simulator.simulate"), "count"),
        "simulator.tags_out": (sim_tags, "count"),
        "simulator.tags_per_s": (_ratio(sim_tags, self_s("simulator.simulate")), "1/s"),
        "simulator.concurrency": (_ratio(sim_busy, sim_union), "ratio"),
        "tagstream.read_s": (self_s("tagstream.read"), "s"),
        "tagstream.read_calls": (calls("tagstream.read"), "count"),
        "tagstream.read_mb_per_s": (_ratio(read_mb, self_s("tagstream.read")), "MB/s"),
        "tagstream.channel_times_s": (self_s("tagstream.channel_times"), "s"),
        "tagstream.channel_times_calls": (calls("tagstream.channel_times"), "count"),
        "tagstream.channel_times_tags_scanned": (total("tagstream.channel_times", "scanned"), "count"),
        "correlator.histogram_s": (self_s("correlator.histogram"), "s"),
        "correlator.histogram_calls": (calls("correlator.histogram"), "count"),
        "correlator.pairs": (pairs, "count"),
        "correlator.pairs_per_s": (_ratio(pairs, self_s("correlator.histogram")), "1/s"),
        "correlator.pairs_per_start": (_ratio(pairs, starts), "pairs/start"),
        "correlator.heralded_s": (self_s("correlator.heralded"), "s"),
        "correlator.metrics_s": (self_s("correlator.metrics"), "s"),
        "correlator.window_sweep_s": (self_s("correlator.window_sweep"), "s"),
        "correlator.g2_s": (self_s("correlator.g2"), "s"),
        "correlator.csv_s": (self_s("correlator.csv"), "s"),
        "fitting.fit_s": (self_s("fitting.fit"), "s"),
        "fitting.calls": (len(fits), "count"),
        "fitting.iterations": (sum(s.info.get("iterations", 0) for s in fits), "count"),
        "fitting.converged_ratio": (_ratio(converged, len(fits)), "ratio"),
        "cli.self_s": (self_s(spans.ROOT), "s"),
        "cli.cpu_s": (cpu, "s"),
        "cli.cpu_util": (_ratio(cpu, wall), "cores"),
        "trace.wall_s": (wall, "s"),
        # share of the traced sequence spent inside layer spans; the rest is
        # cli.self_s and the time between commands
        "trace.layer_share": (_ratio(cli_s - self_s(spans.ROOT), wall), "ratio"),
    }


def worker_speedup(kept: dict) -> tuple[float, bool]:
    """Warm ``cross_correlation_histogram`` at 1 and 2 workers on the largest
    traced histogram input: (median time ratio, results bit-exact). Four
    workers are compared by counts only; on 2 cores their wall time measures
    the scheduler."""
    import numpy as np
    from biphoton.correlator import cross_correlation_histogram

    def run(workers):
        start = time.perf_counter()
        hist = cross_correlation_histogram(*kept["args"], **dict(kept["kwargs"], workers=workers))
        return time.perf_counter() - start, hist.counts

    run(2)
    serial, threaded = [], []
    for _ in range(SPEEDUP_REPEATS):
        t1, counts1 = run(1)
        t2, counts2 = run(2)
        serial.append(t1)
        threaded.append(t2)
    _, counts4 = run(4)
    exact = np.array_equal(counts1, counts2) and np.array_equal(counts1, counts4)
    return statistics.median(serial) / statistics.median(threaded), exact


def host_facts() -> dict:
    import numpy as np

    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def benchmark(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "biphoton", "cli.py")):
        print(f"no biphoton sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    smoke = args.size == "smoke"
    run_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _measure(workload, args, smoke, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, args, smoke: bool, run_dir: str) -> int:
    config_path = os.path.join(run_dir, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config(args.seed, smoke))
    setup_target = 0 if args.trace else SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    setup_samples: list[float] = []

    def sample_setup(share: float) -> None:
        """Take setup samples until ``share`` of the run's target is reached."""
        while len(setup_samples) < min(setup_target, share * setup_target):
            setup_samples.append(setup_sample(config_path))

    sample_setup(SETUP_SAMPLES_BEFORE / SETUP_SAMPLES)

    facts: dict = {}
    tag_path = None
    if workload.tag_file_s is not None:
        prefix = os.path.join(run_dir, "tags")
        facts = make_tag_file(args.seed, workload.tag_file_s(smoke), prefix)
        tag_path = prefix + ".bin"

    sys.path.insert(0, SRC)
    import biphoton.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "biphoton"):
        print(f"imported biphoton from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = spans.Tracer()
    kept: dict = {}
    speedup = None

    def keep_largest(result, call_args, call_kwargs):
        if speedup is None and result.n_starts >= kept.get("starts", -1):
            kept.update(starts=result.n_starts, args=call_args, kwargs=call_kwargs)

    def traced_main(argv):
        return tracer.call(spans.ROOT, cli.main, (argv,), {})

    tally = Tally()
    warnings: set[str] = set()
    first = None  # (artifact digest, tags) of the first sequence
    walls, traced = [], []
    # peak RSS up to the end of the first untraced sequence: what one CLI
    # invocation in a fresh process reaches. Later sequences start on heap
    # the allocator kept from earlier ones, which varies with thread timing
    # and which a one-shot CLI call never sees.
    peak_rss_mb = None
    begin = time.perf_counter()
    paused = 0.0  # time spent between sequences on work that is not measured
    last = 0.0
    while len(walls) + len(traced) < MIN_SEQUENCES or (
        time.perf_counter() - begin - paused + last <= args.seconds
    ):
        tracing = bool(args.trace) and len(traced) <= len(walls)
        out = os.path.join(run_dir, f"out{len(walls) + len(traced)}")
        counter = [0]
        if tracing:
            restore = spans.patch(spans.traced_functions(tracer, keep_largest))
        else:
            restore = spans.patch(spans.counted_sources(counter))
        try:
            wall, cpu, codes = run_sequence(
                workload, traced_main if tracing else cli.main, config_path, out, tag_path
            )
        finally:
            restore()
        last = wall
        for command, code in zip(workload.commands, codes):
            tally.record(f"biphoton {command} exits 0 (got {code})", code == 0)

        pause = time.perf_counter()
        if tracing:
            recorded = tracer.take()
            traced.append((recorded, wall, cpu))
            tags = sum(s.info.get("tags", 0) for s in recorded if s.name in spans.SOURCES)
            if kept and speedup is None:
                # measured once, then the input is dropped so that it does
                # not stay resident during later sequences
                speedup, exact = worker_speedup(kept)
                kept.clear()
                tally.record("histogram counts equal with 1, 2 and 4 workers", exact)
        else:
            walls.append(wall)
            tags = counter[0]
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            sample_setup((time.perf_counter() - begin - paused) / args.seconds)
        paused += time.perf_counter() - pause

        try:
            if args.corrupt:
                workload.corrupt(out)
            checks = workload.check(out, facts)
            warnings.update(workload.warnings(out))
            current = (digest(out, run_dir), tags)
        except (OSError, KeyError, ValueError) as exc:
            print(f"output check could not run: {exc!r}", file=sys.stderr)
            checks, current = [("outputs readable", False)], None
        if first is None:
            first = current
        else:
            checks.append(("artifacts and tag count identical to the first sequence", current == first))
        for label, ok in checks:
            tally.record(label, ok)
        shutil.rmtree(out, ignore_errors=True)

    sample_setup(1.0)
    tags_per_sequence = first[1] if first else 0
    if args.trace:
        per_sequence = [layer_metrics(r, w, c) for r, w, c in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_sequence), unit)
            for name, (_, unit) in per_sequence[0].items()
        }
        traced_wall = metrics["trace.wall_s"][0]
        metrics["trace.untraced_wall_s"] = (statistics.median(walls), "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        metrics["correlator.speedup_w2"] = (speedup or 0.0, "x")
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "tags_per_s": (tags_per_sequence / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }

    facts_line = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "sequences": len(walls) + len(traced),
        "sequence_walls_s": [round(w, 4) for w in walls],
        "traced_walls_s": [round(w, 4) for _, w, _ in traced],
        "setup_samples_s": [round(t, 4) for t in setup_samples],
        "host": host_facts(),
        "input": {
            "tags_per_sequence": tags_per_sequence,
            "tag_file_tags": facts.get("tags", 0),
            "tag_file_bytes": facts.get("bytes", 0),
            # int64 time, uint8 channel and uint8 flags per tag held in memory
            "tag_bytes_per_sequence": 10 * tags_per_sequence,
        },
        "note": "tag files are written just before they are read, so reads come from the "
        "page cache; no real disk behaviour is measured"
        if facts
        else "no tag files read",
        "warnings": sorted(warnings),
        # equal for every run of this workload and seed, traced or not
        "artifact_digest": first[0] if first else None,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    emit(facts_line, result, traced)
    return 0


def emit(facts_line: dict, result: dict, traced: list) -> None:
    """Keep the result (and the spans of a traced run) under .bench_work/results,
    then print the facts line and, last, the result line."""
    for warning in facts_line["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "{workload}-seed{seed}-trace{trace}".format(**facts_line)
    stem = os.path.join(results_dir, f"{stem}-{os.getpid()}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts_line, "result": result}, fh, indent=1)
    if traced:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump([[asdict(span) for span in r] for r, _, _ in traced], fh)
    print(json.dumps(facts_line))
    print(json.dumps(result))


def _child(workload: str, trace: int, corrupt: bool = False) -> tuple[dict, dict]:
    """Run one smoke-size invocation; return its (facts, result) lines."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "1"]
    command += ["--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    facts, result = done.stdout.splitlines()[-2:]
    return json.loads(facts), json.loads(result)


def smoke() -> int:
    """Run every workload at a tiny size, traced and untraced. Check that each
    emits exactly the metrics BENCHMARK.json declares, with their units, that
    every end-to-end value is above zero, that its outputs pass, that the
    traced and the untraced process wrote byte-identical artifacts, and that
    a deliberately corrupted output fails its check."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if {w["name"] for w in declared["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name in workloads.WORKLOADS:
        try:
            digests = set()
            for trace in (0, 1):
                facts, result = _child(name, trace)
                digests.add(facts["artifact_digest"])
                got = {key: value["unit"] for key, value in result["metrics"].items()}
                if got != wanted[trace]:
                    differ = sorted(set(got.items()) ^ set(wanted[trace].items()))
                    problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: {differ}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed")
                if trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
                    problems.append(f"{name}: an end-to-end metric is not above zero")
            if len(digests) != 1:
                problems.append(f"{name}: artifacts differ between two processes with one seed")
            _, corrupted = _child(name, 0, corrupt=True)
            if corrupted["correct"] or not corrupted["failed"]:
                problems.append(f"{name}: a corrupted output passed its checks")
        except RuntimeError as exc:
            problems.append(str(exc))
        print(f"smoke {name}: done", flush=True)
    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark of the biphoton CLI")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt", action="store_true", help="damage each output before checking it")
    parser.add_argument("--smoke", action="store_true", help="self-test at a tiny size")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seed < 0:
        parser.error("--workload, --seed (>= 0), --seconds and --trace are required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
