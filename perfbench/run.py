#!/usr/bin/env python3
"""monoterm benchmark: end-to-end CLI metrics, or a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload alternation --seed 55 --seconds 55 --trace 0

The workload's corpus is generated from --seed and written under
.perfbench_work/.  With --trace 0 the real CLI runs as one child process
at a time, process start included: `monoterm bench DIR --format json`
over each directory of the corpus in turn, repeatedly, interleaved with
`monoterm analyze FILE` on a seeded sample of the files.  With --trace 1
the same corpus goes through in-process passes, untraced and traced (see
tracing.py), for the per-layer split.

Every verdict is checked: against the expected verdicts recorded for the
seed (expected/), and against the bounded interpreter.  Lines starting
with '#' describe the run; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The run
exits 1 when an output was wrong and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative: the run works in ROOT, and output names files relative to it

# Keeps a run inside the 180 s a run may take, whatever --seconds says.
RUN_DEADLINE_S = 170.0
# Every timing is repeated, and a repeated timing is reported as the fastest
# repetition.  On the host this benchmark was tuned on, one heavy decision
# takes 1.2-1.9x its fastest time from one sample to the next, and the speed
# changes within a second.  Noise only ever adds time, so the fastest of many
# samples is steady where a median is not: the fastest of ~30 samples per file
# moved the tail by 4% between 35 s stretches, the median of the same samples
# by 14%, and the fastest of 9 samples by 9%.  A full round over the corpus
# gives each file one sample, so the files that decide the two percentiles
# reported (the slowest in the first round, and those nearest its median) are
# written once more into a directory of their own, which `bench` decides again
# and again (RESAMPLE_SHARE of the run).  Samples alternate between the CPUs
# (see CPUS), so a CPU that stays slow for a whole run does not show.
MIN_ROUNDS = 2
ANALYZE_FILES = 5
MIN_ANALYZE_PER_FILE = 3
ANALYZE_SHARE = 0.15
# The resample directory holds this many times the number of files beyond the
# tail percentile, and MEDIAN_BAND of all files on each side of the median.
TAIL_FILES_FACTOR = 2
MEDIAN_BAND = 0.05
RESAMPLE_SHARE = 0.4
MIN_RESAMPLE_RUNS = 5
SETUP_SHARE = 0.08
IMPORT_REPS = 7
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# Prints the time build_corpus takes and the digest of what it built.
SETUP_SCRIPT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from workloads import WORKLOADS, build_corpus, corpus_digest; "
    "w, seed = WORKLOADS[sys.argv[2]], int(sys.argv[3]); start = time.perf_counter(); "
    "files = build_corpus(w, seed); print(time.perf_counter() - start, corpus_digest(files))"
)

E2E_UNITS = {
    "setup_s": "s",
    "loops_per_s": "loops/s",
    "decide_ms_p50": "ms",
    "decide_ms_tail": "ms",
    "analyze_s": "s",
    "output_mb": "MB",
    "peak_rss_mb": "MB",
}
_UNIT_SUFFIXES = {"_ms": "ms", "_ms_sum": "ms", "_ms_p50": "ms", "_ms_p95": "ms",
                  "_ms_max": "ms", "_us_p50": "us", "_share": "ratio", "_per_s": "steps/s"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return unit
    return "bytes" if name.endswith("bytes") or "bytes_" in name else "count"


# The CPUs this run may use, set in main().  A run uses one at a time:
# each child process, and each set-up sample, is pinned to the next one in
# turn, so that every repeated timing has samples on each CPU and its
# fastest repetition is the faster CPU's.  On the host this was tuned on,
# one CPU ran a fixed loop at half the other's speed for 20 s of a 30 s
# probe, and both ran it at the same speed for the rest.
CPUS: list[int] = []


def pin(turn: int) -> None:
    """Pin this process, and the children it starts from now on, to CPU `turn` in turn."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: bytes


def run_child(argv: list[str], deadline: float, env: dict) -> Child:
    """Run one child process to completion; kill it if it outlives the deadline.

    Standard output goes through a pipe, read to its end before the child is
    reaped, so a run leaves no large files for the page cache to flush.
    """
    with open(WORK / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def timing_free_size(output: bytes) -> int:
    """Output size with every decision_ms value written as 0, so it repeats exactly."""
    return len(re.sub(rb'"decision_ms": [-+.eE0-9]+', b'"decision_ms": 0', output))


def tail_percentile(n: int) -> float:
    """Highest listed percentile that leaves at least ten of n samples beyond it."""
    return next(p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10)


def read_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


class Run:
    """State of one benchmark run: corpus, checks and failure accounting."""

    def __init__(self, workload, seed: int, seconds: int):
        from checks import Expected
        from workloads import build_corpus, corpus_digest, write_corpus

        self.workload, self.seed, self.seconds = workload, seed, seconds
        # --seconds bounds the whole run, preparation and checks included
        self.started = time.perf_counter()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "MONOTERM_MAX_STEPS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.files = build_corpus(workload, seed)
        self.names = [name for name, _ in self.files]
        self.texts = dict(self.files)
        self.digest = corpus_digest(self.files)
        self.expected = Expected(workload.name, seed)
        if self.expected.corpus_digest and self.expected.corpus_digest != self.digest:
            self.notes.append("corpus differs from the one recorded for this seed")
        # The corpus is split into directories of workload.chunk files; each
        # `bench` process decides one of them.
        corpus = WORK / "corpus"
        shutil.rmtree(corpus, ignore_errors=True)
        self.chunks: list[tuple[Path, list[str]]] = []
        for start in range(0, len(self.files), workload.chunk):
            part = self.files[start:start + workload.chunk]
            directory = corpus / str(len(self.chunks))
            write_corpus(part, directory)
            self.chunks.append((directory, [name for name, _ in part]))
        self.path_of = {name: d / name for d, names in self.chunks for name in names}
        self.reference: dict = {}
        self.reference_records: list[dict] = []
        self.oracle_checked = False
        self.time_setup()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def time_setup(self) -> None:
        """Generate the corpus once more in a fresh process, timed, and check its digest.

        Set-up time counts generating the corpus, not writing it: creating the
        same few thousand files takes 0.1 s or 1.9 s on the shared disk this
        was tuned on, depending on the minute.  A fresh process keeps this
        run's own heap, and collecting it, out of the timing.
        """
        pin(len(self.setup_times))
        child = run_child([sys.executable, "-c", SETUP_SCRIPT, str(Path(__file__).parent),
                           self.workload.name, str(self.seed)], self.deadline, self.env)
        try:
            seconds, digest = child.stdout.split()
            self.setup_times.append(float(seconds))
        except ValueError:
            raise SystemExit(f"error: timed set-up failed with exit {child.exit_code}")
        if digest.decode() != self.digest:
            self.notes.append("corpus generation is not deterministic")

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "monoterm.cli", *args]

    def check_gen_cli(self) -> None:
        """`monoterm gen` must write the same bytes as the in-process generator."""
        w = self.workload
        if not w.mix_count:
            return
        gen_dir = WORK / "gen"
        shutil.rmtree(gen_dir, ignore_errors=True)
        child = run_child(
            self.cli("gen", str(gen_dir), "--seed", str(self.seed), "--count", str(w.mix_count),
                     "--bound", str(w.mix_bound)),
            self.deadline, self.env,
        )
        mix = [(n, t) for n, t in self.files if not n.startswith("alt_")]
        written = sorted((p.name, p.read_text()) for p in gen_dir.glob("*.loop"))
        if child.exit_code != 0 or written != sorted(mix):
            self.notes.append("monoterm gen output differs from generate_corpus")

    def failures(self, records: list[dict], names: list[str]) -> dict[str, str]:
        """{file: reason} for one output that should hold a record for each of names."""
        from checks import record_failures, verdict_key

        bad = record_failures(records, names)
        keys = {Path(r["file"]).name: verdict_key(r) for r in records}
        for record in records:
            name = Path(record["file"]).name
            if name not in self.reference:
                self.reference[name] = keys[name]
                self.reference_records.append(record)
        for name in self.expected.table_mismatches(keys):
            bad.setdefault(name, "verdict differs from the expected verdicts")
        for name, key in keys.items():
            if self.reference[name] != key:
                bad.setdefault(name, "verdict differs between runs")
        if self.notes:
            bad = {name: self.notes[0] for name in names}
        return bad

    def oracle_pass(self) -> None:
        """Untimed: the bounded interpreter checks the first verdict seen for every file.

        Workloads run with --oracle-check have it inside `bench` instead.
        """
        from checks import oracle_disagreements

        if self.workload.oracle or self.oracle_checked:
            return
        self.oracle_checked = True
        bad = oracle_disagreements(self.reference_records, self.texts)
        self.account(0, {name: f"oracle: {reason}" for name, reason in bad.items()})

    def finish_checks(self) -> None:
        """Checks made once, untimed, on the first verdict seen for every file."""
        if len(self.reference) == len(self.names) and not self.expected.digest_matches(
            self.reference
        ):
            self.account(0, {n: "verdicts differ from the recorded digest" for n in self.names})
        self.oracle_pass()

    def account(self, attempted: int, bad: dict[str, str]) -> None:
        self.attempted += attempted
        self.failed += len(bad)
        for name, reason in list(bad.items())[:5]:
            print(f"# FAIL {name}: {reason}")

    def context(self, extra: dict) -> dict:
        from workloads import HELD_OUT_SEED, PRIMARY_SEED

        return {
            "workload": self.workload.name,
            "why": self.workload.why,
            "params": self.workload.params(),
            "files": len(self.names),
            "seed": self.seed,
            "primary_seed": PRIMARY_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "corpus_sha256": self.digest,
            "expected": self.expected.source,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": read_commit(),
            "seconds": self.seconds,
            "failed_share": self.failed / self.attempted if self.attempted else 0.0,
            "notes": self.notes,
            **extra,
        }


def measure_end_to_end(run: Run) -> tuple[dict, dict]:
    """Time `bench` and `analyze` child processes for --seconds; return metrics, context."""
    from checks import verdict_key
    from tracing import percentile
    from workloads import write_corpus

    w = run.workload
    oracle_flag = ["--oracle-check"] if w.oracle else []
    sample = random.Random(run.seed).sample(run.names, min(ANALYZE_FILES, len(run.names)))
    # one untimed call compiles the package's bytecode before anything is timed
    run_child(run.cli("analyze", str(run.path_of[sample[0]]), "--format", "json"),
              run.deadline, run.env)

    n = len(run.names)
    tail_p = tail_percentile(n)
    walls = [[] for _ in run.chunks]
    rss = [[] for _ in run.chunks]
    sizes = [[] for _ in run.chunks]
    decision_ms: dict[str, list[float]] = {name: [] for name in run.names}
    analyze_walls: dict[str, list[float]] = {name: [] for name in sample}
    resample_dir: Path | None = None
    resample_names: list[str] = []
    resample_walls: list[float] = []
    next_chunk = rounds = analyzed = 0
    t_bench = t_analyze = t_resample = 0.0

    def bench(directory: Path, names: list[str]) -> Child:
        """One `bench` process over one directory; its records are checked and kept."""
        child = run_child(run.cli("bench", str(directory), "--format", "json", *oracle_flag),
                          run.deadline, run.env)
        try:
            records = json.loads(child.stdout) if child.exit_code == 0 else None
        except ValueError:
            records = None
        if records is None:
            run.account(len(names), {f: f"bench exit {child.exit_code}" for f in names})
            return child
        run.account(len(names), run.failures(records, names))
        for record in records:
            decision_ms[Path(record["file"]).name].append(record["decision_ms"])
        return child

    while time.monotonic() < run.deadline - 20:
        need_bench = rounds < MIN_ROUNDS
        need_analyze = analyzed < MIN_ANALYZE_PER_FILE * len(sample)
        need_resample = len(resample_walls) < MIN_RESAMPLE_RUNS
        total = t_bench + t_analyze + t_resample
        if run.elapsed() >= run.seconds:
            if not (need_bench or need_analyze or need_resample):
                break
            do_analyze = not need_bench and need_analyze
            do_resample = not need_bench and not do_analyze and need_resample
        else:
            # analyze only once every file has a verdict from bench to compare with
            do_analyze = rounds > 0 and t_analyze < ANALYZE_SHARE * total
            do_resample = rounds > 0 and t_resample < RESAMPLE_SHARE * total
            bench_runs = rounds * len(run.chunks) + next_chunk
            if need_bench and bench_runs:
                # the rounds still needed come first when they would not
                # otherwise end within --seconds
                left = MIN_ROUNDS * len(run.chunks) - bench_runs
                if run.elapsed() + left * t_bench / bench_runs >= run.seconds:
                    do_analyze = do_resample = False
        if do_analyze:
            name = sample[analyzed % len(sample)]
            pin(analyzed // len(sample))
            analyzed += 1
            child = run_child(
                run.cli("analyze", str(run.path_of[name]), "--format", "json", *oracle_flag),
                run.deadline, run.env,
            )
            t_analyze += child.wall_s
            analyze_walls[name].append(child.wall_s)
            bad = {}
            try:
                record = json.loads(child.stdout)
                if child.exit_code not in (0, 1) or verdict_key(record) != run.reference[name]:
                    bad[name] = f"analyze exit {child.exit_code} or verdict differs from bench"
            except (ValueError, KeyError, TypeError, AttributeError):
                bad[name] = f"analyze exit {child.exit_code}, unreadable output"
            run.account(1, bad)
            continue
        if do_resample:
            if resample_dir is None:
                # the files slowest in the first round and those nearest its
                # median, written once more, untimed
                beyond = n - int(tail_p / 100.0 * n)
                band = int(MEDIAN_BAND * n)
                ranked = sorted(run.names, key=lambda f: -min(decision_ms[f], default=0.0))
                resample_names = sorted(set(ranked[:TAIL_FILES_FACTOR * beyond])
                                        | set(ranked[n // 2 - band:n // 2 + band]))
                resample_dir = WORK / "corpus" / "resample"
                shutil.rmtree(resample_dir, ignore_errors=True)
                write_corpus([(f, run.texts[f]) for f in resample_names], resample_dir)
            pin(len(resample_walls))
            child = bench(resample_dir, resample_names)
            t_resample += child.wall_s
            resample_walls.append(child.wall_s)
            continue

        directory, names = run.chunks[next_chunk]
        pin(next_chunk + rounds)
        child = bench(directory, names)
        t_bench += child.wall_s
        walls[next_chunk].append(child.wall_s)
        rss[next_chunk].append(child.peak_rss_mb)
        sizes[next_chunk].append(timing_free_size(child.stdout))
        next_chunk = (next_chunk + 1) % len(run.chunks)
        if next_chunk == 0:
            rounds += 1
            run.oracle_pass()
            # set-up samples are spread over the run, between rounds
            if sum(run.setup_times) < SETUP_SHARE * (t_bench + t_analyze + t_resample):
                run.time_setup()

    per_file = [min(times) for times in decision_ms.values() if times]
    analyze = [min(times) for times in analyze_walls.values() if times]
    if rounds == 0 or len(per_file) < n or not analyze or not resample_walls:
        raise SystemExit("error: deadline reached before a measurement completed")
    metrics = {
        "setup_s": min(run.setup_times),
        "loops_per_s": n / sum(min(chunk_walls) for chunk_walls in walls),
        "decide_ms_p50": statistics.median(per_file),
        "decide_ms_tail": percentile(per_file, tail_p),
        "analyze_s": statistics.median(analyze),
        "output_mb": sum(statistics.median(s) for s in sizes) / 1e6,
        "peak_rss_mb": max(statistics.median(r) for r in rss),
    }
    context = {
        "bench_dirs": len(run.chunks),
        "bench_rounds": rounds,
        "bench_wall_s": walls,
        "resample_files": len(resample_names),
        "resample_wall_s": resample_walls,
        "analyze_calls": analyzed,
        "analyze_sample": sample,
        "setup_samples": len(run.setup_times),
        "decide_ms_tail_percentile": tail_p,
        "decide_ms_files": len(per_file),
        "output_bytes_exact": [sorted(set(s)) for s in sizes],
    }
    return metrics, context


def import_ms(run: Run) -> float:
    """Fresh `import monoterm.cli` minus a bare interpreter start, fastest of interleaved runs."""
    bare, full = [], []
    for rep in range(IMPORT_REPS):
        pin(rep)
        bare.append(run_child([sys.executable, "-c", "pass"], run.deadline, run.env).wall_s)
        full.append(run_child([sys.executable, "-c", "import monoterm.cli"],
                              run.deadline, run.env).wall_s)
    return (min(full) - min(bare)) * 1000.0


def measure_layers(run: Run) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes for --seconds; return metrics, context."""
    import tracing

    w = run.workload
    paths, names = [run.path_of[name] for name in run.names], run.names
    imp_ms = import_ms(run)
    untraced, traced, layer_runs, counts = [], [], [], []
    tracer = result = None
    missing: list[str] = []
    pair_s = 0.0
    # another untraced and traced pair only if it ends within --seconds
    while not traced or (run.elapsed() + pair_s < run.seconds
                         and time.monotonic() + pair_s < run.deadline - 10):
        pair_start = time.perf_counter()
        pin(len(untraced))
        plain = tracing.run_pass(paths, w.oracle)
        untraced.append(plain.seconds)
        run.account(len(names), run.failures(plain.records, names))
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as missing:
            result = tracing.run_pass(paths, w.oracle, tracer)
        traced.append(result.seconds)
        run.account(len(names), run.failures(result.records, names))
        layer_runs.append(tracing.layer_times(tracer, result))
        output = json.dumps(result.records, indent=2).encode()
        counts.append(tracing.exact_counts(tracer, result, timing_free_size(output)))
        run.oracle_pass()
        pair_s = time.perf_counter() - pair_start

    metrics = {key: statistics.median(r[key] for r in layer_runs) for key in layer_runs[0]}
    metrics.update(counts[-1])
    metrics["cli.import_ms"] = imp_ms
    oracle_s = metrics["interpreter.oracle_ms"] / 1000.0
    steps = metrics["interpreter.oracle_steps"]
    metrics["interpreter.steps_per_s"] = steps / oracle_s if oracle_s else 0.0
    tally = tracing.tallies(result)
    checked = tally["oracle.checked"]
    metrics["interpreter.confirmed_share"] = tally["oracle.confirmed"] / checked if checked else 0.0
    metrics["trace.overhead_share"] = min(traced) / min(untraced) - 1.0

    spans_path = WORK / f"spans-{w.name}-{run.seed}.tsv"
    tracer.write_tsv(spans_path)
    layers = tracing.layer_self_ms(tracer)
    context = {
        "passes": len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layer_self_ms": layers,
        "largest_layer": max(layers, key=layers.get),
        "exact_counts_repeat": all(c == counts[0] for c in counts),
        "tallies": tally,
        "unwrapped": missing,
        "spans_file": str(spans_path),
    }
    return metrics, context


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "monoterm" / "cli.py").is_file():
        print(f"error: the program is not there: {SRC / 'monoterm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    CPUS[:] = sorted(os.sched_getaffinity(0))
    pin(0)
    marks = [time.perf_counter()]
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    run.check_gen_cli()
    marks.append(time.perf_counter())
    if args.trace:
        metrics, extra = measure_layers(run)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, extra = measure_end_to_end(run)
        units = E2E_UNITS
    marks.append(time.perf_counter())
    run.finish_checks()
    marks.append(time.perf_counter())
    phases = ("prepare", "measure", "final_checks")
    extra["phase_s"] = {name: b - a for name, a, b in zip(phases, marks, marks[1:])}
    context = run.context(extra)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "metrics": metrics}, indent=2)
    )
    print("# " + json.dumps(context))
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
