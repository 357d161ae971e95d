"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from checks import Expected, load_digests, verdicts_digest  # noqa: E402
from monoterm.gen import generate_corpus  # noqa: E402
from workloads import PRIMARY_SEED, WORKLOADS, build_corpus, corpus_digest, write_corpus  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("MONOTERM_MAX_STEPS", None)


def small(name: str) -> "Workload":  # noqa: F821
    """The workload at a twentieth of its size."""
    w = WORKLOADS[name]
    return dataclasses.replace(w, mix_count=w.mix_count // 20, alt_count=w.alt_count // 20)


def exact_counts(name: str, seed: int) -> list[dict]:
    """Exact counts and tallies of one traced pass over the small corpus, in a fresh process."""
    script = (
        "import json, sys, tempfile; from pathlib import Path; "
        "import test_perfbench as t, tracing, run; "
        f"w = t.small({name!r}); d = Path(tempfile.mkdtemp()) / 'c'; "
        f"files = t.build_corpus(w, {seed}); t.write_corpus(files, d); "
        "tr = tracing.Tracer(); paths = [d / n for n, _ in files]\n"
        "with tracing.installed(tr): r = tracing.run_pass(paths, w.oracle, tr)\n"
        "out = json.dumps(r.records, indent=2).encode(); t.shutil.rmtree(d.parent)\n"
        "print(json.dumps([tracing.exact_counts(tr, r, run.timing_free_size(out)), "
        "tracing.tallies(r)]))"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=ENV,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in WORKLOADS:
            w = small(name)
            self.assertEqual(build_corpus(w, 7), build_corpus(w, 7), name)
            self.assertNotEqual(build_corpus(w, 7), build_corpus(w, 8), name)

    def test_gen_cli_writes_generate_corpus_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run(
                [sys.executable, "-m", "monoterm.cli", "gen", tmp, "--seed", str(PRIMARY_SEED),
                 "--count", "200", "--bound", "20"],
                env=ENV, check=True, capture_output=True,
            )
            written = sorted((p.name, p.read_text()) for p in Path(tmp).glob("*.loop"))
        self.assertEqual(written, sorted(generate_corpus(PRIMARY_SEED, 200, "mix", bound=20)))

    def test_recorded_corpus_and_verdicts_agree(self):
        digests = load_digests()
        for name, w in WORKLOADS.items():
            expected = Expected(name, PRIMARY_SEED)
            self.assertIsNotNone(expected.table, name)
            recorded = digests[name][str(PRIMARY_SEED)]
            self.assertEqual(corpus_digest(build_corpus(w, PRIMARY_SEED)), recorded["corpus"])
            self.assertEqual(verdicts_digest(list(expected.table.values())), recorded["verdicts"])
            self.assertEqual(len(expected.table), w.size)


class ExactCountsTest(unittest.TestCase):
    def test_counts_repeat_across_processes(self):
        for name in ("alternation", "oracle-mix"):
            first, second = exact_counts(name, PRIMARY_SEED), exact_counts(name, PRIMARY_SEED)
            self.assertEqual(first, second, name)
            counts = first[0]
            self.assertGreater(counts["multipath.walk_jumps_sum"], 0)
            self.assertGreater(counts["psi.escape_region_calls"], 0)
            self.assertGreater(counts["model.cycle_values_sum"], 0)
        self.assertGreater(counts["interpreter.oracle_steps"], 0)

    def test_bench_output_size_repeats(self):
        w = small("alternation")
        with tempfile.TemporaryDirectory() as tmp:
            write_corpus(build_corpus(w, PRIMARY_SEED), Path(tmp) / "c")
            sizes = {
                run.timing_free_size(subprocess.run(
                    [sys.executable, "-m", "monoterm.cli", "bench", "c", "--format", "json"],
                    cwd=tmp, env=ENV, check=True, capture_output=True,
                ).stdout)
                for _ in range(2)
            }
        self.assertEqual(len(sizes), 1)


class HelpersTest(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples(self):
        self.assertEqual(run.tail_percentile(150), 90.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(3000), 99.0)

    def test_timing_free_size_ignores_decision_digits(self):
        a = b'[{"decision_ms": 0.012345, "x": 1}]'
        b = b'[{"decision_ms": 12.5, "x": 1}]'
        self.assertEqual(run.timing_free_size(a), run.timing_free_size(b))

    def test_rule_families_cover_every_verdict(self):
        self.assertEqual(len(set(tracing.FAMILIES)), len(tracing.FAMILIES))
        self.assertEqual(set(tracing.LAYER_OF_SPAN.values()), set(tracing.LAYERS))


class CommandTest(unittest.TestCase):
    """The command as the benchmark contract runs it."""

    def run_bench(self, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
            text=True, timeout=180,
        )

    def declared(self, key: str) -> dict[str, str]:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[key]}

    def check_result(self, done: subprocess.CompletedProcess, declared: dict) -> None:
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)

    def test_workloads_as_declared(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {w["name"]: w["why"] for w in spec["workloads"]}
        self.assertEqual(declared, {name: w.why for name, w in WORKLOADS.items()})

    def test_end_to_end_metrics_as_declared(self):
        done = self.run_bench("--workload", "oracle-mix", "--seed", str(PRIMARY_SEED),
                              "--seconds", "1", "--trace", "0")
        self.check_result(done, self.declared("end_to_end"))
        for metric in json.loads(done.stdout.splitlines()[-1])["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_as_declared(self):
        done = self.run_bench("--workload", "oracle-mix", "--seed", str(PRIMARY_SEED),
                              "--seconds", "1", "--trace", "1")
        self.check_result(done, self.declared("per_layer"))
        context = json.loads(done.stdout.splitlines()[-2][2:])
        self.assertEqual(context["largest_layer"], "oracle")

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = self.run_bench("--workload", "oracle-mix", "--seed", "1", "--seconds", "1",
                                  "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
