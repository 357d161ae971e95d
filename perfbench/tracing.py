"""In-process passes over a corpus, untraced and traced, and the per-layer split.

A pass does what `monoterm bench DIR --format json` does for each file
(read, parse, decide, to_json, optionally the oracle) and then serializes
all records, calling only the package's public functions.  The traced
pass additionally installs span wrappers around public names inside the
package at run time (nothing under src/ changes), so calls between
layers are timed where they happen:

    file -> read | parse | decide | to_json | oracle        (spans opened here)
    decide -> decide.<shape> -> classify | walk | escape_region | nt_formula | search

Spans stay in memory, in parallel arrays, until the pass ends.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from monoterm.analyzer import decide
from monoterm.interpreter import (
    BoundExhausted,
    CycleDetected,
    TerminatedIn,
    agreement_check,
)
from monoterm.model import (
    CycleWitness,
    DiagonalLoop,
    MultiPathLoop,
    NonTerminating,
    Terminating,
    Unsupported,
)
from monoterm.parser import parse

SHAPES = ("single", "diagonal", "multipath")
FAMILIES = (
    "t3_alt", "t3_other", "diag_search", "diag_other", "lemma1",
    "term_single", "term_diagonal", "term_multipath", "unsupported",
)
ALT_RULES = frozenset(f"T3-row{row}" for row in (21, 22, 23, 24))

# Which layer each span's self time belongs to.
LAYER_OF_SPAN = {
    "read": "io", "dumps": "io",
    "parse": "parse",
    "classify": "classify",
    "decide": "decide", "decide.single": "decide", "decide.diagonal": "decide",
    "decide.multipath": "decide", "nt_formula": "decide", "search": "decide",
    "walk": "walk", "escape_region": "psi",
    "to_json": "to_json",
    "oracle": "oracle",
}
LAYERS = ("parse", "io", "classify", "decide", "walk", "psi", "to_json", "oracle")

# (module, global name, span name): call sites inside the package to wrap.
# "walk" also reads the jump count through accelerated_walk's `trace=` hook.
WRAP_TARGETS = (
    ("monoterm.analyzer", "classify", "classify"),
    ("monoterm.analyzer", "decide_single", "decide.single"),
    ("monoterm.analyzer", "decide_diagonal_program", "decide.diagonal"),
    ("monoterm.analyzer", "decide_multipath", "decide.multipath"),
    ("monoterm.multipath", "classify", "classify"),
    ("monoterm.diagonal", "classify", "classify"),
    ("monoterm.multipath", "accelerated_walk", "walk"),
    ("monoterm.multipath", "escape_region", "escape_region"),
    ("monoterm.diagonal", "escape_region", "escape_region"),
    ("monoterm.single", "escape_region", "escape_region"),
    ("monoterm.multipath", "nt_formula", "nt_formula"),
    ("monoterm.diagonal", "search_decide", "search"),
    ("monoterm.diagonal", "rg_rg_rule", "search"),
)


class NullTracer:
    """Span interface that records nothing: the untraced pass."""

    file_id = -1

    def open(self, name: str) -> int:
        return -1

    def close(self, span: int, value: int = 0) -> None:
        pass


class Tracer:
    """Spans kept in memory as parallel arrays indexed by span id.

    Each span has a name, start, end, parent span and the id of the file
    being processed, which all spans of one file share.  `value` carries a
    count measured at the span (walk jumps).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.file = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.value = array("q")
        self._stack: list[int] = []
        self.file_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(nid)
        self.file.append(self.file_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.child.append(0)
        self.value.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def close(self, span: int, value: int = 0) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.end[span] = end
        self.value[span] = value
        parent = self.parent[span]
        if parent >= 0:
            self.child[parent] += end - self.start[span]

    def duration_ns(self, span: int) -> int:
        return self.end[span] - self.start[span]

    def self_ns(self, span: int) -> int:
        return self.end[span] - self.start[span] - self.child[span]

    def write_tsv(self, path: Path) -> None:
        """Write every span: file, id, parent, name, start_ns, end_ns."""
        with path.open("w") as out:
            out.write("file\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.file[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )


def _wrap(tracer: Tracer, name: str, fn):
    """Span around every call of fn."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return traced


def _wrap_walk(tracer: Tracer, fn):
    """Walk span whose value is the jump count, read through the `trace=` hook."""

    @functools.wraps(fn)
    def traced(*args, trace=None, **kwargs):
        jumps = [] if trace is None else trace
        span = tracer.open("walk")
        try:
            return fn(*args, trace=jumps, **kwargs)
        finally:
            tracer.close(span, len(jumps))

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the wrap targets for the duration of the block.

    Yields the targets that do not exist in this version of the package;
    their metrics then read 0.
    """
    originals, missing = [], []
    for module_name, attr, span_name in WRAP_TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        originals.append((module, attr, fn))
        wrap = _wrap_walk if span_name == "walk" else functools.partial(_wrap, name=span_name)
        setattr(module, attr, wrap(tracer, fn=fn))
    try:
        yield missing
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def oracle_json(agreement) -> dict:
    """The `oracle` field of a CLI record."""
    result = agreement.oracle
    if isinstance(result, TerminatedIn):
        outcome, steps = "terminated", result.steps
    elif isinstance(result, CycleDetected):
        outcome, steps = "cycle", result.period
    else:
        outcome, steps = "bound-exhausted", result.steps
    out = {"outcome": outcome, "steps": steps, "agrees": agreement.ok}
    if agreement.note:
        out["note"] = agreement.note
    if agreement.details:
        out["details"] = agreement.details
    return out


@dataclass
class PassResult:
    seconds: float
    records: list[dict]
    items: list[tuple]  # (text, program, verdict, agreement) per file
    decide_spans: list[int]
    parse_spans: list[int]


def run_pass(paths: list[Path], oracle: bool, tracer=None) -> PassResult:
    """One in-process pass over the corpus, shaped like `monoterm bench --format json`."""
    if tracer is None:
        tracer = NullTracer()
    records: list[dict] = []
    items: list[tuple] = []
    decide_spans: list[int] = []
    parse_spans: list[int] = []
    start = time.perf_counter()
    for file_id, path in enumerate(paths):
        tracer.file_id = file_id
        root = tracer.open("file")
        span = tracer.open("read")
        text = path.read_text()
        tracer.close(span)
        span = tracer.open("parse")
        program = parse(text)
        tracer.close(span)
        parse_spans.append(span)
        span = tracer.open("decide")
        t0 = time.perf_counter()
        verdict = decide(program)
        decision_ms = (time.perf_counter() - t0) * 1000.0
        tracer.close(span)
        decide_spans.append(span)
        span = tracer.open("to_json")
        record = {"file": str(path), **verdict.to_json(), "decision_ms": round(decision_ms, 6)}
        tracer.close(span)
        agreement = None
        if oracle and not isinstance(verdict, Unsupported):
            span = tracer.open("oracle")
            agreement = agreement_check(program, verdict)
            tracer.close(span)
            record["oracle"] = oracle_json(agreement)
        tracer.close(root)
        records.append(record)
        items.append((text, program, verdict, agreement))
    tracer.file_id = -1
    span = tracer.open("dumps")
    json.dumps(records, indent=2)
    tracer.close(span)
    seconds = time.perf_counter() - start
    return PassResult(seconds, records, items, decide_spans, parse_spans)


def shape_of(program) -> str:
    if isinstance(program.shape, MultiPathLoop):
        return "multipath"
    if isinstance(program.shape, DiagonalLoop):
        return "diagonal"
    return "single"


def rule_family(shape: str, verdict) -> str:
    if isinstance(verdict, Unsupported):
        return "unsupported"
    if isinstance(verdict, Terminating):
        return f"term_{shape}"
    if shape == "single":
        return "lemma1"
    if shape == "diagonal":
        rule = verdict.rule
        return "diag_search" if rule.startswith("T2-") or rule == "diag-rg-rg" else "diag_other"
    return "t3_alt" if verdict.rule in ALT_RULES else "t3_other"


def oracle_steps(agreement) -> int:
    """Loop iterations the interpreter executed for one check."""
    result = agreement.oracle
    if isinstance(result, CycleDetected):
        return result.entry.step + result.period
    return result.steps


def _ms(ns: float) -> float:
    return ns / 1e6


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


def exact_counts(tracer: Tracer, result: PassResult, output_bytes: int) -> dict[str, int]:
    """Per-layer counts that depend only on the corpus and the program, never on timing."""
    calls = {name: 0 for name in tracer.names}
    jumps = []
    walk_id = tracer._name_ids.get("walk")
    for i in range(len(tracer)):
        calls[tracer.names[tracer.name[i]]] += 1
        if tracer.name[i] == walk_id:
            jumps.append(tracer.value[i])
    witness_bytes, cycle_values = [], []
    for _, _, verdict, _ in result.items:
        if isinstance(verdict, NonTerminating):
            witness_bytes.append(len(json.dumps(verdict.witness.to_json())))
            if isinstance(verdict.witness, CycleWitness):
                cycle_values.append(len(verdict.witness.values))
    return {
        "io.output_bytes": output_bytes,
        "parser.bytes": sum(len(item[0].encode()) for item in result.items),
        "classifier.calls": calls.get("classify", 0),
        "multipath.walk_calls": len(jumps),
        "multipath.walk_jumps_sum": sum(jumps),
        "multipath.walk_jumps_max": max(jumps, default=0),
        "psi.escape_region_calls": calls.get("escape_region", 0),
        "diagonal.search_calls": calls.get("search", 0),
        "model.witness_bytes_sum": sum(witness_bytes),
        "model.witness_bytes_max": max(witness_bytes, default=0),
        "model.cycle_values_sum": sum(cycle_values),
        "model.cycle_values_max": max(cycle_values, default=0),
        "interpreter.oracle_steps": sum(
            oracle_steps(item[3]) for item in result.items if item[3] is not None
        ),
        "trace.spans": len(tracer),
    }


def tallies(result: PassResult) -> dict[str, int]:
    """How the corpus splits by shape, rule family and oracle outcome."""
    out = {f"{shape}.count": 0 for shape in SHAPES}
    out.update({f"rule.{family}.count": 0 for family in FAMILIES})
    out.update({"oracle.cycle": 0, "oracle.terminated": 0, "oracle.bound_exhausted": 0,
                "oracle.checked": 0, "oracle.confirmed": 0})
    for _, program, verdict, agreement in result.items:
        shape = shape_of(program)
        out[f"{shape}.count"] += 1
        out[f"rule.{rule_family(shape, verdict)}.count"] += 1
        if agreement is None:
            continue
        out["oracle.checked"] += 1
        out["oracle.confirmed"] += agreement.ok and agreement.note is None
        if isinstance(agreement.oracle, CycleDetected):
            out["oracle.cycle"] += 1
        elif isinstance(agreement.oracle, TerminatedIn):
            out["oracle.terminated"] += 1
        elif isinstance(agreement.oracle, BoundExhausted):
            out["oracle.bound_exhausted"] += 1
    return out


def layer_self_ms(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer in milliseconds: its spans minus their children."""
    layer_ns = {layer: 0 for layer in LAYERS}
    for i in range(len(tracer)):
        layer = LAYER_OF_SPAN.get(tracer.names[tracer.name[i]])
        if layer:
            layer_ns[layer] += tracer.self_ns(i)
    return {layer: _ms(ns) for layer, ns in layer_ns.items()}


def layer_times(tracer: Tracer, result: PassResult) -> dict[str, float]:
    """Per-layer times in milliseconds for one traced pass."""
    total_ns: dict[str, int] = {name: 0 for name in tracer.names}
    self_ns: dict[str, int] = {name: 0 for name in tracer.names}
    for i in range(len(tracer)):
        name = tracer.names[tracer.name[i]]
        total_ns[name] += tracer.duration_ns(i)
        self_ns[name] += tracer.self_ns(i)

    out: dict[str, float] = {
        "parser.parse_ms": _ms(total_ns.get("parse", 0)),
        "parser.parse_us_p50": statistics.median(
            tracer.duration_ns(s) / 1e3 for s in result.parse_spans
        ) if result.parse_spans else 0.0,
        "io.read_ms": _ms(total_ns.get("read", 0)),
        "io.dumps_ms": _ms(total_ns.get("dumps", 0)),
        "classifier.classify_ms": _ms(total_ns.get("classify", 0)),
        "analyzer.decide_ms": _ms(total_ns.get("decide", 0)),
        "analyzer.decide_self_ms": _ms(sum(
            self_ns.get(name, 0) for name, layer in LAYER_OF_SPAN.items() if layer == "decide"
        )),
        "multipath.walk_ms": _ms(self_ns.get("walk", 0)),
        "multipath.nt_formula_ms": _ms(total_ns.get("nt_formula", 0)),
        "psi.escape_region_ms": _ms(total_ns.get("escape_region", 0)),
        "diagonal.search_ms": _ms(total_ns.get("search", 0)),
        "model.to_json_ms": _ms(total_ns.get("to_json", 0)),
        "interpreter.oracle_ms": _ms(total_ns.get("oracle", 0)),
    }
    by_shape: dict[str, list[float]] = {shape: [] for shape in SHAPES}
    family_ms = {family: 0.0 for family in FAMILIES}
    for span, (_, program, verdict, _) in zip(result.decide_spans, result.items):
        ms = _ms(tracer.duration_ns(span))
        shape = shape_of(program)
        by_shape[shape].append(ms)
        family_ms[rule_family(shape, verdict)] += ms
    for shape, values in by_shape.items():
        out[f"{shape}.decide_ms_sum"] = sum(values)
        out[f"{shape}.decide_ms_p50"] = percentile(values, 50)
        out[f"{shape}.decide_ms_p95"] = percentile(values, 95)
        out[f"{shape}.decide_ms_max"] = max(values, default=0.0)
    for family in FAMILIES:
        out[f"rule.{family}.decide_ms_sum"] = family_ms[family]
    return out
