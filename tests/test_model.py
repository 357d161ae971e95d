import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monoterm
from monoterm import (
    BoundExhausted,
    CycleWitness,
    DiagonalFreeGuard,
    DiagonalGuard,
    LoopProgram,
    NonTerminating,
    RelOp,
    SinglePathLoop,
    Terminating,
    Unsupported,
    Update,
)
from monoterm.interpreter import TraceState

ints = st.integers(min_value=-10**6, max_value=10**6)
relops = st.sampled_from(list(RelOp))

PUBLIC_NAMES = [
    "Agreement",
    "AnalysisError",
    "BoundExhausted",
    "CycleDetected",
    "CycleWitness",
    "DiagonalFreeGuard",
    "DiagonalGuard",
    "DiagonalLoop",
    "DivergenceWitness",
    "FormulaWitness",
    "LoopProgram",
    "LoopSyntaxError",
    "MissingInitError",
    "MultiPathLoop",
    "NonTerminating",
    "OracleResult",
    "ParseError",
    "RecurrentWitness",
    "RelOp",
    "ShapeError",
    "SinglePathLoop",
    "TerminatedIn",
    "Terminating",
    "UnboundVariableError",
    "Unsupported",
    "Update",
    "Verdict",
    "agreement_check",
    "decide",
    "parse",
    "print_program",
    "run",
]

# Internals the deciders share, each importable from its module only.
INTERNAL_HOMES = {
    "direction": "orbit",
    "classify": "orbit",
    "escape_region": "orbit",
    "ClassKind": "model",
    "Direction": "model",
    "NonMonotoneUpdateError": "model",
    "decide_single": "single",
    "decide_diagonal_program": "diagonal",
    "decide_multipath": "multipath",
    "accelerated_walk": "multipath",
}


def test_apply_update_examples():
    assert Update(1, 2).apply(5) == 7
    assert Update(0, 9).apply(-100) == 9
    assert Update(2, 1).apply(3) == 7


def test_all_lists_exactly_the_public_names_and_each_resolves():
    # adding or dropping an export is a deliberate edit of PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 32
    assert sorted(monoterm.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(monoterm, name) is not None, name
    for name, module in INTERNAL_HOMES.items():
        assert not hasattr(monoterm, name), name
        assert getattr(importlib.import_module(f"monoterm.{module}"), name) is not None, name


def test_star_import_resolves_every_export():
    namespace: dict = {}
    exec("from monoterm import *", namespace)
    assert len(set(monoterm.__all__)) == len(monoterm.__all__)
    for name in monoterm.__all__:
        assert namespace[name] is getattr(monoterm, name)


@given(ints, ints, relops)
def test_guard_negation_is_complement(value, bound, op):
    # The else branch of a condition `x op c` is the region where
    # op.complement holds; it must be the exact complement of the guard.
    atom = DiagonalFreeGuard("x", op, bound)
    negated = atom.op.complement
    assert negated.complement is atom.op
    assert negated.bounded_below == atom.op.bounded_above
    assert atom.op.holds(value, atom.bound) != negated.holds(value, atom.bound)


@given(ints, ints, ints, relops)
def test_diagonal_negation_is_complement(x, y, bound, op):
    atom = DiagonalGuard("x", "y", op, bound)
    negated = atom.op.complement
    assert atom.op.holds(x - y, atom.bound) != negated.holds(x - y, atom.bound)


@given(ints, ints, relops)
def test_mirrored_op_flips_both_sides(a, b, op):
    assert op.holds(a, b) == op.mirrored().holds(-a, -b)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-1000, 1000))
def test_update_is_pure_affine(u, v, x):
    upd = Update(u, v)
    assert upd.apply(x) == u * x + v
    assert upd.apply(x) == upd.apply(x)
    assert upd.first_difference(x) == upd.apply(x) - x


def test_value_types_keep_their_repr():
    # reprs show each field by name, in order; a disagreement's details show
    # TerminatedIn's, and summarize the other oracle results by their counts
    assert repr(BoundExhausted(TraceState((4, -2), 9), 9)) == (
        "BoundExhausted(last=TraceState(values=(4, -2), step=9), steps=9, monotone_escape=False)"
    )
    assert repr(Terminating(0)) == "Terminating(iterations=0)"
    assert repr(Terminating(12)) == "Terminating(iterations=12)"
    assert repr(NonTerminating("lemma1", CycleWitness((3, 5)))) == (
        "NonTerminating(rule='lemma1', witness=CycleWitness(values=(3, 5), sparse=False))"
    )
    assert repr(Unsupported("walk budget spent", "budget")) == (
        "Unsupported(reason='walk budget spent', code='budget')"
    )


def test_value_types_are_immutable_and_hashable():
    guard = DiagonalFreeGuard("x", RelOp.LT, 5)
    program = LoopProgram(SinglePathLoop(guard, Update(1, 1)), {"x": 0})
    for value, name in ((guard, "bound"), (program, "init"), (Terminating(3), "iterations"),
                        (TraceState((1,), 0), "step")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1
    diagonal = DiagonalGuard("x", "y", RelOp.GE, -2)
    assert len({Update(2, -1), Update(2, -1), Update(1, 0)}) == 2
    assert len({guard, DiagonalFreeGuard("x", RelOp.LT, 5), diagonal}) == 2
    assert hash(diagonal) == hash(DiagonalGuard("x", "y", RelOp.GE, -2))


def test_functions_read_enum_members_through_aliases():
    # On Python 3.11 a read such as Direction.UP runs Enum's class-attribute
    # lookup (~170 ns, against ~15 ns for a global), so code that runs per
    # decision binds members to module-level aliases or tables instead.
    enums = {"Direction", "ClassKind", "RelOp"}
    reads = []
    for path in sorted(Path(monoterm.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                reads += [
                    f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in enums
                ]
    assert reads == []


def _fresh_python(code: str, *args: str) -> str:
    """stdout of `code` run in a new interpreter that imports this package's source."""
    src = Path(monoterm.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_importing_the_cli_leaves_dataclasses_out():
    code = "import sys, monoterm.cli; print('dataclasses' in sys.modules)"
    assert _fresh_python(code) == "False"


# Runs the CLI on argv, then prints which of the oracle and the generator it loaded.
LOADED_BY_MAIN = """
import contextlib, io, sys
from monoterm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(*[name for name in ("monoterm.gen", "monoterm.interpreter") if name in sys.modules])
"""


def test_bench_loads_the_oracle_only_for_oracle_check_and_never_the_generator(tmp_path):
    (tmp_path / "a.loop").write_text("init x = 3; while (x > 0) { x := x + 1; }\n")
    argv = ("bench", str(tmp_path), "--format", "json")
    assert _fresh_python(LOADED_BY_MAIN, *argv) == ""
    assert _fresh_python(LOADED_BY_MAIN, *argv, "--oracle-check") == "monoterm.interpreter"


def test_star_import_loads_the_oracles_names_on_first_access():
    code = (
        "import sys, monoterm\n"
        "loaded = 'monoterm.interpreter' in sys.modules\n"
        "namespace = {}\n"
        "exec('from monoterm import *', namespace)\n"
        "from monoterm import interpreter\n"
        "print(loaded, sum(name in namespace for name in monoterm.__all__),"
        " monoterm.run is interpreter.run, namespace['run'] is interpreter.run)"
    )
    assert _fresh_python(code) == "False 32 True True"
