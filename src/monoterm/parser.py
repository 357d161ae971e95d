"""Loop-file parser and pretty-printer.

Grammar (whitespace insignificant, '#' comments to end of line):

    program   = { init } , loop ;
    init      = "init" , ident , "=" , int , ";" ;
    loop      = "while" , "(" , guard , ")" , "{" , body , "}" ;
    guard     = ident , relop , int
              | ident , "-" , ident , relop , int ;
    relop     = "<" | "<=" | ">" | ">=" ;
    body      = stmt , [ stmt ]
              | "if" , "(" , guard , ")" , "{" , stmt , "}" ,
                "else" , "{" , stmt , "}" ;
    stmt      = ident , ":=" , expr , ";" ;
    expr      = int | int "*" ident | ident ("+"|"-") int
              | int "*" ident ("+"|"-") int ;

One body statement makes a single-path loop, two make a diagonal loop
(the guard must match), an if/else makes a multipath loop.  Anything
syntactically valid but outside those three shapes is a ShapeError,
never a silent reinterpretation.
"""

from __future__ import annotations

import re
import sys

from .model import (
    DiagonalFreeGuard,
    DiagonalGuard,
    DiagonalLoop,
    LoopProgram,
    MultiPathLoop,
    RelOp,
    SinglePathLoop,
    Update,
)


class ParseError(Exception):
    """Base for everything parse() can raise."""


class LoopSyntaxError(ParseError):
    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found


class ShapeError(ParseError):
    """Syntactically valid input whose shape the analysis does not cover."""


class MissingInitError(ParseError):
    def __init__(self, var: str):
        super().__init__(f"variable '{var}' is used but never initialized")
        self.var = var


_KEYWORDS = {"init", "while", "if", "else"}
# One alternative per token class, tried in order at each position.  `int`
# is decimal digits only, so a word never starts with one; a word that starts
# with another numeric character ('²', '½') is rejected in _tokenize.
# Whitespace is ' ', tab and CR only: any other character, '\v' included,
# falls through to `bad`.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r]+)|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<int>\d+)|(?P<word>\w+)"
    r"|(?P<punct><=|>=|:=|[<>=;(){}+*-])|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) per token, ending in an 'eof' token; kind is
    'ident', 'int', 'eof', or the punctuation/keyword itself."""
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    end_col = None  # eof column when the text ends in a comment: the '#'
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            end_col = None
            continue
        col = m.start() - line_start + 1
        if kind == "punct":
            word = m.group()
            tokens.append((word, word, line, col))
        elif kind == "word":
            word = m.group()
            first = word[0]
            if not (first.isalpha() or first == "_"):
                raise LoopSyntaxError(line, col, "a token", repr(first))
            tokens.append((word if word in _KEYWORDS else "ident", word, line, col))
        elif kind == "int":
            tokens.append(("int", m.group(), line, col))
        elif kind == "comment":
            end_col = col
        else:
            raise LoopSyntaxError(line, col, "a token", repr(m.group()))
    if end_col is None:
        end_col = len(text) - line_start + 1
    tokens.append(("eof", "", line, end_col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: str | None = None) -> str:
        """The text of the next token, which must be of this kind."""
        tok_kind, text, line, col = self.tokens[self.pos]
        if tok_kind != kind:
            found = f"'{text}'" if text else "end of input"
            raise LoopSyntaxError(line, col, expected or f"'{kind}'", found)
        self.pos += 1
        return text

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        negative = self.accept("-")
        _, _, line, col = self.peek()
        text = self.take("int", "an integer")
        try:
            value = int(text)
        except ValueError:  # over the interpreter's int-conversion digit limit
            expected = f"an integer of at most {sys.get_int_max_str_digits()} digits"
            raise LoopSyntaxError(line, col, expected, f"{len(text)} digits") from None
        return -value if negative else value

    def relop(self) -> RelOp:
        kind, text, line, col = self.peek()
        for op in RelOp:
            if kind == op.value:
                self.pos += 1
                return op
        raise LoopSyntaxError(line, col, "a relational operator", f"'{text}'")

    def guard(self) -> DiagonalFreeGuard | DiagonalGuard:
        lhs = self.take("ident", "an identifier")
        if self.accept("-"):
            rhs = self.take("ident", "an identifier")
            op = self.relop()
            bound = self.integer()
            if lhs == rhs:
                raise ShapeError(f"diagonal guard compares '{lhs}' with itself")
            return DiagonalGuard(lhs, rhs, op, bound)
        op = self.relop()
        return DiagonalFreeGuard(lhs, op, self.integer())

    def statement(self) -> tuple[str, Update]:
        var = self.take("ident", "an identifier")
        self.take(":=", "':='")
        upd = self.expression(var)
        self.take(";", "';'")
        return var, upd

    def expression(self, assigned: str) -> Update:
        # int | int * ident | ident +/- int | int * ident +/- int
        kind, text, _, _ = self.peek()
        if kind == "ident":
            self.pos += 1
            self._check_self_reference(text, assigned)
            if self.accept("+"):
                return Update(1, self.integer())
            if self.accept("-"):
                return Update(1, -self.integer())
            _, sign_text, line, col = self.peek()
            raise LoopSyntaxError(line, col, "'+' or '-'", f"'{sign_text}'")
        value = self.integer()
        if self.accept("*"):
            self._check_self_reference(self.take("ident", "an identifier"), assigned)
            if self.accept("+"):
                return Update(value, self.integer())
            if self.accept("-"):
                return Update(value, -self.integer())
            return Update(value, 0)
        return Update(0, value)

    @staticmethod
    def _check_self_reference(read: str, assigned: str) -> None:
        if read != assigned:
            raise ShapeError(
                f"update of '{assigned}' reads '{read}'; updates may only read "
                "the assigned variable"
            )

    def program(self) -> LoopProgram:
        init: dict[str, int] = {}
        while self.accept("init"):
            name = self.take("ident", "an identifier")
            self.take("=", "'='")
            value = self.integer()
            self.take(";", "';'")
            if name in init:
                raise ShapeError(f"duplicate init for '{name}'")
            init[name] = value
        self.take("while", "'while'")
        self.take("(", "'('")
        guard = self.guard()
        self.take(")", "')'")
        self.take("{", "'{'")
        shape = self.body(guard)
        self.take("}", "'}'")
        self.take("eof", "end of input")
        program = LoopProgram(shape, init)
        for var in program.variables():
            if var not in init:
                raise MissingInitError(var)
        return program

    def body(self, guard):
        if self.accept("if"):
            if not isinstance(guard, DiagonalFreeGuard):
                raise ShapeError("multipath loops require a diagonal-free loop guard")
            self.take("(", "'('")
            cond = self.guard()
            self.take(")", "')'")
            if not isinstance(cond, DiagonalFreeGuard):
                raise ShapeError("branch conditions must be diagonal-free")
            if cond.var != guard.var:
                raise ShapeError(
                    f"branch condition tests '{cond.var}' but the guard tests '{guard.var}'"
                )
            self.take("{", "'{'")
            then_var, then_upd = self.statement()
            self.take("}", "'}'")
            self.take("else", "'else'")
            self.take("{", "'{'")
            else_var, else_upd = self.statement()
            self.take("}", "'}'")
            for var in (then_var, else_var):
                if var != guard.var:
                    raise ShapeError(
                        f"multipath branches must update the guard variable "
                        f"'{guard.var}', not '{var}'"
                    )
            return MultiPathLoop(guard, cond, then_upd, else_upd)
        statements = []
        while self.peek()[0] != "}":
            statements.append(self.statement())
        if len(statements) == 1:
            if not isinstance(guard, DiagonalFreeGuard):
                raise ShapeError("a diagonal guard needs updates for both its variables")
            var, upd = statements[0]
            if var != guard.var:
                raise ShapeError(
                    f"single-path body must update the guard variable '{guard.var}'"
                )
            return SinglePathLoop(guard, upd)
        if len(statements) == 2:
            if not isinstance(guard, DiagonalGuard):
                raise ShapeError("two-statement bodies require a diagonal guard")
            updates = dict(statements)
            if len(updates) != 2 or set(updates) != {guard.lhs, guard.rhs}:
                raise ShapeError(
                    f"diagonal body must update exactly '{guard.lhs}' and '{guard.rhs}'"
                )
            return DiagonalLoop(guard, updates[guard.lhs], updates[guard.rhs])
        raise ShapeError(f"loop bodies have one or two statements, found {len(statements)}")


def parse(text: str) -> LoopProgram:
    """Parse loop-file text; raises LoopSyntaxError/ShapeError/MissingInitError."""
    return _Parser(_tokenize(text)).program()


def _render_update(var: str, upd: Update) -> str:
    u, v = upd.coeff, upd.offset
    if u == 0:
        return f"{var} := {v};"
    if u == 1:
        return f"{var} := {var} - {-v};" if v < 0 else f"{var} := {var} + {v};"
    if v == 0:
        return f"{var} := {u} * {var};"
    if v < 0:
        return f"{var} := {u} * {var} - {-v};"
    return f"{var} := {u} * {var} + {v};"


def print_program(p: LoopProgram) -> str:
    """Canonical text form; parse(print_program(p)) == p."""
    lines = [f"init {v} = {p.init[v]};" for v in sorted(p.init)]
    s = p.shape
    if isinstance(s, SinglePathLoop):
        body = _render_update(s.guard.var, s.update)
    elif isinstance(s, DiagonalLoop):
        body = (
            f"{_render_update(s.guard.lhs, s.lhs_update)} "
            f"{_render_update(s.guard.rhs, s.rhs_update)}"
        )
    else:
        body = (
            f"if ({s.branch_cond}) {{ {_render_update(s.guard.var, s.then_update)} }} "
            f"else {{ {_render_update(s.guard.var, s.else_update)} }}"
        )
    lines.append(f"while ({s.guard}) {{ {body} }}")
    return "\n".join(lines) + "\n"
