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

import sys
from dataclasses import dataclass

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
_PUNCT = ("<=", ">=", ":=", "<", ">", "=", ";", "(", ")", "{", "}", "+", "-", "*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'int', 'eof', or the punctuation/keyword itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise LoopSyntaxError(line, col, "a token", repr(c))
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = expected or f"'{kind}'"
            found = tok.text if tok.text else "end of input"
            raise LoopSyntaxError(tok.line, tok.col, what, f"'{found}'" if tok.text else found)
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        negative = self.accept("-")
        tok = self.take("int", "an integer")
        try:
            value = int(tok.text)
        except ValueError:  # over the interpreter's int-conversion digit limit
            expected = f"an integer of at most {sys.get_int_max_str_digits()} digits"
            raise LoopSyntaxError(tok.line, tok.col, expected, f"{len(tok.text)} digits") from None
        return -value if negative else value

    def relop(self) -> RelOp:
        tok = self.peek()
        for op in RelOp:
            if tok.kind == op.value:
                self.pos += 1
                return op
        raise LoopSyntaxError(tok.line, tok.col, "a relational operator", f"'{tok.text}'")

    def guard(self) -> DiagonalFreeGuard | DiagonalGuard:
        lhs = self.take("ident", "an identifier").text
        if self.accept("-"):
            rhs = self.take("ident", "an identifier").text
            op = self.relop()
            bound = self.integer()
            if lhs == rhs:
                raise ShapeError(f"diagonal guard compares '{lhs}' with itself")
            return DiagonalGuard(lhs, rhs, op, bound)
        op = self.relop()
        return DiagonalFreeGuard(lhs, op, self.integer())

    def statement(self) -> tuple[str, Update]:
        var = self.take("ident", "an identifier").text
        self.take(":=", "':='")
        upd = self.expression(var)
        self.take(";", "';'")
        return var, upd

    def expression(self, assigned: str) -> Update:
        # int | int * ident | ident +/- int | int * ident +/- int
        tok = self.peek()
        if tok.kind == "ident":
            self.pos += 1
            self._check_self_reference(tok, assigned)
            sign_tok = self.peek()
            if self.accept("+"):
                return Update(1, self.integer())
            if self.accept("-"):
                return Update(1, -self.integer())
            raise LoopSyntaxError(sign_tok.line, sign_tok.col, "'+' or '-'", f"'{sign_tok.text}'")
        value = self.integer()
        if self.accept("*"):
            ident = self.take("ident", "an identifier")
            self._check_self_reference(ident, assigned)
            if self.accept("+"):
                return Update(value, self.integer())
            if self.accept("-"):
                return Update(value, -self.integer())
            return Update(value, 0)
        return Update(0, value)

    @staticmethod
    def _check_self_reference(tok: _Token, assigned: str) -> None:
        if tok.text != assigned:
            raise ShapeError(
                f"update of '{assigned}' reads '{tok.text}'; updates may only read "
                "the assigned variable"
            )

    def program(self) -> LoopProgram:
        init: dict[str, int] = {}
        while self.peek().kind == "init":
            self.pos += 1
            name = self.take("ident", "an identifier").text
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
        if self.peek().kind == "if":
            self.pos += 1
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
        while self.peek().kind != "}":
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
