r"""Loop-file parser and pretty-printer.

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

Tokenizing is one `findall` pass of `_TOKEN_RE`.  Each match skips the
whitespace and comments before a token and captures the token, so the list
holds plain token strings and then '' for the end of input; the parser
compares strings and keeps only an index into them.  Only an error needs a
position: `_locate(text, index)` takes the index-th match of the same regular
expression and counts the '\n' before its token.  Only '\n' ends a line: a
'\r' is whitespace that starts no line.  The end of input of a text that ends
in a comment is located at that comment's '#'.  A character that starts no
token is reported before any other error, as if tokenizing came first: when
parsing fails, parse() looks through the token list it already holds for the
first such character and locates only that one.
"""

from __future__ import annotations

import re
from itertools import islice

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


MAX_LITERAL_DIGITS = 4300  # a rule of the language, not the interpreter's int-to-str limit


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
_PUNCT = {"<=", ">=", ":=", "<", ">", "=", ";", "(", ")", "{", "}", "+", "*", "-"}
_RELOPS = {op.value: op for op in RelOp}
# One findall() pass is the whole tokenizer: each match skips whitespace and
# comments, and group 1 is the token after them, or '' at the end of input
# (text that ends in whitespace or a comment yields a second '', which the
# parser never reads).  `int` is decimal digits only, so a word never starts
# with one; a word that starts with another numeric character ('²', '½') is
# rejected by parse().  Whitespace is ' ', tab, CR and LF only: any other
# character, '\v' included, matches `.` and is rejected there.  The skip never
# backtracks: after it, `.` or `\Z` always matches.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(\d+|\w+|<=|>=|:=|[<>=;(){}+*-]|.|\Z)")


def _is_ident(tok: str) -> bool:
    """A \\w run that starts with a letter or '_' and is not a keyword."""
    first = tok[:1]
    return (first.isalpha() or first == "_") and tok not in _KEYWORDS


def _locate(text: str, index: int) -> tuple[int, int]:
    """(line, col) of the token of the index-th match of _TOKEN_RE in text.

    The end of input of a text that ends in a comment is located at the '#'.
    """
    m = next(islice(_TOKEN_RE.finditer(text), index, None))
    start = m.start(1)
    line_start = text.rfind("\n", 0, start) + 1  # offset of the line's first character
    if not m.group(1):
        comment = text.find("#", max(m.start(), line_start), start)
        if comment >= 0:
            start = comment
    return text.count("\n", 0, start) + 1, start - line_start + 1


def _shown(tok: str) -> str:
    """A token as error messages show it: quoted, or the end of input."""
    return f"'{tok}'" if tok else "end of input"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)  # ends in "": end of input
        self.pos = 0

    def error(self, expected: str, found: str | None = None) -> LoopSyntaxError:
        """A syntax error at the next token."""
        if found is None:
            found = _shown(self.tokens[self.pos])
        line, col = _locate(self.text, self.pos)
        return LoopSyntaxError(line, col, expected, found)

    def take(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.error(_shown(tok))
        self.pos += 1

    def accept(self, tok: str) -> bool:
        if self.tokens[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def ident(self) -> str:
        tok = self.tokens[self.pos]
        if not _is_ident(tok):
            raise self.error("an identifier")
        self.pos += 1
        return tok

    def integer(self) -> int:
        negative = self.accept("-")
        tok = self.tokens[self.pos]
        if not tok[:1].isdecimal():
            raise self.error("an integer")
        if len(tok) > MAX_LITERAL_DIGITS:
            expected = f"an integer of at most {MAX_LITERAL_DIGITS} digits"
            raise self.error(expected, f"{len(tok)} digits")
        self.pos += 1
        return -int(tok) if negative else int(tok)

    def relop(self) -> RelOp:
        op = _RELOPS.get(self.tokens[self.pos])
        if op is None:
            raise self.error("a relational operator")
        self.pos += 1
        return op

    def guard(self) -> DiagonalFreeGuard | DiagonalGuard:
        lhs = self.ident()
        if self.accept("-"):
            rhs = self.ident()
            op = self.relop()
            bound = self.integer()
            if lhs == rhs:
                raise ShapeError(f"diagonal guard compares '{lhs}' with itself")
            return DiagonalGuard(lhs, rhs, op, bound)
        op = self.relop()
        return DiagonalFreeGuard(lhs, op, self.integer())

    def statement(self) -> tuple[str, Update]:
        var = self.ident()
        self.take(":=")
        upd = self.expression(var)
        self.take(";")
        return var, upd

    def expression(self, assigned: str) -> Update:
        # int | int * ident | ident +/- int | int * ident +/- int
        tok = self.tokens[self.pos]
        if _is_ident(tok):
            self.pos += 1
            self._check_self_reference(tok, assigned)
            offset = self.offset()
            if offset is None:
                raise self.error("'+' or '-'")
            return Update(1, offset)
        value = self.integer()
        if self.accept("*"):
            self._check_self_reference(self.ident(), assigned)
            return Update(value, self.offset() or 0)
        return Update(0, value)

    def offset(self) -> int | None:
        """A signed `+ int` or `- int` tail, or None if neither sign comes next."""
        if self.accept("+"):
            return self.integer()
        if self.accept("-"):
            return -self.integer()
        return None

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
            name = self.ident()
            self.take("=")
            value = self.integer()
            self.take(";")
            if name in init:
                raise ShapeError(f"duplicate init for '{name}'")
            init[name] = value
        self.take("while")
        self.take("(")
        guard = self.guard()
        self.take(")")
        self.take("{")
        shape = self.body(guard)
        self.take("}")
        self.take("")
        program = LoopProgram(shape, init)
        for var in program.variables():
            if var not in init:
                raise MissingInitError(var)
        return program

    def body(self, guard):
        if self.accept("if"):
            if not isinstance(guard, DiagonalFreeGuard):
                raise ShapeError("multipath loops require a diagonal-free loop guard")
            self.take("(")
            cond = self.guard()
            self.take(")")
            if not isinstance(cond, DiagonalFreeGuard):
                raise ShapeError("branch conditions must be diagonal-free")
            if cond.var != guard.var:
                raise ShapeError(
                    f"branch condition tests '{cond.var}' but the guard tests '{guard.var}'"
                )
            self.take("{")
            then_var, then_upd = self.statement()
            self.take("}")
            self.take("else")
            self.take("{")
            else_var, else_upd = self.statement()
            self.take("}")
            for var in (then_var, else_var):
                if var != guard.var:
                    raise ShapeError(
                        f"multipath branches must update the guard variable "
                        f"'{guard.var}', not '{var}'"
                    )
            return MultiPathLoop(guard, cond, then_upd, else_upd)
        statements = []
        while self.tokens[self.pos] != "}":
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
    parser = _Parser(text)
    try:
        return parser.program()
    except ParseError:
        for index, tok in enumerate(parser.tokens):
            valid = _is_ident(tok) or tok in _KEYWORDS or tok in _PUNCT or tok[:1].isdecimal()
            if tok and not valid:
                line, col = _locate(text, index)
                raise LoopSyntaxError(line, col, "a token", repr(tok[0]))
        raise


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
