"""Infix parser for root expressions and comma-separated root lists.

Grammar: integer literals, identifiers, unary minus, binary ``+ - * /``,
integer ``^`` (right associative, binding tighter than unary minus), and
parentheses.  Fractions are just division of integer literals.  Input is
UTF-8 text but every token is ASCII.  The result of a parse is always a
canonical :class:`~partfrac.expr.Expr`.

A ``*``/``/`` chain is parsed as one canonical n-ary product of all its
factors (divisors enter as ``^(-1)``), and unary minus contributes a factor
-1 to that product rather than negating its operand on the spot.  Folding the
chain pairwise instead would distribute a leading constant into the first
sum before the next factor is read, so ``-(a + b)*(a + c)`` -- the rendering
of a canonical product -- would not parse back to that product.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple

from .expr import _MINUS_ONE, IDENTIFIER, Constant, Expr, Product, Symbol, product_of

__all__ = ["SourceSpan", "ParseError", "parse_expr", "parse_root_list"]

# Each nesting level costs several interpreter frames; keep the cap well
# below Python's default recursion limit so malformed input cannot crash us.
_MAX_DEPTH = 100


def _max_digits() -> int:
    """The int-to-text digit limit, or 4300 (its default) when it is off or
    this Python has none; a longer number could not be rendered."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _refuse_long_power(base: Expr, n: int, span: SourceSpan) -> None:
    """Refuse base^n when its rational part would be too long to render,
    before computing it: (p/q)^n has about |n| * log10(max(|p|, q)) digits
    in its numerator or denominator.  |n| is compared with a float bound,
    which Python does exactly for an int of any size."""
    head = base.factors[0] if isinstance(base, Product) else base
    if isinstance(head, Constant):
        v, limit = head.value, _max_digits()
        largest = max(abs(v.numerator), v.denominator)
        if largest > 1 and abs(n) >= limit / math.log10(largest):
            raise ParseError(f"constant power has more than {limit} digits", span)


class SourceSpan(namedtuple("SourceSpan", "start end")):
    """Half-open byte range [start, end) into the source string."""

    __slots__ = ()


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at offset {span.start}..{span.end})")
        self.message = message
        self.span = span


_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<int>[0-9]+)
      | (?P<ident>{IDENTIFIER.pattern})
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


class _Token(namedtuple("_Token", "kind text span")):
    """``kind`` is "int", "ident", "end" or one of "+-*/^(),"."""

    __slots__ = ()


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}", SourceSpan(pos, pos + 1)
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        span = SourceSpan(m.start(), m.end())
        tokens.append(_Token(text if kind == "op" else kind, text, span))
    tokens.append(_Token("end", "", SourceSpan(len(src), len(src))))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def _enter(self, span: SourceSpan):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", span)

    def _leave(self):
        self.depth -= 1

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = node + rhs if op.kind == "+" else node - rhs
        return node

    def term(self) -> Expr:
        # Collect the whole chain and build one product, as canonicalize
        # builds a Product; see the module docstring.
        factors = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            start = self.peek().span.start
            rhs = self.unary()
            end = self.tokens[self.pos - 1].span.end
            if op.kind == "*":
                factors += rhs
            else:
                try:
                    factors += [f**-1 for f in rhs]
                except ZeroDivisionError:
                    raise ParseError(
                        "division by zero", SourceSpan(start, end)
                    ) from None
        return product_of(factors)

    def unary(self) -> list[Expr]:
        """Factors of one signed operand: ``[-1, operand]`` or ``[operand]``."""
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        node = self.power()
        return [_MINUS_ONE, node] if negate else [node]

    def power(self) -> Expr:
        first = self.peek().span.start
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        self._enter(caret.span)
        start = self.peek().span.start
        # recursion makes ^ right associative
        exponent = product_of(self.unary())
        self._leave()
        end = self.tokens[self.pos - 1].span.end
        span = SourceSpan(start, end)
        if not (isinstance(exponent, Constant) and exponent.value.denominator == 1):
            raise ParseError("exponent must be an integer", span)
        n = int(exponent.value)
        _refuse_long_power(base, n, SourceSpan(first, end))
        try:
            return base**n
        except ZeroDivisionError:
            raise ParseError("division by zero (negative power of zero)", span) from None

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            limit = _max_digits()
            if len(tok.text) > limit:
                raise ParseError(f"integer has more than {limit} digits", tok.span)
            return Constant(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            return Symbol(tok.text)
        if tok.kind == "(":
            self.advance()
            self._enter(tok.span)
            node = self.expr()
            self._leave()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.span)
            self.advance()
            return node
        raise ParseError("expected a number, a name, or '('", tok.span)


def parse_expr(src: str) -> Expr:
    """Parse a single expression; the whole string must be consumed."""
    p = _Parser(src)
    node = p.expr()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.span)
    return node


def parse_root_list(src: str) -> list[Expr]:
    """Parse a comma-separated list of expressions (commas inside parentheses
    do not split).  Empty lists and empty entries are rejected.
    """
    p = _Parser(src)
    if p.peek().kind == "end":
        raise ParseError("empty root list", p.peek().span)
    roots: list[Expr] = []
    while True:
        index = len(roots) + 1
        tok = p.peek()
        if tok.kind in (",", "end"):
            raise ParseError(f"empty entry {index} in root list", tok.span)
        try:
            roots.append(p.expr())
        except ParseError as err:
            raise ParseError(f"entry {index}: {err.message}", err.span) from None
        tok = p.peek()
        if tok.kind == "end":
            return roots
        if tok.kind != ",":
            raise ParseError(
                f"entry {index}: expected ',' or end of list, got {tok.text!r}",
                tok.span,
            )
        p.advance()
