"""Output checker that shares no code with partfrac.

It reads the text partfrac wrote (infix or structured), evaluates it with
its own exact ``Fraction`` evaluator of the output grammar, and compares it
with the input function

    F(x) = (sum_j w_j * x^(l_j)) * prod_k (x - a_k)^(-m_k)

computed directly from the input text (a single input has one term with
weight 1).  It also checks properties of the method:

* every pole sits at an input root and has an order in 1..m_k;
* no (pole, order) pair or monomial degree appears twice;
* there are no monomials when the numerator degree L is below m = sum m_k;
* when L >= m, the quotient has degree L - m and, for a single input,
  leading coefficient 1.

Evaluation points are drawn from a seeded generator.  With rational roots
and no symbols, Q*(F - D) is a polynomial of degree at most max(L, m - 1)
once the properties hold, so agreement at max(L, m - 1) + 1 distinct points
is a proof.  With symbols, each point also binds every symbol to a random
rational; agreement is then a probabilistic check (Schwartz-Zippel).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

X = "x"

# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


class CheckError(ValueError):
    pass


# Nodes are tuples:
#   ("n", Fraction)             number
#   ("s", name)                 symbol
#   ("+", [(negated, node)])    sum
#   ("*", [(inverted, node)])   product
#   ("^", base, int)            integer power
#   ("-", node)                 negation


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, start offset) triples; kind is 'n', 's', an operator
    character, or 'end'."""
    out = []
    pos = 0
    end = len(src.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise CheckError(f"unexpected character {src[pos]!r} at offset {pos}")
        num, name, op = m.groups()
        start = m.start(1) if num else m.start(2) if name else m.start(3)
        if num:
            out.append(("n", num, start))
        elif name:
            out.append(("s", name, start))
        else:
            out.append((op, op, start))
        pos = m.end()
    out.append(("end", "", end))
    return out


class _Parser:
    """Recursive descent over the grammar partfrac documents for its
    output: integers, names, unary minus, + - * /, integer ^ (right
    associative, binding tighter than unary minus) and parentheses.

    Identical parenthesized groups share one node, so the evaluator's
    memo computes each repeated root difference once per point.
    """

    def __init__(self, src: str, groups: dict[str, tuple]):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.groups = groups

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise CheckError(f"expected {kind!r}, got {tok[1]!r} at offset {tok[2]}")
        self.pos += 1
        return tok

    def parse(self) -> tuple:
        node = self.sum()
        if self.peek() != "end":
            tok = self.toks[self.pos]
            raise CheckError(f"unexpected {tok[1]!r} at offset {tok[2]}")
        return node

    def sum(self) -> tuple:
        terms = [(False, self.product())]
        while self.peek() in ("+", "-"):
            negated = self.take(self.peek())[0] == "-"
            terms.append((negated, self.product()))
        return terms[0][1] if len(terms) == 1 else ("+", terms)

    def product(self) -> tuple:
        factors = [(False, self.unary())]
        while self.peek() in ("*", "/"):
            inverted = self.take(self.peek())[0] == "/"
            factors.append((inverted, self.unary()))
        return factors[0][1] if len(factors) == 1 else ("*", factors)

    def unary(self) -> tuple:
        if self.peek() == "-":
            self.pos += 1
            return ("-", self.unary())
        return self.power()

    def power(self) -> tuple:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        exponent = self.unary()
        value = _constant_value(exponent)
        if value is None or value.denominator != 1:
            raise CheckError("exponent is not an integer constant")
        return ("^", base, int(value))

    def atom(self) -> tuple:
        kind, text, start = self.toks[self.pos]
        if kind == "n":
            self.pos += 1
            return ("n", Fraction(int(text)))
        if kind == "s":
            self.pos += 1
            return ("s", text)
        if kind == "(":
            self.pos += 1
            node = self.sum()
            close = self.take(")")
            key = self.src[start : close[2] + 1]
            return self.groups.setdefault(key, node)
        raise CheckError(f"expected a number, a name or '(' at offset {start}, got {text!r}")


def parse(src: str, groups: dict[str, tuple] | None = None) -> tuple:
    """Parse one expression of the output grammar into a node tuple."""
    return _Parser(src, {} if groups is None else groups).parse()


def _constant_value(node: tuple) -> Fraction | None:
    """Value of a symbol-free node, else None."""
    kind = node[0]
    if kind == "n":
        return node[1]
    if kind == "s":
        return None
    if kind == "-":
        v = _constant_value(node[1])
        return None if v is None else -v
    if kind == "^":
        v = _constant_value(node[1])
        return None if v is None else v ** node[2]
    values = [(flag, _constant_value(child)) for flag, child in node[1]]
    if any(v is None for _, v in values):
        return None
    if kind == "+":
        return sum((-v if neg else v for neg, v in values), Fraction(0))
    out = Fraction(1)
    for inv, v in values:
        out = out / v if inv else out * v
    return out


# ------------------------------------------------------------- evaluation


class Evaluator:
    """Evaluates nodes at K points at once; a value is a tuple of K
    Fractions.  Memoized by node identity, which shared groups make
    effective."""

    def __init__(self, points: list[dict[str, Fraction]]):
        self.points = points
        # id -> (node, value); holding the node keeps its id from being reused
        self.memo: dict[int, tuple[tuple, tuple[Fraction, ...]]] = {}

    def __call__(self, node: tuple) -> tuple[Fraction, ...]:
        hit = self.memo.get(id(node))
        if hit is None:
            hit = self.memo[id(node)] = (node, self._eval(node))
        return hit[1]

    def _eval(self, node: tuple) -> tuple[Fraction, ...]:
        kind = node[0]
        if kind == "n":
            return (node[1],) * len(self.points)
        if kind == "s":
            try:
                return tuple(p[node[1]] for p in self.points)
            except KeyError:
                raise CheckError(f"unknown symbol {node[1]!r}") from None
        if kind == "-":
            return tuple(-v for v in self(node[1]))
        if kind == "^":
            e = node[2]
            return tuple(v**e for v in self(node[1]))
        if kind == "+":
            acc = [Fraction(0)] * len(self.points)
            for neg, child in node[1]:
                vals = self(child)
                acc = [a - v for a, v in zip(acc, vals)] if neg else [
                    a + v for a, v in zip(acc, vals)]
            return tuple(acc)
        acc = [Fraction(1)] * len(self.points)
        for inv, child in node[1]:
            vals = self(child)
            acc = [a / v for a, v in zip(acc, vals)] if inv else [
                a * v for a, v in zip(acc, vals)]
        return tuple(acc)


def _has_x(node: tuple, memo: dict[int, tuple[tuple, bool]]) -> bool:
    hit = memo.get(id(node))
    if hit is None:
        kind = node[0]
        if kind == "n":
            found = False
        elif kind == "s":
            found = node[1] == X
        elif kind in ("-", "^"):
            found = _has_x(node[1], memo)
        else:
            found = any(_has_x(child, memo) for _, child in node[1])
        hit = memo[id(node)] = (node, found)
    return hit[1]


def _symbols_of(node: tuple, out: set[str]) -> set[str]:
    kind = node[0]
    if kind == "s":
        out.add(node[1])
    elif kind in ("-", "^"):
        _symbols_of(node[1], out)
    elif kind in ("+", "*"):
        for _, child in node[1]:
            _symbols_of(child, out)
    return out


# ------------------------------------------------------------ the problem


@dataclass(frozen=True)
class Problem:
    """The input as text: numerator terms (weight text, degree) over
    prod_k (x - roots[k])^mults[k]."""

    numerator: tuple[tuple[str, int], ...]
    roots: tuple[str, ...]
    mults: tuple[int, ...]

    @property
    def degree(self) -> int:
        return max(d for _, d in self.numerator)

    @property
    def m(self) -> int:
        return sum(self.mults)


@dataclass
class _Term:
    kind: str  # "M" or "P"
    key: int  # degree, or 0-based factor index
    order: int  # pole order (0 for monomials)
    coeff: tuple | None  # coefficient node, None when it is 1


class _Points:
    """Sample points plus the input's values at them."""

    def __init__(self, problem: Problem, rng: random.Random, count: int):
        self.groups: dict[str, tuple] = {}
        roots = [parse(r, self.groups) for r in problem.roots]
        weights = [parse(w, self.groups) for w, _ in problem.numerator]
        names: set[str] = set()
        for node in roots + weights:
            _symbols_of(node, names)
        if X in names:
            raise CheckError("the input mentions x")
        names = sorted(names)
        if not names:
            count = max(count, max(problem.degree, problem.m - 1) + 1)
        points: list[dict[str, Fraction]] = []
        used_x: set[Fraction] = set()
        for _ in range(count):
            for _attempt in range(1000):
                point = {name: _draw(rng) for name in names}
                root_vals = [Evaluator([point])(r)[0] for r in roots]
                x = _draw(rng)
                if len(set(root_vals)) == len(root_vals) and x not in root_vals and x not in used_x:
                    break
            else:
                raise CheckError("could not draw a point away from the poles")
            point[X] = x
            used_x.add(x)
            points.append(point)
        self.points = points
        self.eval = Evaluator(points)
        self.root_values = [self.eval(r) for r in roots]
        f = [Fraction(0)] * len(points)
        for (_, degree), w in zip(problem.numerator, weights):
            f = [acc + wv * p[X] ** degree for acc, wv, p in zip(f, self.eval(w), points)]
        for rv, m in zip(self.root_values, problem.mults):
            f = [acc / (p[X] - a) ** m for acc, p, a in zip(f, points, rv)]
        self.expected = tuple(f)


def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))


def _infix_terms(top: tuple, pts: _Points) -> list[_Term]:
    """Split the top-level sum into monomial and pole terms."""
    memo: dict[int, tuple[tuple, bool]] = {}
    summands = top[1] if top[0] == "+" else [(False, top)]
    terms = []
    for negated, node in summands:
        factors: list[tuple[bool, tuple]] = []
        stack = [(False, node)]
        while stack:
            inv, f = stack.pop()
            if f[0] == "*":
                stack.extend((inv != i, g) for i, g in reversed(f[1]))
            elif f[0] == "-":
                negated = not negated
                stack.append((inv, f[1]))
            else:
                factors.append((inv, f))
        with_x = [(inv, f) for inv, f in factors if _has_x(f, memo)]
        rest = [(inv, f) for inv, f in factors if not _has_x(f, memo)]
        if negated:
            rest.append((False, ("n", Fraction(-1))))
        coeff = ("*", rest) if rest else None
        if not with_x:
            terms.append(_Term("M", 0, 0, coeff))
            continue
        if len(with_x) > 1:
            raise CheckError("a term has more than one factor with x")
        inv, f = with_x[0]
        base, exponent = (f[1], f[2]) if f[0] == "^" else (f, 1)
        if inv:
            exponent = -exponent
        if base == ("s", X):
            if exponent < 1:
                raise CheckError("x appears with a negative exponent")
            terms.append(_Term("M", exponent, 0, coeff))
            continue
        root = _linear_root(base, memo)
        if exponent > -1:
            raise CheckError("a linear factor appears with a positive exponent")
        terms.append(_Term("P", _match_root(root, pts), -exponent, coeff))
    return terms


def _linear_root(base: tuple, memo: dict[int, tuple[tuple, bool]]) -> tuple:
    """For base = x + c with c free of x, the root -c as a node."""
    if base[0] != "+":
        raise CheckError("a pole base is not of the form x - a")
    x_terms = [(neg, t) for neg, t in base[1] if _has_x(t, memo)]
    if x_terms != [(False, ("s", X))]:
        raise CheckError("a pole base is not linear in x with unit coefficient")
    others = [(not neg, t) for neg, t in base[1] if not _has_x(t, memo)]
    return ("+", others)


def _match_root(root: tuple, pts: _Points) -> int:
    value = pts.eval(root)
    for k, rv in enumerate(pts.root_values):
        if rv == value:
            return k
    raise CheckError("a pole sits at no input root")


def _structured_terms(text: str, pts: _Points, problem: Problem) -> list[_Term]:
    if not text.endswith("\n"):
        raise CheckError("structured output does not end with a newline")
    terms = []
    for line in text.split("\n")[:-1]:
        parts = line.split(" ", 2 if line.startswith("M ") else 3)
        try:
            if parts[0] == "M" and len(parts) == 3:
                term = _Term("M", int(parts[1]), 0, parse(parts[2], pts.groups))
            elif parts[0] == "P" and len(parts) == 4:
                term = _Term("P", int(parts[1]) - 1, int(parts[2]), parse(parts[3], pts.groups))
            else:
                raise CheckError(f"malformed record {line[:60]!r}")
        except ValueError as err:
            raise CheckError(f"malformed record {line[:60]!r}: {err}") from None
        if term.kind == "P" and not 0 <= term.key < len(problem.roots):
            raise CheckError(f"factor number {term.key + 1} out of range")
        terms.append(term)
    return terms


def check(text: str, fmt: str, problem: Problem, seed: int, points: int = 3) -> list[str]:
    """Check partfrac's output ``text`` for ``problem``.

    ``points`` is the number of sample points for inputs with symbols;
    symbol-free inputs use max(L, m - 1) + 1 points.  Returns the list of
    failures (empty when the output is correct).
    """
    try:
        return _check(text, fmt, problem, random.Random(seed), points)
    except (CheckError, ZeroDivisionError, RecursionError) as err:
        return [f"{type(err).__name__}: {err}"]


def _check(text: str, fmt: str, problem: Problem, rng: random.Random, points: int) -> list[str]:
    if not text.isascii():
        return ["output is not ASCII"]
    pts = _Points(problem, rng, points)
    if fmt == "structured":
        terms = _structured_terms(text, pts, problem)
    else:
        terms = _infix_terms(parse(text, pts.groups), pts)
    errors = []

    seen: set[tuple[str, int, int]] = set()
    for t in terms:
        key = (t.kind, t.key, t.order)
        if key in seen:
            errors.append(f"term {key} appears twice")
        seen.add(key)
        if t.kind == "P" and not 1 <= t.order <= problem.mults[t.key]:
            errors.append(
                f"pole order {t.order} at factor {t.key + 1} is outside 1..{problem.mults[t.key]}"
            )
        if t.kind == "M" and t.key < 0:
            errors.append(f"monomial of negative degree {t.key}")

    L, m = problem.degree, problem.m
    monomials = [t for t in terms if t.kind == "M"]
    if L < m and monomials:
        errors.append(f"proper input (L={L} < m={m}) has monomial terms")
    if L >= m:
        top = max((t.key for t in monomials), default=-1)
        if len(problem.numerator) > 1:  # weights may cancel the top degree
            if top > L - m:
                errors.append(f"quotient degree {top} exceeds {L - m}")
        elif top != L - m:
            errors.append(f"quotient degree is {top}, expected {L - m}")
        else:
            lead = next(t for t in monomials if t.key == top)
            if lead.coeff is not None and any(v != 1 for v in pts.eval(lead.coeff)):
                errors.append("quotient leading coefficient is not 1")

    one = (Fraction(1),) * len(pts.points)
    total = [Fraction(0)] * len(pts.points)
    for t in terms:
        c = one if t.coeff is None else pts.eval(t.coeff)
        for i, p in enumerate(pts.points):
            if t.kind == "M":
                total[i] += c[i] * p[X] ** t.key
            else:
                total[i] += c[i] / (p[X] - pts.root_values[t.key][i]) ** t.order
    if tuple(total) != pts.expected:
        bad = next(i for i, (a, b) in enumerate(zip(total, pts.expected)) if a != b)
        errors.append(
            f"value mismatch at point {bad} (x={pts.points[bad][X]}): output differs from the input function"
        )
    return errors
