import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partfrac import (
    ONE,
    Constant,
    Decomposition,
    MonomialTerm,
    OutputFormat,
    PoleTerm,
    RationalFunctionSpec,
    StreamBuffer,
    StreamWriteError,
    collect,
    decompose,
    decomposition_value,
    evaluate,
    parse_expr,
    render_expr,
    serialize,
    symbols,
    term_chunks,
    write_decomposition,
    write_streaming,
)
from partfrac import output
from partfrac.expr import Expr, Power, Product, Sum, Symbol
from helpers import (
    random_mixed_spec,
    random_rational_spec,
    random_symbolic_spec,
    roots23_spec,
)
from test_expr import _canonical_or_skip, raw_trees

a, b = symbols("a b")

WORKED_EXAMPLE = Decomposition(
    roots=(Constant(-1), Constant(-2), Constant(-3)),
    monomials=(),
    poles=(
        PoleTerm(0, 1, Constant(Fraction(1, 2))),
        PoleTerm(1, 1, Constant(-1)),
        PoleTerm(2, 1, Constant(Fraction(1, 2))),
    ),
)


# --- collect -------------------------------------------------------------------


def test_collect_merges_shared_pole():
    d = Decomposition(
        roots=(a,),
        monomials=(),
        poles=(PoleTerm(0, 1, b), PoleTerm(0, 1, 2 * b)),
    )
    assert collect(d).poles == (PoleTerm(0, 1, 3 * b),)


def test_collect_cancels_to_empty():
    d = Decomposition(
        roots=(a,),
        monomials=(),
        poles=(PoleTerm(0, 1, ONE), PoleTerm(0, 1, Constant(-1))),
    )
    out = collect(d)
    assert out.poles == () and out.monomials == ()


def test_collect_idempotent_on_collected_input():
    d = decompose_sample()
    assert collect(d) == d
    assert collect(collect(d)) == collect(d)


def decompose_sample():
    rng = random.Random(17)
    return decompose(random_symbolic_spec(rng, max_n=3, max_mult=3, numerator="any"))


def test_collect_sorts_and_merges_monomials():
    d = Decomposition(
        roots=(),
        monomials=(
            MonomialTerm(2, ONE),
            MonomialTerm(0, a),
            MonomialTerm(2, Constant(-1)),
        ),
        poles=(),
    )
    assert collect(d).monomials == (MonomialTerm(0, a),)


def test_collect_preserves_value():
    rng = random.Random(23)
    spec = random_symbolic_spec(rng, max_n=3, max_mult=2, numerator="any")
    d = decompose(spec)
    doubled = Decomposition(d.roots, d.monomials + d.monomials, d.poles + d.poles)
    merged = collect(doubled)
    bind = {name: Fraction(rng.randint(1, 100), 3) for name in "a1 a2 a3".split()}
    x = Fraction(1009, 10)
    assert decomposition_value(merged, bind, x) == decomposition_value(doubled, bind, x)


# --- serialize -----------------------------------------------------------------


def test_serialize_worked_example_golden_string():
    assert (
        serialize(WORKED_EXAMPLE)
        == "(1/2)*(x + 1)^(-1) - (x + 2)^(-1) + (1/2)*(x + 3)^(-1)"
    )


def test_serialize_empty_is_zero():
    assert serialize(Decomposition((), (), ())) == "0"


def test_serialize_structured_unit_pole():
    d = Decomposition((a,), (), (PoleTerm(0, 1, ONE),))
    assert serialize(d, OutputFormat("structured")) == "P 1 1 1\n"


def test_serialize_structured_records():
    d = Decomposition(
        roots=(a, b),
        monomials=(MonomialTerm(0, Constant(Fraction(1, 2))), MonomialTerm(2, ONE)),
        poles=(PoleTerm(0, 2, -b), PoleTerm(1, 1, a + b)),
    )
    assert serialize(d, OutputFormat("structured")) == (
        "M 0 1/2\n"
        "M 2 1\n"
        "P 1 2 -b\n"
        "P 2 1 a + b\n"
    )


def test_serialize_monomials_first_then_poles_by_factor():
    d = Decomposition(
        roots=(b, a),
        monomials=(MonomialTerm(0, ONE), MonomialTerm(1, a), MonomialTerm(3, 2 * a)),
        poles=(PoleTerm(0, 1, ONE), PoleTerm(1, 2, Constant(-3))),
    )
    assert serialize(d) == "1 + a*x + 2*a*x^3 + (x - b)^(-1) - 3*(x - a)^(-2)"


def test_serialize_symbolic_root_forms():
    cases = [
        (a, "(x - a)^(-1)"),
        (-a, "(x + a)^(-1)"),
        (2 * a, "(x - 2*a)^(-1)"),
        (a + b, "(x - (a + b))^(-1)"),
        (a - b, "(x - (a - b))^(-1)"),
        (b - a, "(x - (b - a))^(-1)"),
        (-a - b, "(x - (-a - b))^(-1)"),
        (Constant(Fraction(1, 2)), "(x - 1/2)^(-1)"),
        (Constant(Fraction(-1, 2)), "(x + 1/2)^(-1)"),
    ]
    for root, expected in cases:
        d = Decomposition((root,), (), (PoleTerm(0, 1, ONE),))
        assert serialize(d) == expected, root


def test_serialize_negative_leading_term():
    d = Decomposition((a,), (), (PoleTerm(0, 1, Constant(-1)),))
    assert serialize(d) == "-(x - a)^(-1)"
    d2 = Decomposition((a,), (), (PoleTerm(0, 1, -b),))
    assert serialize(d2) == "-b*(x - a)^(-1)"


def test_serialize_sum_coefficient_parenthesized():
    d = Decomposition((a,), (), (PoleTerm(0, 1, a + b),))
    assert serialize(d) == "(a + b)*(x - a)^(-1)"


def test_expand_coefficients_mode():
    coeff = (a + b) ** 2
    d = Decomposition((a,), (), (PoleTerm(0, 1, coeff),))
    text = serialize(d, OutputFormat("infix", expand_coefficients=True))
    # canonical child order: Powers sort before Products
    assert text == "(a^2 + b^2 + 2*a*b)*(x - a)^(-1)"
    # value unchanged
    plain = parse_expr(serialize(d))
    expanded = parse_expr(text)
    bind = {"a": Fraction(3, 7), "b": Fraction(5, 11), "x": Fraction(9)}
    assert evaluate(plain, bind) == evaluate(expanded, bind)


def test_serialized_output_reparses_to_same_value():
    rng = random.Random(51)
    for _ in range(10):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=2, numerator="any")
        d = decompose(spec)
        e = parse_expr(serialize(d))
        names = [f"a{i+1}" for i in range(len(spec.factors))]
        bind = {name: Fraction(rng.randint(1, 10**4), rng.randint(1, 100)) for name in names}
        if len(set(evaluate(r, bind) for r in d.roots)) != len(d.roots):
            continue
        x = Fraction(10**6 + 3, 7)
        bind_x = dict(bind, x=x)
        assert evaluate(e, bind_x) == decomposition_value(d, bind, x)


def test_coefficient_round_trip_through_parser():
    rng = random.Random(52)
    for _ in range(10):
        spec = random_symbolic_spec(rng, max_n=4, max_mult=3, numerator="any")
        d = decompose(spec)
        for term in (*d.monomials, *d.poles):
            assert parse_expr(render_expr(term.coefficient)) == term.coefficient


# The rendering as it was written before signs were read off the factors:
# split a leading negative rational off each term as a new node, then render
# that node.  It shares no code with output.py.


def _ref_sign_split(e):
    """-3*a -> (True, 3*a)."""
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Constant) and head.value < 0:
            rest = e.factors[1:]
            if head.value == -1:
                return True, rest[0] if len(rest) == 1 else Product(rest)
            return True, Product((Constant(-head.value),) + rest)
    elif isinstance(e, Constant) and e.value < 0:
        return True, Constant(-e.value)
    return False, e


def _ref_fraction(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _ref_factor(e):
    """A factor of a '*'-joined product."""
    if isinstance(e, Power):
        n = e.exponent
        return f"{_ref_factor(e.base)}^{n}" if n >= 0 else f"{_ref_factor(e.base)}^({n})"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Constant):
        text = _ref_fraction(e.value)
        return text if e.value >= 0 and "/" not in text else f"({text})"
    if isinstance(e, Sum):
        return f"({_ref_sum_level(e)})"
    return "*".join(_ref_factor(f) for f in e.factors)


def _ref_term(e):
    """A term of a ' + '-joined sum."""
    if isinstance(e, Product):
        return "*".join(_ref_factor(f) for f in e.factors)
    if isinstance(e, Constant):
        return _ref_fraction(e.value)
    return _ref_factor(e)


def _ref_sum_level(e):
    pieces = []
    for t in e.terms if isinstance(e, Sum) else (e,):
        negative, magnitude = _ref_sign_split(t)
        pieces += [" - " if negative else " + ", _ref_term(magnitude)]
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _ref_chunks(d, mode):
    """The term stream of ``d``: each term's sign split off as a node, then
    its magnitude, its power of x or its pole base (x -/+ |root|)^(-j)."""
    if mode == "structured":
        return [f"M {t.degree} {_ref_sum_level(t.coefficient)}\n" for t in d.monomials] + [
            f"P {t.pole_index + 1} {t.order} {_ref_sum_level(t.coefficient)}\n" for t in d.poles
        ]
    chunks = []
    for term in (*d.monomials, *d.poles):
        negative, magnitude = _ref_sign_split(term.coefficient)
        if isinstance(term, PoleTerm):
            root_negative, root = _ref_sign_split(d.roots[term.pole_index])
            tail = f"(x {'+' if root_negative else '-'} {_ref_term(root)})^(-{term.order})"
        elif term.degree:
            tail = "x" if term.degree == 1 else f"x^{term.degree}"
        else:
            tail = None
        if tail is None:
            body = _ref_term(magnitude)
        else:
            body = tail if magnitude == ONE else f"{_ref_factor(magnitude)}*{tail}"
        sign = ("-" if negative else "") if not chunks else (" - " if negative else " + ")
        chunks.append(sign + body)
    return chunks or ["0"]


@settings(max_examples=300)
@given(raw_trees, st.integers(0, 2**32))
def test_sum_level_matches_the_sign_split_reference(tree, seed):
    rng = random.Random(seed)
    bindings = {name: Fraction(rng.randint(1, 50), rng.randint(1, 20)) for name in "abc"}
    canon = _canonical_or_skip(tree)
    for e in (canon, -canon):
        text = output._render_sum_level(e, {})
        assert text == _ref_sum_level(e)
        parsed = parse_expr(text)
        try:
            value = evaluate(e, bindings)
        except ZeroDivisionError:
            continue
        assert evaluate(parsed, bindings) == value


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_term_streams_match_the_sign_split_reference(seed):
    # rational, Sum and Product roots, each negated half of the time, and
    # numerator degrees up to 2m, so improper inputs too
    rng = random.Random(seed)
    if rng.random() < 0.5:
        spec = random_mixed_spec(rng, max_n=4, max_mult=3)
    else:
        spec = random_rational_spec(rng, max_n=4, max_mult=3, numerator="any")
    sign = rng.choice((1, -1))
    spec = RationalFunctionSpec(
        spec.numerator_degree, tuple((sign * r, m) for r, m in spec.factors)
    )
    d = decompose(spec)
    formats = (OutputFormat(), OutputFormat("structured"), OutputFormat(expand_coefficients=True))
    for fmt in formats:
        assert list(term_chunks(d, fmt)) == _ref_chunks(output._prepared(d, fmt), fmt.mode)


def test_serializing_builds_no_node(monkeypatch):
    specs = [
        RationalFunctionSpec(0, ((a, 3), (b, 2))),
        RationalFunctionSpec(2, ((Constant(Fraction(1, 2)), 1), (Constant(-3), 2), (ONE, 1))),
        RationalFunctionSpec(7, ((a, 2), (-b, 1), (a + b, 1))),  # improper
        roots23_spec(),
    ]
    ds = [decompose(spec) for spec in specs]
    built = []
    new, power_new = Expr.__new__, Power.__new__

    def counted(cls, *fields):
        built.append(cls)
        return new(cls, *fields)

    def counted_power(cls, base, exponent):
        built.append(cls)
        return power_new(cls, base, exponent)

    monkeypatch.setattr(Expr, "__new__", counted)
    monkeypatch.setattr(Power, "__new__", counted_power)
    Constant(2), Symbol("c"), Power(a, 2), Product((a, b)), Sum((a, b))
    assert built == [Constant, Symbol, Power, Product, Sum]  # the count sees every kind
    built.clear()
    for d in ds:
        for mode in ("infix", "structured"):
            serialize(d, OutputFormat(mode=mode))
    assert built == []


# --- streaming -----------------------------------------------------------------


def test_streaming_matches_serialize_small_buffer():
    text = serialize(WORKED_EXAMPLE)
    sink = io.BytesIO()
    buf = StreamBuffer(capacity=16)
    n = write_streaming(term_chunks(WORKED_EXAMPLE), sink, buf)
    assert sink.getvalue().decode() == text
    assert n == len(text)
    assert buf.flush_count > 1
    assert buf.peak_pending <= 16


def test_streaming_empty_stream_writes_zero():
    sink = io.BytesIO()
    buf = StreamBuffer(capacity=64)
    n = write_streaming(term_chunks(Decomposition((), (), ())), sink, buf)
    assert sink.getvalue() == b"0"
    assert n == 1
    assert buf.flush_count == 1


def test_streaming_random_capacities_byte_identical():
    rng = random.Random(53)
    for _ in range(12):
        spec = random_rational_spec(rng, max_n=4, max_mult=3, numerator="any")
        d = decompose(spec)
        fmt = OutputFormat(rng.choice(["infix", "structured"]))
        text = serialize(d, fmt)
        capacity = rng.randint(8, 4096)
        sink = io.BytesIO()
        buf = StreamBuffer(capacity=capacity)
        n = write_decomposition(d, sink, fmt, buf)
        assert sink.getvalue().decode() == text
        assert n == len(text.encode())
        assert buf.peak_pending <= capacity


def test_streaming_oversized_term_passes_through():
    # coefficient with a 100-digit numerator makes a chunk way over capacity
    huge = Constant(Fraction(10**100 + 7, 3))
    d = Decomposition((a,), (MonomialTerm(0, huge),), (PoleTerm(0, 1, ONE),))
    text = serialize(d)
    assert len(text) > 100
    sink = io.BytesIO()
    buf = StreamBuffer(capacity=32)
    write_streaming(term_chunks(d), sink, buf)
    assert sink.getvalue().decode() == text
    assert buf.peak_pending <= 32


class _FlakySink:
    """Accepts the first ``good`` writes, then fails."""

    def __init__(self, good: int):
        self.good = good
        self.data = b""

    def write(self, payload: bytes):
        if self.good == 0:
            raise OSError("disk full")
        self.good -= 1
        self.data += payload


def test_stream_write_error_carries_progress():
    chunks = ["A" * 10, "B" * 10, "C" * 10]
    sink = _FlakySink(good=2)
    with pytest.raises(StreamWriteError) as err:
        write_streaming(chunks, sink, StreamBuffer(capacity=10))
    assert err.value.bytes_written == 20
    assert sink.data == b"A" * 10 + b"B" * 10


def test_stream_buffer_validation():
    with pytest.raises(ValueError):
        StreamBuffer(capacity=0)
    with pytest.raises(ValueError):
        OutputFormat("yaml")


@settings(max_examples=60)
@given(
    st.lists(st.text(alphabet="abc123+-*() ", max_size=30), max_size=8),
    st.integers(1, 64),
)
def test_streaming_equals_join_for_arbitrary_chunks(chunks, capacity):
    sink = io.BytesIO()
    n = write_streaming(chunks, sink, StreamBuffer(capacity=capacity))
    joined = "".join(chunks).encode("ascii")
    assert sink.getvalue() == joined
    assert n == len(joined)
