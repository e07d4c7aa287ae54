"""All text output: the infix grammar of expressions, deterministic
serialization of decompositions, and buffered streaming.

:func:`render_expr` writes one expression in the infix grammar, which the
package's own parser reads back to the same canonical Expr.  Decompositions
are rendered in two text modes:

* ``infix`` — a single expression like
  ``(1/2)*(x + 1)^(-1) - (x + 2)^(-1) + (1/2)*(x + 3)^(-1)``, valid input for
  the package's own parser (and for any common CAS).  Monomial terms come
  first in ascending degree, then pole terms ordered by (input factor,
  ascending order).
* ``structured`` — one LF-terminated ASCII record per term:
  ``M <degree> <coefficient>`` or ``P <factor> <order> <coefficient>`` with
  1-based factor numbers and coefficients in the same infix grammar.

One sign rule writes every signed term -- a summand, a decomposition term
and the root in a pole base ``(x - a)`` or ``(x + |a|)``: a leading negative
rational becomes the sign; a rational of magnitude 1 is dropped when anything
follows it; a rational with nothing after it is written bare (``1/2``), one
followed by factors as a factor (``(1/2)*...``); a Sum is parenthesized as a
factor.  The text is read off the terms' factors, so rendering builds no
expression node.

Serialization is byte-for-byte deterministic.  For large results,
:func:`write_streaming` pushes terms through a fixed-capacity buffer so
resident memory stays bounded by the buffer plus the largest single term.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from io import BufferedIOBase

from .core import VARIABLE, Decomposition, MonomialTerm, PoleTerm, _expanded_terms, collect
from .expr import Constant, Expr, Numeric, Power, Product, Sum, Symbol, expand

__all__ = [
    "OutputFormat",
    "StreamBuffer",
    "StreamWriteError",
    "render_expr",
    "term_chunks",
    "serialize",
    "write_streaming",
    "write_decomposition",
]


class OutputFormat(namedtuple("OutputFormat", "mode expand_coefficients")):
    """``mode`` is "infix" or "structured"."""

    __slots__ = ()

    def __new__(cls, mode: str = "infix", expand_coefficients: bool = False):
        if mode not in ("infix", "structured"):
            raise ValueError(f"unknown output mode {mode!r}")
        return super().__new__(cls, mode, expand_coefficients)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates


# --- infix rendering ---------------------------------------------------------
#
# The text form is part of the package's output contract: deterministic,
# ASCII, and re-parseable into the identical canonical expression.


def _render_rational_factor(v: Numeric) -> str:
    """A positive rational inside a product; a fraction in parentheses."""
    return str(v) if v.denominator == 1 else f"({v})"


def _render_factor(e: Expr, memo: dict[Expr, str]) -> str:
    """Render a Power, Symbol or Sum factor for use inside a '*'-joined
    product (a canonical Product's only Constant is its head, which
    :func:`_render_signed` writes).  ``memo`` maps each Power rendered so
    far to its text, so a shared power is rendered once."""
    if isinstance(e, Power):
        text = memo.get(e)
        if text is None:
            base, n = _render_factor(e.base, memo), e.exponent  # a Symbol or a Sum
            text = memo[e] = f"{base}^{n}" if n >= 0 else f"{base}^({n})"
        return text
    if isinstance(e, Symbol):
        return e.name
    return f"({_render_sum_level(e, memo)})"


def _render_signed(e: Expr, memo: dict[Expr, str], tail: str | None = None) -> tuple[bool, str]:
    """Split a term into its sign and the text of its magnitude, followed by
    ``*tail`` when a tail is given: -3*a -> (True, "3*a"), by the sign rule
    in the module docstring."""
    if isinstance(e, Constant):
        v = e.value
        negative = v < 0
        if negative:
            v = -v
        if tail is None:
            return negative, str(v)
        return negative, tail if v == 1 else f"{_render_rational_factor(v)}*{tail}"
    if not isinstance(e, Product):
        text = _render_factor(e, memo)
        return False, text if tail is None else f"{text}*{tail}"
    factors = e.factors
    head = factors[0]
    negative = False
    if isinstance(head, Constant):
        v = head.value
        texts = [_render_factor(f, memo) for f in factors[1:]]
        if v < 0:
            negative, v = True, -v
        if v != 1:
            texts.insert(0, _render_rational_factor(v))
    else:
        texts = [_render_factor(f, memo) for f in factors]
    if tail is not None:
        texts.append(tail)
    return negative, "*".join(texts)


def _render_sum_level(e: Expr, memo: dict[Expr, str]) -> str:
    """Render the terms of a Sum (or one term) with their signs."""
    pieces = []
    for t in e.terms if isinstance(e, Sum) else (e,):
        if isinstance(t, Symbol):  # most terms of a root difference: skip a call
            pieces.append(" + ")
            pieces.append(t.name)
        else:
            negative, text = _render_signed(t, memo)
            pieces.append(" - " if negative else " + ")
            pieces.append(text)
    pieces[0] = "-" if pieces[0] == " - " else ""  # the first term's sign
    return "".join(pieces)


def render_expr(e: Expr) -> str:
    """Deterministic infix text; parses back to the same canonical Expr."""
    return _render_sum_level(e, {})


# --- term streams ------------------------------------------------------------


def _prepared(d: Decomposition, fmt: OutputFormat) -> Decomposition:
    if not fmt.expand_coefficients:
        return d
    for t in (*d.monomials, *d.poles):  # refuse before expanding anything
        _expanded_terms(t.coefficient)
    monomials = [MonomialTerm(t.degree, expand(t.coefficient)) for t in d.monomials]
    poles = [PoleTerm(t.pole_index, t.order, expand(t.coefficient)) for t in d.poles]
    return collect(Decomposition(d.roots, monomials, poles))


def term_chunks(d: Decomposition, fmt: OutputFormat = OutputFormat()) -> Iterator[str]:
    """Yield the serialized form of ``d`` one term at a time.

    Joining all chunks gives exactly :func:`serialize`'s output; streaming
    consumers never need the whole text in memory.  Each distinct Power is
    rendered once per call: its text is kept for the rest of the stream.
    """
    d = _prepared(d, fmt)
    memo: dict[Expr, str] = {}
    if fmt.mode == "structured":
        for mono in d.monomials:
            yield f"M {mono.degree} {_render_sum_level(mono.coefficient, memo)}\n"
        for pole in d.poles:
            text = _render_sum_level(pole.coefficient, memo)
            yield f"P {pole.pole_index + 1} {pole.order} {text}\n"
        return
    emitted = False
    for term in (*d.monomials, *d.poles):
        if isinstance(term, PoleTerm):  # the pole base (x - a)^(-j) as a tail
            negative, root = _render_signed(d.roots[term.pole_index], memo)
            tail = f"({VARIABLE} {'+' if negative else '-'} {root})^(-{term.order})"
        elif term.degree:
            tail = VARIABLE if term.degree == 1 else f"{VARIABLE}^{term.degree}"
        else:
            tail = None
        negative, body = _render_signed(term.coefficient, memo, tail)
        if not emitted:
            yield f"-{body}" if negative else body
            emitted = True
        else:
            yield f" - {body}" if negative else f" + {body}"
    if not emitted:
        yield "0"


def serialize(d: Decomposition, fmt: OutputFormat = OutputFormat()) -> str:
    """Deterministic text form of a decomposition."""
    return "".join(term_chunks(d, fmt))


# --- buffered streaming -------------------------------------------------------


class StreamWriteError(OSError):
    """A sink write failed; ``bytes_written`` counts completed writes."""

    def __init__(self, bytes_written: int, cause: BaseException):
        super().__init__(f"sink write failed after {bytes_written} bytes: {cause}")
        self.bytes_written = bytes_written


class StreamBuffer:
    """Fixed-capacity byte accumulator with occupancy statistics.

    ``peak_pending`` records the high-water mark of buffered bytes, which the
    memory-discipline tests audit against the capacity.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.pending = bytearray()
        self.peak_pending = 0
        self.flush_count = 0


def write_streaming(
    chunks: Iterable[str], sink: BufferedIOBase, buffer: StreamBuffer | None = None
) -> int:
    """Write term chunks through a fixed-size buffer; returns bytes written.

    The buffer is flushed whenever the next chunk would overflow it; a chunk
    larger than the whole capacity bypasses the buffer in one direct write.
    """
    buf = buffer if buffer is not None else StreamBuffer()

    def sink_write(data: bytes, written: int) -> int:
        try:
            sink.write(data)
        except Exception as exc:
            raise StreamWriteError(written, exc) from exc
        buf.flush_count += 1
        return written + len(data)

    written = 0
    for chunk in chunks:
        data = chunk.encode("ascii")
        if len(buf.pending) + len(data) > buf.capacity and buf.pending:
            written = sink_write(bytes(buf.pending), written)
            buf.pending.clear()
        if len(data) > buf.capacity:
            written = sink_write(data, written)  # oversized term: pass through
        else:
            buf.pending.extend(data)
            if len(buf.pending) > buf.peak_pending:
                buf.peak_pending = len(buf.pending)
    if buf.pending:  # final flush
        written = sink_write(bytes(buf.pending), written)
        buf.pending.clear()
    return written


def write_decomposition(
    d: Decomposition,
    sink: BufferedIOBase,
    fmt: OutputFormat = OutputFormat(),
    buffer: StreamBuffer | None = None,
) -> int:
    """Stream a decomposition to a binary sink; see :func:`write_streaming`."""
    return write_streaming(term_chunks(d, fmt), sink, buffer)
