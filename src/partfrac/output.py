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

Serialization is byte-for-byte deterministic.  For large results,
:func:`write_streaming` pushes terms through a fixed-capacity buffer so
resident memory stays bounded by the buffer plus the largest single term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator

from .core import Decomposition, MonomialTerm, PoleTerm
from .expr import ONE, ZERO, Constant, Expr, Power, Product, Sum, Symbol, expand

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

VARIABLE = "x"  # the decomposition variable is fixed


@dataclass(frozen=True)
class OutputFormat:
    mode: str = "infix"  # "infix" or "structured"
    expand_coefficients: bool = False

    def __post_init__(self):
        if self.mode not in ("infix", "structured"):
            raise ValueError(f"unknown output mode {self.mode!r}")


# --- infix rendering ---------------------------------------------------------
#
# The text form is part of the package's output contract: deterministic,
# ASCII, and re-parseable into the identical canonical expression.


def _render_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _render_power(e: Power) -> str:
    base = e.base
    base_s = base.name if isinstance(base, Symbol) else f"({_render_sum_level(base)})"
    exp_s = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
    return f"{base_s}^{exp_s}"


def _render_factor(e: Expr) -> str:
    """Render for use inside a '*'-joined product."""
    if isinstance(e, Constant):
        v = e.value
        if v.denominator == 1 and v >= 0:
            return str(v.numerator)
        return f"({_render_fraction(v)})"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Power):
        return _render_power(e)
    if isinstance(e, Sum):
        return f"({_render_sum_level(e)})"
    return "*".join(_render_factor(f) for f in e.factors)


def _render_term(e: Expr) -> str:
    """Render a term for use inside a ' + '-joined sum; a Sum gets
    parentheses."""
    if isinstance(e, Constant):
        return _render_fraction(e.value)
    if isinstance(e, Product):
        return "*".join(_render_factor(f) for f in e.factors)
    return _render_factor(e)


def _sign_split(e: Expr) -> tuple[bool, Expr]:
    """Split a leading negative rational off a term: -3*a -> (True, 3*a)."""
    if isinstance(e, Constant) and e.value < 0:
        return True, Constant(-e.value)
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Constant) and head.value < 0:
            rest = e.factors[1:]
            if head.value == -1:
                return True, rest[0] if len(rest) == 1 else Product(rest)
            return True, Product((Constant(-head.value),) + rest)
    return False, e


def _render_sum_level(e: Expr) -> str:
    if not isinstance(e, Sum):
        negative, magnitude = _sign_split(e)
        body = _render_term(magnitude)
        return f"-{body}" if negative else body
    pieces = []
    for i, t in enumerate(e.terms):
        negative, magnitude = _sign_split(t)
        body = _render_term(magnitude)
        if i == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def render_expr(e: Expr) -> str:
    """Deterministic infix text; parses back to the same canonical Expr."""
    return _render_sum_level(e)


# --- decomposition term rendering --------------------------------------------


def _pole_base(root: Expr, order: int) -> str:
    negative, magnitude = _sign_split(root)
    sign = "+" if negative else "-"
    return f"({VARIABLE} {sign} {_render_term(magnitude)})^(-{order})"


def _infix_body(term: MonomialTerm | PoleTerm, magnitude: Expr, root: Expr | None) -> str:
    if isinstance(term, MonomialTerm):
        if term.degree == 0:
            return _render_term(magnitude)
        x_s = VARIABLE if term.degree == 1 else f"{VARIABLE}^{term.degree}"
        if magnitude == ONE:
            return x_s
        return f"{_render_factor(magnitude)}*{x_s}"
    base = _pole_base(root, term.order)
    if magnitude == ONE:
        return base
    return f"{_render_factor(magnitude)}*{base}"


# --- term streams ------------------------------------------------------------


def _prepared(d: Decomposition, fmt: OutputFormat) -> Decomposition:
    if not fmt.expand_coefficients:
        return d
    monomials = []
    for mono in d.monomials:
        c = expand(mono.coefficient)
        if c != ZERO:
            monomials.append(MonomialTerm(mono.degree, c))
    poles = []
    for pole in d.poles:
        c = expand(pole.coefficient)
        if c != ZERO:
            poles.append(PoleTerm(pole.pole_index, pole.order, c))
    return Decomposition(d.roots, tuple(monomials), tuple(poles))


def term_chunks(d: Decomposition, fmt: OutputFormat = OutputFormat()) -> Iterator[str]:
    """Yield the serialized form of ``d`` one term at a time.

    Joining all chunks gives exactly :func:`serialize`'s output; streaming
    consumers never need the whole text in memory.
    """
    d = _prepared(d, fmt)
    if fmt.mode == "structured":
        for mono in d.monomials:
            yield f"M {mono.degree} {render_expr(mono.coefficient)}\n"
        for pole in d.poles:
            yield f"P {pole.pole_index + 1} {pole.order} {render_expr(pole.coefficient)}\n"
        return
    emitted = False
    for term in (*d.monomials, *d.poles):
        root = d.roots[term.pole_index] if isinstance(term, PoleTerm) else None
        negative, magnitude = _sign_split(term.coefficient)
        body = _infix_body(term, magnitude, root)
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


@dataclass
class StreamBuffer:
    """Fixed-capacity byte accumulator with occupancy statistics.

    ``peak_pending`` records the high-water mark of buffered bytes, which the
    memory-discipline tests audit against the capacity.
    """

    capacity: int = 65536
    pending: bytearray = field(default_factory=bytearray)
    peak_pending: int = 0
    flush_count: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {self.capacity}")


def write_streaming(
    chunks: Iterable[str], sink: BinaryIO, buffer: StreamBuffer | None = None
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
    sink: BinaryIO,
    fmt: OutputFormat = OutputFormat(),
    buffer: StreamBuffer | None = None,
) -> int:
    """Stream a decomposition to a binary sink; see :func:`write_streaming`."""
    return write_streaming(term_chunks(d, fmt), sink, buffer)
