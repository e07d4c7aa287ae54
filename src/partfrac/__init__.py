"""partfrac: exact univariate partial fraction decomposition.

Decomposes x^l / prod_k (x - a_k)^(m_k) with symbolic or rational roots a_k
into a quotient polynomial plus pole terms c_kj / (x - a_k)^j, using exact
arbitrary-precision arithmetic throughout.  Coefficients come out in closed
form as products of powers of root differences; no symbolic differentiation
or polynomial factorization is involved.
"""

from .combinatorics import binomial, compositions, multinomial
from .core import (
    Decomposition,
    DuplicateRootError,
    MonomialTerm,
    PoleTerm,
    RationalFunctionSpec,
    collect,
    decompose,
    decompose_batch,
    decompose_proper,
    poly_div,
    proper_contributions,
)
from .expr import (
    ONE,
    ZERO,
    Constant,
    Expr,
    Power,
    Product,
    Sum,
    Symbol,
    UnboundSymbolError,
    canonicalize,
    evaluate,
    expand,
    product_of,
    sum_of,
    symbols,
    symbols_in,
)
from .oracle import (
    Counterexample,
    SubstitutionReport,
    check_by_substitution,
    compare_with_oracle,
    decomposition_value,
    oracle_decompose,
    rational_function_value,
)
from .output import (
    OutputFormat,
    StreamBuffer,
    StreamWriteError,
    render_expr,
    serialize,
    term_chunks,
    write_decomposition,
    write_streaming,
)
from .parser import ParseError, SourceSpan, parse_expr, parse_root_list

__version__ = "0.1.0"
