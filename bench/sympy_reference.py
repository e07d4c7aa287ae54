#!/usr/bin/env python3
"""Reference timings of ``sympy.apart`` next to partfrac on small symbolic
inputs.  Reference only: never a benchmark metric.

    python3 bench/sympy_reference.py

Each case is x^l / prod_k (x - a_k)^(m_k) with symbolic roots a_1..a_n.
SymPy runs in a child process (one at a time) so a case that exceeds
TIMEOUT_S can be stopped.  partfrac's time is the median of five in-process
``decompose`` calls.  Prints a Markdown table; skips everything when SymPy
does not import.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # per sympy.apart case
CASES = [(0, (1, 1)), (0, (2, 1)), (1, (2, 2)), (0, (2, 1, 1)), (2, (2, 2, 1)),
         (0, (2, 2, 2)), (4, (2, 2, 2))]

CHILD = """
import sys, time, sympy
l, mults = int(sys.argv[1]), [int(m) for m in sys.argv[2].split(",")]
x = sympy.Symbol("x")
den = sympy.Integer(1)
for k, m in enumerate(mults, start=1):
    den *= (x - sympy.Symbol(f"a{k}")) ** m
t = time.perf_counter()
sympy.apart(x**l / den, x)
print(time.perf_counter() - t)
"""


def sympy_time(l: int, mults) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(l), ",".join(map(str, mults))],
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"not finished after {TIMEOUT_S} s"
    if proc.returncode != 0:
        return "error: " + proc.stderr.strip().splitlines()[-1]
    return f"{float(proc.stdout):.3f} s"


def partfrac_time(pf, l: int, mults) -> str:
    roots = pf.parse_root_list(",".join(f"a{k}" for k in range(1, len(mults) + 1)))
    spec = pf.RationalFunctionSpec(l, tuple(zip(roots, mults)))
    times = []
    for _ in range(5):
        t = perf_counter()
        pf.decompose(spec)
        times.append(perf_counter() - t)
    return f"{statistics.median(times) * 1000:.2f} ms"


def main() -> int:
    try:
        import sympy  # noqa: F401
    except ImportError:
        print("sympy does not import; no reference column", file=sys.stderr)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    import partfrac as pf

    print("| l; m_1..m_n | sympy.apart | partfrac decompose |")
    print("| --- | --- | --- |")
    for l, mults in CASES:
        label = f"{l}; {','.join(map(str, mults))}"
        print(f"| {label} | {sympy_time(l, mults)} | {partfrac_time(pf, l, mults)} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
