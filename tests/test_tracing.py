"""The benchmark's tracer wraps functions of partfrac by name; a rename
that would break ``bench/run.py --trace 1`` fails here."""

import pathlib

import partfrac
import partfrac.cli
from partfrac import output


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    originals = (output.term_chunks, output.write_streaming, partfrac.cli.term_chunks)
    tracer = tracing.Tracer()
    try:
        tracer.install(partfrac)
        assert output.term_chunks is not originals[0]
        spec = partfrac.RationalFunctionSpec(0, ((partfrac.Symbol("a"), 1),))
        assert output.serialize(partfrac.core.decompose(spec)) == "(x - a)^(-1)"
        assert {"core.decompose", "output.render"} <= {span[0] for span in tracer.spans}
    finally:
        tracer.uninstall()
    assert (output.term_chunks, output.write_streaming, partfrac.cli.term_chunks) == originals
