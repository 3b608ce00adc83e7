"""perfbench/tracing.py wraps polymf3 functions by name; a rename must fail here."""

import importlib.util
import pathlib

import polymf3
import polymf3.cli  # noqa: F401  (imported before install, as perfbench/bench.py does)
import polymf3.serialize  # noqa: F401
from polymf3 import VarContext, gcd

ROOT = pathlib.Path(__file__).parent.parent
TRACING_SPEC = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(TRACING_SPEC)
TRACING_SPEC.loader.exec_module(tracing)


def test_the_tracer_installs_and_counts_a_prs_fallback():
    x, y = VarContext("x y").gens()
    tracer = tracing.Tracer()
    tracing.install(tracer, polymf3)
    tracer.enable()
    try:
        g = gcd((x * y + 1) * (x + y), (x * y + 1) * (x - y))
    finally:
        tracer.disable()
    assert g == x * y + 1
    assert tracer.counts["poly.gcd.prs_fallbacks"] >= 1
