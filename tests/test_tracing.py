"""The benchmark's span tracer still finds every name it wraps."""

import importlib
from pathlib import Path

import treematch.cli  # noqa: F401  (the tracer wraps cli.run)
from treematch.matcher import MatchingOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = MatchingOracle.partner
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert MatchingOracle.partner is not original
        assert MatchingOracle.partner.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert MatchingOracle.partner is original
