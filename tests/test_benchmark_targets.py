"""The per-layer benchmark wraps functions by dotted name; each name must
still point at something in grover_lab, or the traced run breaks."""

from pathlib import Path

import pytest

import grover_lab

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import TARGETS

    assert TARGETS
    for target in TARGETS:
        owner = grover_lab
        for part in target.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                pytest.fail(f"{target}: grover_lab has no {part!r} there")
        assert callable(owner), target
