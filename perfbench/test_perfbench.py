"""Self-checks of the benchmark: generated models and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rlentropy  # noqa: E402
from rlentropy import parse_model, pipeline  # noqa: E402

import models  # noqa: E402
from spans import ROOT as ROOT_SPAN, TRACED, Tracer  # noqa: E402


def rule_lines(text):
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


@pytest.mark.parametrize("text, fixture", [
    (models.free_group(2), "fg2.rw"),
    (models.tree(3), "t3.rw"),
])
def test_generated_model_equals_fixture(text, fixture):
    fixture_text = (ROOT / "fixtures" / fixture).read_text(encoding="utf-8")
    assert rule_lines(text) == rule_lines(fixture_text)
    a, b = parse_model(text), parse_model(fixture_text)
    assert a.alphabet == b.alphabet
    assert a.rules == b.rules


@pytest.mark.parametrize("family, size", [
    (models.free_group, 2), (models.free_group, 3), (models.tree, 4)])
def test_seed_shuffles_lines_not_the_walk(family, size):
    canonical = parse_model(family(size))
    for seed in range(3):
        text = family(size, random.Random(seed))
        shuffled = parse_model(text)
        assert sorted(shuffled.alphabet) == sorted(canonical.alphabet)
        assert shuffled.rules == canonical.rules
        assert text == family(size, random.Random(seed))


@pytest.mark.parametrize("family, exact, size", [
    (models.free_group, models.free_group_exact, 2),
    (models.tree, models.tree_exact, 3),
    (models.tree, models.tree_exact, 4),
])
def test_closed_forms(family, exact, size):
    ell, h = exact(size)
    report = pipeline.analyze(parse_model(family(size))).report
    assert report.ell == pytest.approx(ell, abs=1e-9)
    assert report.h == pytest.approx(h, abs=1e-9)


def test_tracer_spans_cover_the_operation_and_uninstall_restores():
    originals = {name: getattr(getattr(rlentropy, name.split(".")[0]),
                               name.split(".")[1]) for name in TRACED}
    tracer = Tracer()
    model = parse_model(models.tree(3))
    tracer.install()
    try:
        with tracer.operation(0):
            rlentropy.pipeline.analyze(model)
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        mod, attr = name.split(".")
        assert getattr(getattr(rlentropy, mod), attr) is original
    assert rlentropy.entropy.limit_words is rlentropy.cones.limit_words
    assert rlentropy.simulate.LWordEvaluator is rlentropy.genfun.LWordEvaluator

    self_s, calls = tracer.self_times()
    assert calls[ROOT_SPAN] == 1 and calls["pipeline.analyze"] == 1
    assert calls["cones.build_atlas"] == 1 and calls["entropy.HiddenChain"] == 1
    wall = sum(tracer.op_walls())
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(s["op"] == 0 and s["end"] >= s["start"] for s in tracer.spans)
    seqs = tracer.count_sequences()
    assert dict(seqs[0])["lastentry.classes"] == 1


def test_tracer_patches_names_bound_at_import():
    tracer = Tracer()
    tracer.install()
    try:
        assert rlentropy.cli.load_model is rlentropy.model.load_model
        assert rlentropy.entropy.limit_words.__wrapped__ is not None
        assert rlentropy.simulate.LWordEvaluator is rlentropy.genfun.LWordEvaluator
        assert rlentropy.simulate.LWordEvaluator.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(rlentropy.cli.load_model, "__wrapped__")
