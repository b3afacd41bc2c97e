"""Byte-identity of the CLI against the golden corpus in tests/golden/.

The corpus was written once by tests/golden/make_golden.py; a refactor that
changes any solver's or oracle's JSON, tie-break included, or any batch CSV
field but `millis`, fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bottleneck_trees.cli import main

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

INSTANCE_PATHS = sorted(make_golden.INSTANCES.glob("*.json"))


def _runs(instance: Path):
    doc = json.loads(instance.read_text(encoding="utf-8"))
    return [
        (make_golden.output_path(instance, suffix), argv)
        for suffix, argv in make_golden.solver_runs(doc)
    ]


def test_corpus_is_complete():
    assert {p.stem for p in INSTANCE_PATHS} == set(make_golden.INSTANCES_SPEC)
    expected = {out.name for p in INSTANCE_PATHS for out, _ in _runs(p)}
    expected.add(make_golden.BATCH_OUTPUT.name)
    on_disk = {p.name for p in make_golden.OUTPUTS.iterdir()}
    assert on_disk == expected
    assert make_golden.BATCH_CONFIG.exists()


@pytest.mark.parametrize("instance", INSTANCE_PATHS, ids=lambda p: p.stem)
def test_outputs_are_byte_identical(instance, tmp_path):
    for golden, argv in _runs(instance):
        fresh = tmp_path / golden.name
        assert main([*argv, "--input", str(instance), "-o", str(fresh)]) == 0
        assert fresh.read_bytes() == golden.read_bytes(), golden.name


def test_batch_is_byte_identical(tmp_path):
    fresh = tmp_path / "batch.csv"
    assert main(["batch", "--config", str(make_golden.BATCH_CONFIG), "-o", str(fresh)]) == 0
    blanked = make_golden.blank_millis(fresh.read_text(encoding="utf-8"))
    assert blanked == make_golden.BATCH_OUTPUT.read_text(encoding="utf-8")
