import ast
import inspect
import sys
from pathlib import Path

import epl
from epl import fields, losses, metrics


def test_every_exported_name_resolves():
    for name in epl.__all__:
        assert getattr(epl, name) is not None, name


def test_the_splitter_is_its_kind_string():
    assert not {"Splitter", "make_splitter"} & set(epl.__all__)
    for name in ("Splitter", "make_splitter", "SPLITTER_KINDS"):
        assert not hasattr(epl, name) and not hasattr(fields, name), name
    assert epl.ACConfig().splitter == "A"
    assert epl.ACConfig(splitter="C").directions == fields.SPLITTERS["C"]


def test_evaluate_pair_returns_a_plain_record():
    assert "EvalReport" not in epl.__all__
    assert not hasattr(epl, "EvalReport") and not hasattr(metrics, "EvalReport")


def test_evaluate_pair_scores_each_pair_from_its_own_labels():
    assert not {"GroundTruthSide", "ground_truth_side"} & set(epl.__all__)
    for name in ("GroundTruthSide", "ground_truth_side"):
        assert not hasattr(epl, name) and not hasattr(metrics, name), name
    assert "gt_side" not in inspect.signature(epl.evaluate_pair).parameters


def test_the_conversion_oracle_lives_with_the_tests():
    assert "potential_oracle" not in epl.__all__
    assert not hasattr(epl, "potential_oracle") and not hasattr(fields, "potential_oracle")


def test_the_equal_count_line_regions_live_with_the_tests():
    assert not {"LineRegions", "build_line_regions"} & set(epl.__all__)
    for name in ("LineRegions", "build_line_regions"):
        assert not hasattr(epl, name) and not hasattr(losses, name), name


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "epl"}
    sources = sorted(Path(epl.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{source.name} imports {name}"
