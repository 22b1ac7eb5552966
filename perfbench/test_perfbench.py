"""Self-tests of the benchmark: span arithmetic, wrapper hygiene, input determinism.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib

import pytest

import run
from tracer import END, PARENT, SPANS, START, Tracer, epl_namespaces, self_times


def _span(name, parent, start, end):
    return [name, 1, parent, start, end]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 3.0, 6.0),  # overlaps a: together they cover 1..6
        _span("c", 0, 9.0, 12.0),  # sticks out of the root: only 9..10 counts
        _span("a.child", 1, 2.0, 3.0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 3.0, 1.0])


def test_uncalled_spans_report_zero():
    metrics = Tracer().layer_metrics()
    for name in SPANS:
        assert metrics[f"{name}.calls"] == (0, "count")
        assert metrics[f"{name}.ms_p50"][0] == 0.0
    assert metrics["losses.line_useful_share"][0] == 0.0


def test_uninstall_restores_every_epl_attribute():
    namespaces = epl_namespaces()
    before = [dict(vars(ns)) for ns in namespaces]
    import epl.cli
    import epl.model

    tracer = Tracer()
    tracer.install()
    try:
        assert epl.model.backward is not before[namespaces.index(epl.model)]["backward"]
        assert epl.cli.main.__wrapped__ is before[namespaces.index(epl.cli)]["main"]
        # the same function imported into several modules is wrapped in each
        assert epl.model.anisotropic_convolve is epl.fields.anisotropic_convolve
        probs = epl.model.TinyNet(1, 3).forward([[0.0] * 16] * 16)
        assert probs.shape == (3, 16, 16)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["model.forward_with_cache"]
    assert tracer.spans[0][PARENT] == -1 and tracer.spans[0][END] >= tracer.spans[0][START]
    for ns, saved in zip(namespaces, before):
        now = vars(ns)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved), ns


def _digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_workload_inputs_follow_the_seed(tmp_path):
    digests = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        bench = run.Bench("eval-pgm", seed, tmp_path / f"work-{tag}")
        bench.setup(tmp_path / tag, warm_up=False)
        digests[tag] = _digest(tmp_path / tag)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]
