from pathlib import Path

import pytest

from spans import BOUNDARIES, Tracer, per_layer_metrics, span_stats


def test_self_time_of_hand_built_nested_spans():
    names = ["op", "a", "b"]
    # span 0 op [0,100]; 1 a [10,40] in 0; 2 b [30,60] in 0, overlapping 1;
    #      3 b [15,20] in 1; 4 a [20,25] in 1, nested in a span of its own name
    name = [0, 1, 2, 2, 1]
    start = [0, 10, 30, 15, 20]
    end = [100, 40, 60, 20, 25]
    parent = [-1, 0, 0, 1, 1]
    stats = span_stats(names, name, start, end, parent)
    # op: children cover the union [10, 60] = 50
    assert stats["op"] == {"calls": 1, "busy_ns": 100, "self_ns": 50}
    # a: 30 long minus children [15,20] and [20,25]; the nested a is 5 of self
    # time, and busy time is the union of both a spans, so it is not doubled
    assert stats["a"] == {"calls": 2, "busy_ns": 30, "self_ns": 20 + 5}
    # b: [30,60] and [15,20] have no children
    assert stats["b"] == {"calls": 2, "busy_ns": 35, "self_ns": 35}


def test_child_coverage_is_clipped_to_the_parent():
    stats = span_stats(["p", "c"], [0, 1], [10, 5], [20, 15], [-1, 0])
    assert stats["p"]["self_ns"] == 5


def test_per_layer_metrics_are_per_pass():
    stats = {"fuzzy.gamma_product": {"calls": 4, "busy_ns": 8_000_000_000, "self_ns": 8_000_000_000}}
    out = per_layer_metrics(stats, {"theorems.verify.trm_i.checked": 6}, passes=2, overhead_frac=0.1)
    assert out["fuzzy.gamma_product.calls"] == (2.0, "count")
    assert out["fuzzy.gamma_product.busy_s"] == (4.0, "s")
    assert out["fuzzy.gamma_product.us_per_call"] == (2e6, "us")
    assert out["theorems.verify.trm_i.checked"] == (3.0, "count")
    assert out["finder.enumerate_models.us_per_model"] == (0.0, "us")
    assert out["trace.overhead_frac"] == (0.1, "ratio")


def boundary_values(g):
    out = {}
    for _, paths in BOUNDARIES:
        for path in paths:
            module, attr = path.split(".")
            out[path] = getattr(getattr(g, module), attr)
    return out


def test_install_then_restore_leaves_every_attribute_identical(g):
    before = boundary_values(g)
    tracer = Tracer()
    tracer.install(g)
    try:
        during = boundary_values(g)
        assert all(during[p] is not before[p] for p in before)
        ir5 = g.core.load_structure(Path(__file__).resolve().parents[2] / "corpus" / "ir5.json")
        verdict = g.theorems.verify(ir5, "l145", g.fuzzy.Lattice(1))
        assert verdict.status == "holds"
    finally:
        tracer.restore()
    after = boundary_values(g)
    assert all(after[p] is before[p] for p in before)
    stats = span_stats(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
    assert stats["theorems.verify.l145"]["calls"] == 1
    assert stats["fuzzy.gamma_product"]["calls"] > 0
    assert tracer.counts["theorems.verify.l145.checked"] == verdict.checked
    # the verify span is the root, and every product it ran is its direct child
    assert tracer.names[tracer.name[0]] == "theorems.verify.l145" and tracer.parent[0] == -1
    products = [i for i, nid in enumerate(tracer.name) if tracer.names[nid] == "fuzzy.gamma_product"]
    assert products and all(tracer.parent[i] == 0 for i in products)


def test_traced_generator_counts_models_and_budget_stops(g):
    tracer = Tracer()
    tracer.install(g)
    try:
        models = list(g.finder.enumerate_models(g.finder.SearchSpec(order=3)))
        stats = span_stats(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
        assert len(models) == tracer.counts["finder.enumerate_models.models"] == 20
        assert stats["core.GammaMagma"]["calls"] == 20
        # one span per resumption, the last one ending the search
        assert stats["finder.enumerate_models"]["calls"] == 21
        with pytest.raises(g.finder.SearchBudgetError):
            list(g.finder.enumerate_models(g.finder.SearchSpec(order=4, budget=50)))
    finally:
        tracer.restore()
    assert tracer.counts["finder.budget_stops"] == 1


def test_second_install_is_refused(g):
    tracer = Tracer()
    tracer.install(g)
    try:
        with pytest.raises(RuntimeError):
            tracer.install(g)
    finally:
        tracer.restore()
