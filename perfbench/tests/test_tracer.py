"""Tests of the benchmark's tracer: self-time arithmetic, span nesting and
wrapper removal. Run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
import types
from pathlib import Path

import pytest

from tracer import Span, Target, Tracer, covered, self_times


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("b.child", 6.0, 7.0, 2),
        Span("other_root", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    # children that overlap (as from threads) cover their union only
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),
        Span("z", 9.5, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 0.5)


def test_covered_merges_and_clips():
    assert covered((0, 10), []) == 0.0
    assert covered((0, 10), [(-5, 2), (1, 3), (3, 4), (8, 20)]) == \
        pytest.approx(4.0 + 2.0)
    assert covered((0, 10), [(11, 12)]) == 0.0


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture
def fakepkg():
    """A package whose function is imported by name into a second module,
    plus a class with a method: the three kinds of binding the tracer must
    patch and restore."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "def leaf(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return leaf(x) * 2\n"
        "class Box:\n"
        "    def step(self):\n"
        "        return 'stepped'\n", core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.outer = core.outer
    user.leaf = core.leaf
    pkg = types.ModuleType("fakepkg")
    pkg.core, pkg.user, pkg.leaf = core, user, core.leaf
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core,
                        "fakepkg.user": user})
    yield pkg
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name, None)


TARGETS = [
    Target("core.leaf", "fakepkg.core", "leaf",
           lambda args, kwargs, result: {"out": result}),
    Target("core.outer", "fakepkg.core", "outer"),
    Target("core.step", "fakepkg.core", "Box.step"),
]


def test_wrappers_record_nested_spans(fakepkg):
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(TARGETS, package="fakepkg")
        assert fakepkg.user.outer(3) == 8
        assert fakepkg.core.Box().step() == "stepped"
    names = [s.name for s in tracer.spans]
    assert names == ["core.outer", "core.leaf", "core.step"]
    outer, leaf, step = tracer.spans
    assert (outer.parent, leaf.parent, step.parent) == (-1, 0, -1)
    assert leaf.attrs == {"out": 4}
    # fake clock ticks: outer 1..4, leaf 2..3
    assert self_times(tracer.spans)[:2] == [2.0, 1.0]


def test_remove_restores_every_binding(fakepkg):
    core, user = fakepkg.core, fakepkg.user
    before = {(m.__name__, k): v for m in (fakepkg, core, user)
              for k, v in vars(m).items()}
    step = core.Box.__dict__["step"]

    tracer = Tracer()
    with tracer:
        tracer.install(TARGETS, package="fakepkg")
        assert user.leaf is not before[("fakepkg.user", "leaf")]
        assert fakepkg.leaf is not before[("fakepkg", "leaf")]
        assert core.Box.__dict__["step"] is not step
    after = {(m.__name__, k): v for m in (fakepkg, core, user)
             for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert core.Box.__dict__["step"] is step

    tracer.reset()
    user.outer(1)
    core.Box().step()
    assert tracer.spans == []


def test_exception_closes_the_span_and_is_reraised(fakepkg):
    tracer = Tracer(clock=FakeClock())
    with tracer:
        tracer.install(TARGETS, package="fakepkg")
        with pytest.raises(TypeError):
            fakepkg.user.outer("x")
        fakepkg.user.leaf(1)
    assert [s.name for s in tracer.spans] == ["core.outer", "core.leaf",
                                              "core.leaf"]
    assert tracer.spans[0].attrs == {"error": "TypeError"}
    assert tracer.spans[2].parent == -1


def test_install_failure_leaves_nothing_installed(fakepkg):
    leaf = fakepkg.core.leaf
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.install(TARGETS + [Target("x", "fakepkg.core", "missing")],
                       package="fakepkg")
    assert fakepkg.core.leaf is leaf and fakepkg.user.leaf is leaf


def test_gridquake_layers_install_at_import_sites_and_remove():
    import gridquake
    import layers

    modules = {n: m for n, m in sys.modules.items()
               if n == "gridquake" or n.startswith("gridquake.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    classes = {(c, k): v for c in (gridquake.policy.autodiff.Tensor,
                                   gridquake.policy.autodiff.Adam)
               for k, v in vars(c).items()}

    tracer = Tracer()
    with tracer:
        tracer.install(layers.targets(layers.LpSampler(seed=0)),
                       package="gridquake")
        for site, name in (("gridquake.pipeline", "ga_dispatch"),
                           ("gridquake.scenarios", "shed_at"),
                           ("gridquake.simplex", "solve_lp"),
                           ("gridquake.ga", "schedule_plan"),
                           ("gridquake.policy.train", "run_batch")):
            assert getattr(sys.modules[site], name) is not before[(site, name)]
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert all(after[k] is before[k] for k in before)
    assert all(vars(c)[k] is v for (c, k), v in classes.items())


def test_ga_evals_count_only_schedule_plan_called_from_ga():
    import layers

    spans = [
        Span("pipeline.run_pipeline", 0, 10, -1),
        Span("ga.ga_dispatch", 1, 5, 0, {"budget": 10}),
        Span("dispatch.schedule_plan", 2, 3, 1),
        Span("dispatch.schedule_plan", 3, 4, 1),
        Span("dispatch.exact_dispatch", 5, 8, 0, {"optimal": True}),
        Span("dispatch.schedule_plan", 6, 7, 4),
    ]
    m = layers.unit_metrics(spans, {"dispatch_s": 7.0})
    assert m["ga.fitness_evals"] == 2
    assert m["ga.eval_ratio"] == pytest.approx(0.2)
    assert m["dispatch.schedule_plan.calls"] == 3
    assert m["dispatch.exact_dispatch.self_s"] == pytest.approx(2.0)
    assert m["dispatch.exact_dispatch.optimal_ratio"] == 1.0
    assert m["pipeline.dispatch_s"] == 7.0


def test_metric_lists_match_benchmark_json():
    import layers
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    m = layers.unit_metrics([], {})
    assert set(m) | {n for n, _, _ in layers.PER_LAYER
                     if n.startswith(("quality.", "trace."))} == \
        {n for n, _, _ in layers.PER_LAYER}


def test_median_over_units_keeps_counts_whole():
    import layers

    m = layers.median_metrics([{"calls": 4, "s": 1.0}, {"calls": 4, "s": 2.0}])
    assert m == {"calls": 4, "s": 1.5} and isinstance(m["calls"], int)
