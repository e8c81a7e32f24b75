"""Network document loading, validation, and radiality checks."""

import ast
import inspect
import json
import math
import re
from pathlib import Path

import pytest

import gridquake
from gridquake import cli, dispatch, fixtures, pipeline, scenarios, seismic
from gridquake.errors import ConfigError
from gridquake.fixtures import builtin_feeder, random_radial_network
from gridquake.model import (Bus, FragilityCurve, Line, LoadProfile, Network,
                             check, load_network, network_to_document,
                             read_record, validate_radiality)
from gridquake.pipeline import PipelineConfig
from gridquake.policy import rollout
from gridquake.policy.nn import PolicyConfig
from gridquake.scenarios import (DamageScenario, LossDistribution,
                                 ScenarioSet, reduction_distance,
                                 return_period_loss)
from gridquake.seismic import SeismicEvent, ground_motion_pga


def doc_minimal():
    return {
        "buses": [
            {"id": "b1", "x": 0.0, "y": 0.0, "is_substation": True},
            {"id": "b2", "x": 3.0, "y": 4.0, "load_profile": "p1"},
        ],
        "lines": [
            {"id": "l1", "from_bus": "b1", "to_bus": "b2",
             "resistance": 0.01, "reactance": 0.02, "capacity_mva": 5.0},
        ],
        "generators": [],
        "depots": [{"id": "d1", "x": 0.0, "y": 0.0, "crew_count": 1}],
        "components": [{"id": "c1", "kind": "line", "ref": "l1"}],
        "profiles": [{"id": "p1", "p_mw": [1.0, 2.0]}],
    }


def test_minimal_network_loads():
    net = load_network(json.dumps(doc_minimal()))
    assert set(net.buses) == {"b1", "b2"}
    assert net.lines["l1"].length_km == pytest.approx(5.0)
    assert net.substation_buses() == ["b1"]


def test_load_profile_cycles():
    net = load_network(json.dumps(doc_minimal()))
    p0, _ = net.loads_at(0)
    p3, _ = net.loads_at(3)
    assert p0["b2"] == pytest.approx(1.0)
    assert p3["b2"] == pytest.approx(2.0)  # hour 3 wraps a 2-entry profile


def test_reactive_load_follows_power_factor_angle():
    doc = doc_minimal()
    doc["buses"][1]["power_factor_angle"] = 0.3
    net = load_network(json.dumps(doc))
    p, q = net.loads_at(1)
    assert q["b2"] == pytest.approx(2.0 * math.tan(0.3))


def test_peak_hour_is_argmax_of_total_load():
    doc = doc_minimal()
    doc["profiles"][0]["p_mw"] = [1.0, 5.0, 2.0]
    net = load_network(json.dumps(doc))
    assert net.peak_hour() == 1


def test_import_limit_defaults_to_sum_of_profile_peaks():
    net = load_network(json.dumps(doc_minimal()))
    assert net.import_limit_mva() == pytest.approx(2.0)


def test_duplicate_ids_rejected():
    doc = doc_minimal()
    doc["buses"].append(dict(doc["buses"][0]))
    with pytest.raises(ConfigError):
        load_network(json.dumps(doc))


def test_unknown_bus_reference_names_path():
    doc = doc_minimal()
    doc["lines"][0]["to_bus"] = "nope"
    with pytest.raises(ConfigError) as err:
        load_network(json.dumps(doc))
    assert "lines[0]" in str(err.value)


def test_component_must_reference_existing_equipment():
    doc = doc_minimal()
    doc["components"].append({"id": "c2", "kind": "generator", "ref": "gX"})
    with pytest.raises(ConfigError):
        load_network(json.dumps(doc))


def test_cycle_rejected():
    doc = doc_minimal()
    doc["buses"].append({"id": "b3", "x": 1.0, "y": 1.0})
    doc["lines"] += [
        {"id": "l2", "from_bus": "b2", "to_bus": "b3",
         "resistance": 0.01, "reactance": 0.01, "capacity_mva": 5.0},
        {"id": "l3", "from_bus": "b3", "to_bus": "b1",
         "resistance": 0.01, "reactance": 0.01, "capacity_mva": 5.0},
    ]
    with pytest.raises(ConfigError) as err:
        load_network(json.dumps(doc))
    assert "cycle" in str(err.value).lower()


def test_sourceless_group_rejected():
    doc = doc_minimal()
    doc["buses"].append({"id": "b3", "x": 1.0, "y": 1.0, "load_profile": "p1"})
    with pytest.raises(ConfigError) as err:
        load_network(json.dumps(doc))
    assert "b3" in str(err.value)


def test_isolated_group_with_generator_allowed():
    doc = doc_minimal()
    doc["buses"].append({"id": "b3", "x": 1.0, "y": 1.0})
    doc["generators"].append({"id": "g1", "bus": "b3", "p_min": 0.0,
                              "p_max": 1.0, "q_min": -0.5, "q_max": 0.5})
    net = load_network(json.dumps(doc))
    assert "b3" in net.buses


def test_validate_radiality_accepts_builtin_feeder():
    assert validate_radiality(builtin_feeder()).ok


def test_validate_radiality_reports_each_cycle_and_sourceless_group():
    buses = {b: Bus(id=b, x=0.0, y=0.0, is_substation=b == "b1")
             for b in ("b1", "b2", "b3", "b4", "b5", "b6")}
    ends = [("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1"),
            ("b2", "b4"), ("b3", "b6")]
    lines = {f"l{i}": Line(id=f"l{i}", from_bus=a, to_bus=b, resistance=0.0,
                           reactance=0.0, capacity_mva=1.0)
             for i, (a, b) in enumerate(ends, start=1)}
    net = Network(buses=buses, lines=lines, generators={}, depots={},
                  components={}, profiles={})
    report = validate_radiality(net)
    # l4 and l5 each close a cycle: their path in the forest of l1-l3, l6
    assert report.cycles == (("l3", "l2", "l1", "l4"), ("l2", "l3", "l5"))
    assert report.sourceless == (("b5",),)
    assert not report.ok


def test_document_round_trip():
    nets = [builtin_feeder()] + [random_radial_network(s, n)
                                 for s in range(5) for n in (2, 6, 30)]
    for net in nets:
        doc = network_to_document(net)
        net2 = load_network(json.dumps(doc))
        assert network_to_document(net2) == doc
        assert repr(net2) == repr(net)


def test_builtin_feeder_shape():
    net = builtin_feeder()
    assert len(net.buses) == 13
    assert len(net.lines) == 12
    assert len(net.substation_buses()) == 1
    assert len(net.depots) == 2
    assert len(net.components) == 15
    assert net.peak_hour() == 19


def test_component_locations():
    net = builtin_feeder()
    # a line component sits at the line midpoint
    ln = net.lines["l1"]
    fx, fy = net.buses[ln.from_bus].x, net.buses[ln.from_bus].y
    tx, ty = net.buses[ln.to_bus].x, net.buses[ln.to_bus].y
    assert net.component_location("c_l1") == pytest.approx(
        ((fx + tx) / 2, (fy + ty) / 2))
    # a generator component sits at its bus
    g = net.generators["g1"]
    b = net.buses[g.bus]
    assert net.component_location("c_g1") == pytest.approx((b.x, b.y))


DELETE = object()


def _with(path, value):
    """doc_minimal() with the value at `path` (keys and list indices)
    replaced, or the key removed when `value` is DELETE."""
    doc = doc_minimal()
    *parents, last = path
    rec = doc
    for key in parents:
        rec = rec[key]
    if value is DELETE:
        del rec[last]
    else:
        rec[last] = value
    return doc


@pytest.mark.parametrize("path,value,where", [
    (("buses", 1, "x"), "abc", "buses[1].x: expected a number"),
    (("buses", 1, "x"), True, "buses[1].x: expected a number"),
    (("buses", 1, "x"), None, "buses[1].x: expected a number"),
    (("buses", 0, "is_substation"), "false",
     "buses[0].is_substation: expected true or false"),
    (("buses", 0, "is_substation"), 1,
     "buses[0].is_substation: expected true or false"),
    (("buses", 0, "v_mn"), 0.9, "unknown field buses[0].v_mn"),
    (("substation_import_mvaa",), 3.0,
     "unknown field substation_import_mvaa"),
    (("timestep_hours",), "1", "timestep_hours: expected a number"),
    (("buses", 1, "load_profile"), 1, "buses[1].load_profile"),
    (("depots", 0, "crew_count"), 1.7,
     "depots[0].crew_count: expected an integer"),
    (("depots", 0, "crew_count"), 2.0,
     "depots[0].crew_count: expected an integer"),
    (("depots", 0, "id"), 5, "depots[0].id: expected a string"),
    (("profiles", 0, "p_mw"), 5, "profiles[0].p_mw: expected a list"),
    (("profiles", 0, "p_mw"), [1.0, "2"],
     "profiles[0].p_mw[1]: expected a number"),
    (("components", 0, "fragility"), 3,
     "components[0].fragility: expected an object"),
    (("components", 0, "fragility"), {"median_g": 0.3},
     "components[0].fragility: missing required field 'beta'"),
    (("components", 0, "fragility"), {"median_g": 0.3, "beta": "0.7"},
     "components[0].fragility.beta: expected a number"),
    (("components", 0, "repair_hours"), None,
     "components[0].repair_hours: expected a number"),
    (("lines", 0, "capacity_mva"), DELETE,
     "lines[0]: missing required field 'capacity_mva'"),
    (("lines",), {"l1": {}}, "lines: expected a list of objects"),
    (("lines", 0), "l1", "lines: expected a list of objects"),
    # timelines and profiles step in whole hours; another step only
    # rescaled ENS
    (("timestep_hours",), 0.25, "timestep_hours must be 1, got 0.25"),
    (("timestep_hours",), 2, "timestep_hours must be 1, got 2"),
])
def test_malformed_network_field_names_its_path(path, value, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_network(_with(path, value))


def test_integer_numbers_load_as_written():
    # an integer is a number; it is stored as read, not converted
    doc = doc_minimal()
    doc["buses"][1].update(x=3, y=4)
    doc["profiles"][0]["p_mw"] = [1, 2]
    net = load_network(json.dumps(doc))
    assert net.buses["b2"].x == 3 and type(net.buses["b2"].x) is int
    assert net.profiles["p1"].p_mw == (1, 2)
    assert net.lines["l1"].length_km == pytest.approx(5.0)
    assert net.components["c1"].fragility == FragilityCurve(0.3, 0.7)
    assert net.components["c1"].repair_hours == 1.0


def test_null_length_and_fragility_take_the_loader_defaults():
    doc = doc_minimal()
    doc["lines"][0]["length_km"] = None
    doc["components"][0]["fragility"] = None
    net = load_network(doc)
    assert net.lines["l1"].length_km == pytest.approx(5.0)
    assert net.components["c1"].fragility == FragilityCurve(0.3, 0.7)


def test_read_record_rules():
    rec = {"id": "p", "p_mw": [1, 2.5], "q_mvar": None}
    assert read_record(LoadProfile, rec, "x") == LoadProfile("p", (1, 2.5))
    # given values win over the document and are taken as they are
    assert read_record(LoadProfile, rec, "x", p_mw=(3.0,)).p_mw == (3.0,)
    with pytest.raises(ConfigError, match=re.escape("x: expected an object")):
        read_record(LoadProfile, [rec], "x")
    with pytest.raises(ConfigError, match="document: missing required "
                                          "field 'id'"):
        read_record(LoadProfile, {"p_mw": [1.0]}, "")
    with pytest.raises(ConfigError, match=re.escape("x.q_mvar[0]: expected "
                                                    "a number, got False")):
        read_record(LoadProfile, {**rec, "q_mvar": [False, 1.0]}, "x")


def test_check_raises_for_the_first_failing_rule_in_order():
    check()
    check(("a", 1, True, "> 0"))
    with pytest.raises(ConfigError) as err:
        check(("a", 1, True, "> 0"), ("b", -2, False, ">= 0"),
              ("c", "x", False, "a number"))
    assert str(err.value) == "b must be >= 0, got -2"
    with pytest.raises(ConfigError) as err:
        check(("c", "x", False, "a number"), ("b", -2, False, ">= 0"))
    assert str(err.value) == "c must be a number, got 'x'"


@pytest.mark.parametrize("build,message", [
    # every rule is computed before check reads it: unguarded, width % 0
    # would raise ZeroDivisionError, len(None) and None >= 0 TypeError and
    # min(()) ValueError
    (lambda: PolicyConfig(heads=0), "heads must be >= 1, got 0"),
    (lambda: PolicyConfig(width=0, heads=0), "width must be >= 1, got 0"),
    (lambda: PolicyConfig(width=10, heads=4),
     "width must be divisible by heads (4), got 10"),
    (lambda: LoadProfile("p", ()), "p_mw must be non-empty, got ()"),
    (lambda: LoadProfile("p", (1.0,), (1.0, 2.0)), "q_mvar must be null or "
     "1 values, one per p_mw hour, got (1.0, 2.0)"),
    (lambda: Network({}, {}, {}, {}, {}, {}, substation_import_mva=-1.0),
     "substation_import_mva must be null or >= 0, got -1.0"),
    (lambda: PipelineConfig(solvers=("policy",)), "policy_model must be a "
     "checkpoint path for 'policy', got None"),
    (lambda: Bus("b", 0.0, 0.0, v_min=1.0, v_max=0.9),
     "v_max must be >= v_min, got 0.9")])
def test_cross_field_rules_are_guarded(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message
    # the guarded reads pass where the other field allows them
    LoadProfile("p", (1.0,))
    Network({}, {}, {}, {}, {}, {}, substation_import_mva=None)
    PipelineConfig(solvers=("exact",), policy_model=None)


def test_every_record_rule_goes_through_check():
    """Each dataclass __post_init__ in the package states its value rules
    in a check(...) call and raises nothing itself, so that every rule
    error has one form, led by its field, which read_record prefixes with
    the record's path."""
    found = {}
    for path in sorted(Path(gridquake.__file__).parent.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in cls.decorator_list)):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and fn.name == "__post_init__"):
                    nodes = list(ast.walk(fn))
                    found[cls.name] = (
                        any(isinstance(n, ast.Raise) for n in nodes),
                        any(isinstance(n, ast.Call)
                            and ast.unparse(n.func) == "check"
                            for n in nodes))
    assert {"FragilityCurve", "Bus", "Line", "Generator", "LoadProfile",
            "Depot", "Component", "Network", "SeismicEvent",
            "DispatchInstance", "GaConfig", "PipelineConfig",
            "PolicyConfig", "InstanceFamily", "PpoConfig"} <= found.keys()
    assert {name: rule for name, rule in found.items()
            if rule != (False, True)} == {}


def _one_scenario_set():
    return ScenarioSet(scenarios=(DamageScenario(id=0, failed=(), loss=1.0,
                                                 ens_mw=0.0, weight=1.0),),
                       magnitude=7.0, seed=0, n_generated=1)


@pytest.mark.parametrize("call,message", [
    (lambda: return_period_loss(LossDistribution.from_values([1.0], [1.0]),
                                0), "return period must be > 0, got 0"),
    (lambda: reduction_distance(_one_scenario_set(), []),
     "retained_ids must be non-empty, got []"),
    (lambda: random_radial_network(0, n_buses=1), "n_buses must be >= 2, "
     "got 1"),
    (lambda: ground_motion_pga(SeismicEvent(magnitude=7.0, epicenter_x=0.0,
                                            epicenter_y=0.0), 1.0, 1.0,
                               site_class="bedrock"),
     "site_class must be one of ('rock', 'soil'), got 'bedrock'")])
def test_argument_rules_read_like_record_rules(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


def test_every_argument_rule_goes_through_check():
    """The functions that take values from outside state their value rules
    in a check(...) call, as the records do; what they still raise by
    themselves are lookups and limits, none worded as a rule."""
    for fn in (dispatch.exact_dispatch, scenarios.generate_scenarios,
               scenarios.return_period_loss, scenarios.forward_reduce,
               scenarios.reduction_distance, rollout.policy_dispatch,
               fixtures.random_radial_network, seismic.ground_motion_pga,
               cli._cmd_eval, pipeline.run_pipeline):
        nodes = list(ast.walk(ast.parse(inspect.getsource(fn))))
        assert any(isinstance(n, ast.Call) and ast.unparse(n.func) == "check"
                   for n in nodes), fn.__name__
        assert not [ast.unparse(n) for n in nodes if isinstance(n, ast.Raise)
                    and "must be" in ast.unparse(n)], fn.__name__
