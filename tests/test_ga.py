"""Genetic search tests: validity of decoded plans, monotone incumbent,
seed determinism, and closeness to the exact optimum on small instances."""

import numpy as np
import pytest

from gridquake.dispatch import exact_dispatch, plan_objective, schedule_plan
from gridquake.errors import ConfigError
from gridquake.ga import GaConfig, ga_dispatch
from gridquake.policy.train import InstanceFamily


def sample(rng, n_min=3, n_max=6, crews=2):
    fam = InstanceFamily(n_min=n_min, n_max=n_max, depot_count=2,
                         crews_per_depot=crews)
    return fam.sample_instance(rng)


def test_ga_plan_is_valid_and_objective_consistent():
    rng = np.random.default_rng(0)
    inst = sample(rng)
    res = ga_dispatch(inst, GaConfig(population_size=30, generations=40,
                                     seed=5))
    check = plan_objective(inst, schedule_plan(inst, res.plan.routes))
    assert check.value == pytest.approx(res.objective.value, abs=1e-9)


def test_ga_history_is_monotone_nonincreasing():
    rng = np.random.default_rng(1)
    inst = sample(rng)
    res = ga_dispatch(inst, GaConfig(population_size=20, generations=50,
                                     seed=2))
    assert len(res.history) == 51
    assert all(a >= b - 1e-12 for a, b in zip(res.history, res.history[1:]))
    assert res.history[-1] == pytest.approx(res.objective.value)


def test_ga_deterministic_for_seed():
    rng = np.random.default_rng(2)
    inst = sample(rng)
    cfg = GaConfig(population_size=25, generations=30, seed=7)
    a = ga_dispatch(inst, cfg)
    b = ga_dispatch(inst, cfg)
    assert a.objective.value == b.objective.value
    assert a.plan.routes == b.plan.routes


def test_ga_never_beats_exact_and_usually_matches():
    rng = np.random.default_rng(3)
    gaps = []
    for _ in range(15):
        inst = sample(rng, n_min=2, n_max=5)
        exact = exact_dispatch(inst)
        ga = ga_dispatch(inst, GaConfig(population_size=40, generations=60,
                                        seed=11))
        assert ga.objective.value >= exact.objective.value - 1e-9
        gaps.append((ga.objective.value - exact.objective.value)
                    / max(exact.objective.value, 1e-12))
    # small instances: the GA should find the optimum most of the time
    assert sum(g < 1e-6 for g in gaps) >= 12


def test_ga_single_component():
    fam = InstanceFamily(n_min=1, n_max=1, depot_count=1, crews_per_depot=1)
    inst = fam.sample_instance(np.random.default_rng(4))
    res = ga_dispatch(inst, GaConfig(population_size=10, generations=5,
                                     seed=0))
    exact = exact_dispatch(inst)
    assert res.objective.value == pytest.approx(exact.objective.value,
                                                abs=1e-9)


@pytest.mark.parametrize("size", [0, -1])
def test_config_rejects_empty_population(size):
    with pytest.raises(ConfigError, match="population_size must be >= 1"):
        GaConfig(population_size=size)


@pytest.mark.parametrize("gens", [-1, -5])
def test_config_rejects_negative_generations(gens):
    with pytest.raises(ConfigError, match="generations must be >= 0"):
        GaConfig(generations=gens)


@pytest.mark.parametrize("size", [0, -1])
def test_config_rejects_empty_tournament(size):
    with pytest.raises(ConfigError, match="tournament must be >= 1"):
        GaConfig(tournament=size)


@pytest.mark.parametrize("elite", [-1, -3])
def test_config_rejects_negative_elite(elite):
    with pytest.raises(ConfigError, match="elite must be >= 0"):
        GaConfig(elite=elite)


@pytest.mark.parametrize("field", ["crossover_rate", "mutation_rate"])
@pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
def test_config_rejects_rates_outside_unit_interval(field, rate):
    with pytest.raises(ConfigError, match=rf"{field} must be in \[0, 1\]"):
        GaConfig(**{field: rate})


@pytest.mark.parametrize("size,elite", [(1, 2), (1, 0), (3, 5), (4, 4)])
def test_small_population_and_large_elite_return_a_valid_plan(size, elite):
    inst = sample(np.random.default_rng(6))
    cfg = GaConfig(population_size=size, elite=elite, generations=10, seed=1)
    res = ga_dispatch(inst, cfg)
    check = plan_objective(inst, schedule_plan(inst, res.plan.routes))
    assert check.value == res.objective.value
    assert len(res.history) == 11
    # elite >= population_size keeps the whole population: nothing is scored
    # after the first generation and the incumbent never changes
    children = size - min(elite, size)
    assert res.stats["evaluations"] == size + 10 * children
    if children == 0:
        assert res.stats["last_improvement"] == 0


def test_stats_count_evaluations_and_last_improvement():
    inst = sample(np.random.default_rng(7), n_min=6, n_max=6)
    res = ga_dispatch(inst, GaConfig(population_size=12, generations=30,
                                     elite=2, seed=3))
    assert res.stats["evaluations"] == 12 + 30 * 10
    assert res.stats["generations"] == 30
    last = res.stats["last_improvement"]
    assert 0 <= last <= 30
    assert res.history[last] == res.history[-1]
    assert last == 0 or res.history[last - 1] > res.history[last]
