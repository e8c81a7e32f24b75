"""Genetic algorithm baseline for crew dispatch.

Chromosome: per depot, a permutation of that depot's failed components plus
sorted split points carving the permutation into one segment per crew. Order
crossover (OX) recombines permutations; splits are inherited whole from a
random parent. Selection is tournament, with a small elite carried over
unchanged. All randomness flows from one seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispatch import (DispatchInstance, DispatchPlan, ObjectiveBreakdown,
                       cluster_to_depots, plan_objective, schedule_plan)
from .errors import ConfigError


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 200
    generations: int = 500
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    elite: int = 2
    tournament: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if self.tournament < 1:
            raise ConfigError("tournament must be >= 1")


@dataclass(frozen=True)
class GaResult:
    plan: DispatchPlan
    objective: ObjectiveBreakdown
    history: tuple  # best value found up to each generation (non-increasing)


def ga_dispatch(instance: DispatchInstance, config: GaConfig = GaConfig()) -> GaResult:
    rng = np.random.default_rng(config.seed)
    cluster = cluster_to_depots(instance)
    depot_jobs = {}
    depot_crews = {}
    for d in instance.depots:
        depot_jobs[d.id] = sorted(cid for cid, did in cluster.items()
                                  if did == d.id)
        depot_crews[d.id] = d.crew_count

    def random_genome():
        genome = {}
        for did, jobs in depot_jobs.items():
            n = len(jobs)
            perm = tuple(rng.permutation(n).tolist())
            cuts = tuple(sorted(int(rng.integers(0, n + 1))
                                for _ in range(depot_crews[did] - 1)))
            genome[did] = (perm, cuts)
        return genome

    def decode(genome):
        routes = {}
        for did, (perm, cuts) in genome.items():
            jobs = depot_jobs[did]
            bounds = (0,) + cuts + (len(jobs),)
            for k in range(depot_crews[did]):
                seg = perm[bounds[k]:bounds[k + 1]]
                routes[f"{did}:{k + 1}"] = tuple(jobs[i] for i in seg)
        return routes

    cache = {}

    def fitness(genome):
        key = tuple(sorted((did, pc[0], pc[1]) for did, pc in genome.items()))
        if key not in cache:
            plan = schedule_plan(instance, decode(genome))
            cache[key] = plan_objective(instance, plan).value
        return cache[key]

    pop = [random_genome() for _ in range(config.population_size)]
    scores = [fitness(g) for g in pop]

    history = []
    incumbent, incumbent_score = None, np.inf
    for gen in range(config.generations):
        order = np.argsort(scores, kind="stable")
        if scores[order[0]] < incumbent_score:
            incumbent_score = scores[order[0]]
            incumbent = pop[order[0]]
        history.append(incumbent_score)

        nxt = [pop[i] for i in order[:config.elite]]
        while len(nxt) < config.population_size:
            a = _tournament(rng, pop, scores, config.tournament)
            b = _tournament(rng, pop, scores, config.tournament)
            child = _crossover(rng, a, b, config.crossover_rate)
            child = _mutate(rng, child, depot_jobs, config.mutation_rate)
            nxt.append(child)
        pop = nxt
        scores = [fitness(g) for g in pop]

    order = np.argsort(scores, kind="stable")
    if scores[order[0]] < incumbent_score:
        incumbent_score = scores[order[0]]
        incumbent = pop[order[0]]
    history.append(incumbent_score)

    plan = schedule_plan(instance, decode(incumbent))
    return GaResult(plan=plan, objective=plan_objective(instance, plan),
                    history=tuple(history))


def _tournament(rng, pop, scores, k):
    picks = rng.integers(0, len(pop), size=k)
    best = min(picks, key=lambda i: (scores[i], i))
    return pop[best]


def _crossover(rng, a, b, rate):
    child = {}
    for did in a:
        if rng.random() >= rate:
            child[did] = a[did]
            continue
        perm = _order_crossover(rng, a[did][0], b[did][0])
        cuts = a[did][1] if rng.random() < 0.5 else b[did][1]
        child[did] = (perm, cuts)
    return child


def _order_crossover(rng, p1, p2):
    n = len(p1)
    if n < 2:
        return p1
    i, j = sorted(rng.choice(n + 1, size=2, replace=False).tolist())
    window = set(p1[i:j])
    filler = [x for x in p2 if x not in window]
    child = list(filler[:i]) + list(p1[i:j]) + list(filler[i:])
    return tuple(child)


def _mutate(rng, genome, depot_jobs, rate):
    out = {}
    for did, (perm, cuts) in genome.items():
        n = len(depot_jobs[did])
        if n == 0 or rng.random() >= rate:
            out[did] = (perm, cuts)
            continue
        op = rng.integers(0, 3)
        perm = list(perm)
        if op == 0 and n >= 2:  # swap
            i, j = rng.choice(n, size=2, replace=False)
            perm[i], perm[j] = perm[j], perm[i]
        elif op == 1 and n >= 2:  # remove and reinsert
            i, j = rng.choice(n, size=2, replace=False)
            item = perm.pop(i)
            perm.insert(j, item)
        elif op == 2 and cuts:  # nudge one split point
            cuts = list(cuts)
            k = int(rng.integers(0, len(cuts)))
            cuts[k] = int(np.clip(cuts[k] + rng.choice([-1, 1]), 0, n))
            cuts = tuple(sorted(cuts))
        out[did] = (tuple(perm), tuple(cuts) if isinstance(cuts, list) else cuts)
    return out
