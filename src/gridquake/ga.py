"""Genetic algorithm baseline for crew dispatch, over integer arrays.

A population is two integer matrices: `perm` (P, n) holds each depot's
component order in its own block of columns, and `cuts` (P, K) each depot's
crew_count - 1 sorted split points in [0, n_d], one route per crew between
them. Each generation draws its randomness in bulk from one seeded
generator: tournament selection (ties to the lowest index) with an elite,
order crossover (OX, Davis 1985) with splits from a random parent, and a
swap, move or split nudge. All genomes are scored at once by schedule_plan's
arithmetic; only the returned incumbent goes through schedule_plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispatch import (DispatchInstance, DispatchPlan, ObjectiveBreakdown,
                       plan_objective, schedule_plan)
from .model import check


# the search's fixed rates and sizes; GaConfig holds what callers set
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.2
ELITE = 2  # a population of ELITE or fewer is kept whole
TOURNAMENT = 3


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 200
    generations: int = 500
    seed: int = 0

    def __post_init__(self):
        check(("population_size", self.population_size,
               self.population_size >= 1, ">= 1"),
              ("generations", self.generations, self.generations >= 0, ">= 0"))


@dataclass(frozen=True)
class GaResult:
    plan: DispatchPlan
    objective: ObjectiveBreakdown
    history: tuple  # best value found up to each generation (non-increasing)
    stats: dict  # evaluations (genomes scored), generations, last_improvement


class _Layout:
    """An instance compiled for the GA: perm column c is position
    col_local[c] of depot col_depot[c]'s block, and cut column k is depot
    cut_depot[k]'s cut_local[k]-th split."""

    def __init__(self, instance: DispatchInstance):
        self.instance = instance
        self.compiled = compiled = instance.compiled
        self.slots = np.array([i for jobs in compiled.depot_jobs for i in jobs],
                              dtype=np.intp)
        self.size = np.array([len(jobs) for jobs in compiled.depot_jobs])
        n_cuts = np.array([d.crew_count - 1 for d in instance.depots])
        self.col_depot = np.repeat(np.arange(len(self.size)), self.size)
        self.cut_depot = np.repeat(np.arange(len(n_cuts)), n_cuts)
        first = np.cumsum(self.size) - self.size
        self.col_local = np.arange(len(self.slots)) - first[self.col_depot]
        self.cut_local = (np.arange(len(self.cut_depot))
                          - (np.cumsum(n_cuts) - n_cuts)[self.cut_depot])
        self.cut_first = first[self.cut_depot]  # perm column of a cut at 0


def ga_dispatch(instance: DispatchInstance, config: GaConfig = GaConfig()) -> GaResult:
    rng = np.random.default_rng(config.seed)
    lay = _Layout(instance)
    pop, m = config.population_size, len(instance.depots)
    n_child = pop - min(ELITE, pop)

    keys = rng.random((pop, len(lay.slots))) + 2 * lay.col_depot
    perm = lay.slots[np.argsort(keys, axis=1)]
    cuts = _sort_cuts(lay, rng.integers(0, lay.size[lay.cut_depot] + 1,
                                        size=(pop, len(lay.cut_depot))))
    scores = _fitness(lay, perm, cuts)

    history, incumbent, incumbent_score, last_improvement = [], None, np.inf, 0
    for gen in range(config.generations + 1):
        top = int(np.argmin(scores))
        if scores[top] < incumbent_score:
            incumbent_score, last_improvement = float(scores[top]), gen
            incumbent = (perm[top], cuts[top])
        history.append(incumbent_score)
        if gen == config.generations:
            break

        keep = np.argsort(scores, kind="stable")[:pop - n_child]
        a, b = _tournament(scores, rng.integers(
            0, pop, size=(2 * n_child, TOURNAMENT))).reshape(2, n_child)
        u = rng.random((n_child, m, 8))
        child = _mutate(lay, *_crossover(lay, perm[a], perm[b], cuts[a],
                                         cuts[b], u[..., :4], CROSSOVER_RATE),
                        u[..., 4:], MUTATION_RATE)
        perm = np.concatenate([perm[keep], child[0]])
        cuts = np.concatenate([cuts[keep], child[1]])
        scores = np.concatenate([scores[keep], _fitness(lay, *child)])

    plan = schedule_plan(instance, _routes(lay, *incumbent))
    return GaResult(plan=plan, objective=plan_objective(instance, plan),
                    history=tuple(history),
                    stats={"evaluations": pop + config.generations * n_child,
                           "generations": config.generations,
                           "last_improvement": last_improvement})


def _routes(lay, perm_row, cuts_row) -> dict:
    """One genome as schedule_plan's crew routes."""
    comps = lay.instance.components
    segments = [seg for d in range(len(lay.size))
                for seg in np.split(perm_row[lay.col_depot == d],
                                    cuts_row[lay.cut_depot == d])]
    return {crew: tuple(comps[i].id for i in seg)
            for crew, seg in zip(lay.compiled.crew_ids, segments)}


def _sort_cuts(lay, cuts):
    """Sort each depot's split points within its own block of columns."""
    shift = lay.cut_depot * (len(lay.slots) + 1)
    return np.sort(cuts + shift, axis=1) - shift


def _fitness(lay, perm, cuts) -> np.ndarray:
    """Objective of every genome, in schedule_plan's order of operations: at
    each route position t = where(route start, 0, t) + travel + repair."""
    pop, n = perm.shape
    # a cut at n_d names the next block's first column, a start anyway
    at = (cuts + lay.cut_first)[:, :, None] == np.arange(n)
    start = (lay.col_local == 0) | at.any(axis=1)
    prev = np.where(start, n + lay.col_depot, np.roll(perm, 1, axis=1))
    leg, repair = lay.compiled.travel[prev, perm].T, lay.compiled.repair[perm].T
    done, t = np.empty((n, pop)), np.zeros(pop)
    for q, first in enumerate(start.T):
        t = np.where(first, 0.0, t) + leg[q] + repair[q]
        done[q] = t
    completion = np.empty((n, pop))
    completion[perm.T, np.arange(pop)] = done
    weighted = (lay.compiled.weight[:, None] * completion).sum(axis=0)
    gamma = lay.instance.gamma
    return gamma * done.max(axis=0, initial=0.0) + (1 - gamma) * weighted


def _tournament(scores, picks) -> np.ndarray:
    """Each row's winner among its picks: the lowest score, ties to the
    lowest index."""
    order = np.argsort(scores, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return order[rank[picks].min(axis=1)]


def _crossover(lay, pa, pb, ca, cb, u, rate):
    """Children of parents a and b. u: (C, m, 4) uniforms per child and
    depot: crossover coin, which parent gives the splits, OX window ends.
    Without crossover the window is the whole block, so a's block stays."""
    size = lay.size
    cross = u[..., 0] < rate
    i = (u[..., 2] * (size + 1)).astype(np.intp)
    j = (i + 1 + (u[..., 3] * size).astype(np.intp)) % (size + 1)
    lo = np.where(cross, np.minimum(i, j), 0)[:, lay.col_depot]
    hi = np.where(cross, np.maximum(i, j), size)[:, lay.col_depot]
    window = (lo <= lay.col_local) & (lay.col_local < hi)
    take_b = (cross & (u[..., 1] >= 0.5))[:, lay.cut_depot]
    return _order_crossover(pa, pb, window), np.where(take_b, cb, ca)


def _order_crossover(a, b, window):
    """OX per row: a's genes inside the window stay in place, and the other
    columns take b's remaining genes in b's order. Each row is a permutation
    of range(n), and each depot's window lies inside its own block."""
    rows = np.arange(len(a))[:, None]
    inside = np.zeros(a.shape, dtype=bool)
    inside[rows, a] = window
    child = a.copy()
    child[~window] = b[~inside[rows, b]]
    return child


def _mutate(lay, perm, cuts, u, rate):
    """u: (C, m, 4) uniforms per child and depot: mutation coin, op, then two
    positions (swap, move) or a split and a direction (nudge). Swaps and
    moves need two components in the depot, nudges two crews."""
    size, col, cut = lay.size, lay.col_depot, lay.cut_depot
    hit = (u[..., 0] < rate) & (size > 0)
    op = np.where(hit, (u[..., 1] * 3).astype(np.intp), -1)
    i = (u[..., 2] * size).astype(np.intp)
    j = (i + 1 + (u[..., 3] * (size - 1)).astype(np.intp)) % np.maximum(size, 1)

    q, i, j = lay.col_local, i[:, col], j[:, col]
    swap = np.where(q == i, j, np.where(q == j, i, q))
    between = (np.minimum(i, j) <= q) & (q <= np.maximum(i, j))
    move = np.where(q == j, i, np.where(between, q + np.sign(j - i), q))
    src = np.where(op[:, col] == 0, swap, np.where(op[:, col] == 1, move, q))
    perm = np.take_along_axis(perm, src - q + np.arange(len(q)), axis=1)

    k = (u[..., 2] * np.bincount(cut, minlength=len(size))).astype(np.intp)
    step = np.where(u[..., 3] < 0.5, -1, 1)[:, cut]
    nudge = (op[:, cut] == 2) & (k[:, cut] == lay.cut_local)
    cuts = np.clip(cuts + np.where(nudge, step, 0), 0, size[cut])
    return perm, _sort_cuts(lay, cuts)
