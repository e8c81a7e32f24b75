"""Monte Carlo damage scenarios, loss statistics, and scenario reduction.

A scenario is a joint failure draw over the network's components. Its loss
blends the failure count with energy-not-served at the peak hour; scenario
sets carry probability weights that always sum to one. Forward reduction
trims a set to k scenarios while (greedily) minimizing the 1-Wasserstein
distance between loss distributions (forward selection, Heitsch & Roemisch,
Comput. Optim. Appl. 2003). Because removed weight moves to the nearest
retained loss, that distance is the 1-D k-median cost
sum_i w_i * min_r |l_i - l_r|, so each greedy step scores all candidates at
once from prefix sums over the sorted distinct losses and computes W1
exactly only for the near-ties that decide the pick.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .model import Network, check, read_json, read_record, record_document
# shed_at is not called here; perfbench's tracer test checks that it is
# wrapped at this import site
from .powerflow import PeakShed, shed_at  # noqa: F401
from .seismic import (SeismicEvent, component_failure_probabilities,
                      compute_pga_field, sample_damage)

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class DamageScenario:
    id: int
    failed: tuple[str, ...]  # component ids that failed, document order
    loss: float
    ens_mw: float  # load de-energized/shed at the reference hour
    weight: float


@dataclass(frozen=True)
class ComponentImpact:
    """One component's entry in a scenario set's impact map."""

    id: str
    median_pga_g: float  # the event's median PGA at the component's site
    failure_probability: float  # fragility at that median
    frequency: float  # summed weight of the scenarios in which it failed

    def __post_init__(self):
        pga, p, f = self.median_pga_g, self.failure_probability, self.frequency
        check(("median_pga_g", pga, pga >= 0, ">= 0"),
              ("failure_probability", p, 0 <= p <= 1, "in [0, 1]"),
              ("frequency", f, f >= 0, ">= 0"))


@dataclass
class ScenarioSet:
    scenarios: list[DamageScenario]
    magnitude: float
    n_generated: int
    seed: int | None = None
    w1: float = 1.0
    w2: float = 1.0
    impact: tuple[ComponentImpact, ...] = ()  # one record per component

    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.scenarios])

    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.scenarios])

    def by_id(self, sid: int) -> DamageScenario:
        for s in self.scenarios:
            if s.id == sid:
                return s
        raise ConfigError(f"no scenario with id {sid}")

    def check_weights(self):
        total = float(self.weights().sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ConfigError(f"scenario weights sum to {total}, expected 1")


def system_loss(n_failed: int, ens_mw: float, w1: float, w2: float) -> float:
    """Scenario loss: weighted failure count plus weighted unserved MW."""
    return w1 * n_failed + w2 * ens_mw


def failure_frequencies(scenarios) -> dict:
    """Each failed component id's frequency: the summed weight of the
    scenarios whose failed set holds it, added in scenario order."""
    freq = {}
    for s in scenarios:
        for cid in s.failed:
            freq[cid] = freq.get(cid, 0.0) + s.weight
    return freq


def generate_scenarios(
    network: Network, event: SeismicEvent, n: int,
    w1: float = ScenarioSet.w1, w2: float = ScenarioSet.w2,
    seed: int | None = None, exact_ens: bool = False,
    peak_shed: PeakShed | None = None,
) -> ScenarioSet:
    """Monte Carlo damage sampling: n equally weighted scenarios.

    One sample_damage call draws all n failed sets, and one batch question
    to `peak_shed` (a fresh PeakShed when none is given) gives each its
    unserved MW at the peak hour: the load in de-energized islands
    (`de_energized`), or with exact_ens=True the shedding LP's optimum,
    which also captures curtailment within energized islands. The LP is
    solved once per distinct energized island, so a study that passes the
    same PeakShed on to its restoration timelines solves no island twice.
    The set's impact map holds each component's median PGA, its failure
    probability there, and its failure frequency over the n scenarios.
    """
    if n < 1:
        raise ConfigError("need at least one scenario")
    for name, w in (("w1", w1), ("w2", w2)):
        if not w >= 0:
            raise ConfigError(f"{name} must be >= 0")
    if peak_shed is None:
        peak_shed = PeakShed(network)
    unserved = peak_shed if exact_ens else peak_shed.de_energized
    rng = np.random.default_rng(seed)
    pga_field = compute_pga_field(network, event)
    failed_sets = sample_damage(network, pga_field, rng, n)
    out = [DamageScenario(id=i, failed=failed,
                          loss=system_loss(len(failed), mw, w1, w2),
                          ens_mw=mw, weight=1.0 / n)
           for i, (failed, mw) in enumerate(zip(failed_sets,
                                                unserved(failed_sets)))]
    probability = component_failure_probabilities(network, pga_field)
    freq = failure_frequencies(out)
    sset = ScenarioSet(scenarios=out, magnitude=event.magnitude, seed=seed,
                       n_generated=n, w1=w1, w2=w2, impact=tuple(
                           ComponentImpact(cid, pga, probability[cid],
                                           freq.get(cid, 0.0))
                           for cid, pga in pga_field.pga_g.items()))
    sset.check_weights()
    return sset


# --- loss distribution ------------------------------------------------------

@dataclass
class LossDistribution:
    """Weighted empirical loss distribution (support sorted ascending)."""

    support: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_scenarios(cls, sset: ScenarioSet) -> "LossDistribution":
        return cls.from_values(sset.losses(), sset.weights())

    @classmethod
    def from_values(cls, values, weights) -> "LossDistribution":
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ConfigError("values/weights must be 1-d and equal length")
        order = np.argsort(values, kind="stable")
        v, w = values[order], weights[order]
        # merge duplicate support points
        support, inv = np.unique(v, return_inverse=True)
        merged = np.zeros_like(support)
        np.add.at(merged, inv, w)
        return cls(support=support, weights=merged)

    def exceedance(self, x: float) -> float:
        """Pr[L >= x]."""
        i = np.searchsorted(self.support, x, side="left")
        return float(self.weights[i:].sum())


def return_period_loss(dist: LossDistribution, period: float) -> float:
    """Smallest support loss whose exceedance probability is <= 1/period.

    Monotone non-decreasing in the period; capped at the largest support
    value when even it is exceeded too often.
    """
    if period <= 0:
        raise ConfigError("return period must be > 0")
    target = 1.0 / period
    tail = np.cumsum(dist.weights[::-1])[::-1]  # tail[i] = Pr[L >= support[i]]
    ok = np.nonzero(tail <= target + 1e-15)[0]
    if ok.size == 0:
        return float(dist.support[-1])
    return float(dist.support[ok[0]])


def select_representatives(sset: ScenarioSet, periods) -> list:
    """One scenario id per return period: the scenario whose loss is closest
    to the return-period loss; ties go to the heavier weight, then the lower
    id."""
    dist = LossDistribution.from_scenarios(sset)
    chosen = []
    for period in periods:
        target = return_period_loss(dist, period)
        best = None
        for s in sset.scenarios:
            key = (abs(s.loss - target), -s.weight, s.id)
            if best is None or key < best[0]:
                best = (key, s.id)
        chosen.append(best[1])
    return chosen


# --- 1-Wasserstein and forward reduction ------------------------------------

def wasserstein1(values_a, weights_a, values_b, weights_b) -> float:
    """Exact W1 between two weighted discrete distributions: the area
    between their CDFs."""
    va = np.asarray(values_a, dtype=float)
    wa = np.asarray(weights_a, dtype=float)
    vb = np.asarray(values_b, dtype=float)
    wb = np.asarray(weights_b, dtype=float)
    grid = np.union1d(va, vb)
    if grid.size <= 1:
        return 0.0
    fa = _cdf_on_grid(va, wa, grid)
    fb = _cdf_on_grid(vb, wb, grid)
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(grid)))


def _cdf_on_grid(values, weights, grid):
    order = np.argsort(values, kind="stable")
    v, w = values[order], np.cumsum(weights[order])
    idx = np.searchsorted(v, grid, side="right")
    out = np.zeros(grid.size)
    nz = idx > 0
    out[nz] = w[idx[nz] - 1]
    return out


def _redistribute(losses: np.ndarray, weights: np.ndarray,
                  retained: np.ndarray) -> np.ndarray:
    """Move every scenario's weight to its nearest retained scenario by
    absolute loss difference (ties: the lower-loss retained scenario, then
    the lower index). Returns per-retained weights aligned with `retained`."""
    rl = losses[retained]
    order = np.argsort(rl, kind="stable")
    sorted_vals = rl[order]
    pos = np.searchsorted(sorted_vals, losses)
    left = np.clip(pos - 1, 0, len(retained) - 1)
    right = np.clip(pos, 0, len(retained) - 1)
    d_left = np.abs(losses - sorted_vals[left])
    d_right = np.abs(losses - sorted_vals[right])
    pick = np.where(d_left <= d_right, left, right)  # <= prefers lower loss
    out = np.zeros(len(retained))
    np.add.at(out, order[pick], weights)
    return out


def _gap_costs(vr, P0, P1, a, b):
    """Closed-form W1 cost of the distinct losses strictly between retained
    distinct indices a < b (elementwise over arrays): each point pays its
    weight times the distance to the nearer of v[a], v[b]. a = -1 or
    b = D marks an open end, whose points all go to the other end.

    `vr` holds the sorted distinct losses minus the smallest; P0 and P1 are
    prefix sums (with a leading 0) of their weights and of weight * vr."""
    d = vr.size
    lo, hi = a + 1, b
    va = vr[np.maximum(a, 0)]
    vb = vr[np.minimum(b, d - 1)]
    split = np.clip(np.searchsorted(vr, 0.5 * (va + vb), side="right"), lo, hi)
    split = np.where(a < 0, lo, np.where(b >= d, hi, split))
    left = (P1[split] - P1[lo]) - va * (P0[split] - P0[lo])
    right = vb * (P0[hi] - P0[split]) - (P1[hi] - P1[split])
    return left + right


def forward_reduce(sset: ScenarioSet, k: int, protected=()) -> ScenarioSet:
    """Greedy forward selection of k scenarios minimizing the W1 distance
    between the reduced (weight-redistributed) and original loss
    distributions. `protected` scenario ids are always retained.

    Removed scenarios hand their weight to the nearest retained scenario by
    loss, so the W1 distance of a retained set R is
    sum_i w_i * min_{r in R} |l_i - l_r|. Each greedy step scores every
    candidate in one vectorized pass from prefix sums over the sorted
    distinct losses: adding a point only changes the cost of the gap between
    its two retained neighbours, which splits at the two halves' midpoints.
    The candidates whose closed-form score is within rounding tolerance of
    the best are then scored exactly (`_redistribute`, then `wasserstein1`'s
    sum on the distinct losses) in ascending index order, and the first one
    that beats the running best by more than 1e-15 is kept; among equal
    losses the lowest index is the candidate. Any candidate not shortlisted
    is worse than the best by far more than either method's rounding
    error, so the pick equals that of scoring every candidate exactly.

    The result preserves original ids and failed sets; weights sum to one,
    and the impact map's frequencies are taken under those weights.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = len(sset.scenarios)
    ids = [s.id for s in sset.scenarios]
    id_to_pos = {sid: i for i, sid in enumerate(ids)}
    for pid in protected:
        if pid not in id_to_pos:
            raise ConfigError(f"protected scenario {pid} not in the set")
    protected_pos = sorted({id_to_pos[p] for p in protected})
    if k < len(protected_pos):
        raise ConfigError(f"k={k} smaller than protected count {len(protected_pos)}")
    if k >= n:
        return _subset(sset, list(sset.scenarios))

    losses = sset.losses()
    weights = sset.weights()
    retained = list(protected_pos)

    # distinct losses, their summed weights and the prefix sums of the score;
    # closed-form and exact scores agree to ~1e-14 of `tol`'s scale, so the
    # shortlist holds true near-ties (two middle points of an even gap tie
    # exactly) and rarely anything else
    v, group = np.unique(losses, return_inverse=True)
    d = v.size
    vr = v - v[0]
    w_sum = np.bincount(group, weights=weights, minlength=d)
    P0 = np.concatenate(([0.0], np.cumsum(w_sum)))
    P1 = np.concatenate(([0.0], np.cumsum(w_sum * vr)))
    tol = 1e-11 * (1.0 + P1[-1] + vr[-1])

    # scenario positions grouped by distinct loss, ascending within a group
    members = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[members], np.arange(d))
    taken = np.zeros(n, dtype=bool)
    taken[retained] = True
    f_orig, dv = _cdf_on_grid(losses, weights, v)[:-1], np.diff(v)

    while len(retained) < k:
        # each distinct loss's lowest non-retained scenario (n: none left)
        first = np.minimum.reduceat(np.where(taken[members], n, np.arange(n)),
                                    starts)
        live = np.flatnonzero(first < n)
        # retained distinct losses between open ends -1 and d; with none
        # retained, total and the gap (-1, d) are the same number and cancel
        bounds = np.concatenate(([-1], np.unique(group[retained]), [d]))
        at = np.searchsorted(bounds, live)
        a, b = bounds[at - 1], bounds[at]
        total = _gap_costs(vr, P0, P1, bounds[:-1], bounds[1:]).sum()
        cost = (total - _gap_costs(vr, P0, P1, a, b)
                + _gap_costs(vr, P0, P1, a, live)
                + _gap_costs(vr, P0, P1, live, b))
        cost[b == live] = total  # the loss is already retained
        short = live[cost <= cost.min() + tol]

        best = None
        for cand in np.sort(members[first[short]]).tolist():
            trial = np.append(np.array(retained, dtype=int), cand)
            rw = _redistribute(losses, weights, trial)
            f_trial = _cdf_on_grid(losses[trial], rw, v)[:-1]
            dist = float(np.sum(np.abs(f_orig - f_trial) * dv))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, cand)
        retained.append(best[1])
        taken[best[1]] = True

    retained_arr = np.array(sorted(retained), dtype=int)
    new_w = _redistribute(losses, weights, retained_arr)
    reduced = _subset(sset, [replace(sset.scenarios[i], weight=float(w))
                             for i, w in zip(retained_arr, new_w)])
    reduced.check_weights()
    return reduced


def _subset(sset: ScenarioSet, scenarios: list) -> ScenarioSet:
    """`sset` holding only `scenarios`, its impact map's frequencies taken
    under their weights (a record whose frequency holds is kept)."""
    freq = failure_frequencies(scenarios)
    return replace(sset, scenarios=scenarios, impact=tuple(
        rec if rec.frequency == (f := freq.get(rec.id, 0.0))
        else replace(rec, frequency=f) for rec in sset.impact))


def reduction_distance(sset: ScenarioSet, retained_ids) -> float:
    """W1 between the original loss distribution and the one obtained by
    keeping `retained_ids` and redistributing the removed weight to the
    nearest retained scenario. Lets callers score any candidate subset the
    same way forward_reduce does."""
    ids = [s.id for s in sset.scenarios]
    id_to_pos = {sid: i for i, sid in enumerate(ids)}
    try:
        retained = np.array(sorted(id_to_pos[r] for r in set(retained_ids)),
                            dtype=int)
    except KeyError as e:
        raise ConfigError(f"retained scenario {e.args[0]} not in the set") from e
    if retained.size == 0:
        raise ConfigError("need at least one retained scenario")
    losses = sset.losses()
    weights = sset.weights()
    rw = _redistribute(losses, weights, retained)
    return wasserstein1(losses, weights, losses[retained], rw)


# --- serialization ----------------------------------------------------------

def scenario_set_to_document(sset: ScenarioSet) -> dict:
    return record_document(sset)


def scenario_set_from_document(doc: dict) -> ScenarioSet:
    """The set of a scenario-set document; a repeated id (which `by_id` and
    `forward_reduce` would resolve apart) or a negative weight is refused.

    Documents written before the impact map still read: a scenario's
    sampled PGA (`pga_g`) is dropped, and a set with no `impact` has an
    empty map."""
    if isinstance(doc, dict) and isinstance(doc.get("scenarios"), list):
        doc = {**doc, "scenarios": [
            {k: v for k, v in rec.items() if k != "pga_g"}
            if isinstance(rec, dict) else rec for rec in doc["scenarios"]]}
    sset = read_record(ScenarioSet, doc, "")
    seen = set()
    for i, s in enumerate(sset.scenarios):
        check((f"scenarios[{i}].id", s.id, s.id not in seen, "unique"),
              (f"scenarios[{i}].weight", s.weight, s.weight >= 0, ">= 0"))
        seen.add(s.id)
    sset.check_weights()
    return sset


def load_scenario_set(path: str) -> ScenarioSet:
    return scenario_set_from_document(read_json(path))
