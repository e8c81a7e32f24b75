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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .model import Network, read_json, read_record, record_document
from .powerflow import de_energized_load, shed_at
from .seismic import SeismicEvent, compute_pga_field, sample_damage

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class DamageScenario:
    id: int
    failed: tuple[str, ...]  # component ids that failed, document order
    loss: float
    ens_mw: float  # load de-energized/shed at the reference hour
    weight: float
    pga_g: dict[str, float] = field(default_factory=dict)  # id -> PGA, g


@dataclass
class ScenarioSet:
    scenarios: list[DamageScenario]
    magnitude: float
    n_generated: int
    seed: int | None = None
    w1: float = 1.0
    w2: float = 1.0

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


def scenario_ens_mw(network: Network, failed_ids, hour: int,
                    exact: bool = False) -> float:
    """Unserved MW under a joint failure at a given hour.

    Fast path counts load in de-energized islands; exact=True runs the
    shedding LP and also captures within-island curtailment.
    """
    if exact:
        return shed_at(network, failed_ids, hour).total_shed_mw
    return de_energized_load(network, failed_ids, hour)


def generate_scenarios(
    network: Network, event: SeismicEvent, n: int,
    w1: float = 1.0, w2: float = 1.0,
    seed: int | None = None, exact_ens: bool = False,
) -> ScenarioSet:
    """Monte Carlo damage sampling: n equally weighted scenarios."""
    if n < 1:
        raise ConfigError("need at least one scenario")
    for name, w in (("w1", w1), ("w2", w2)):
        if not w >= 0:
            raise ConfigError(f"{name} must be >= 0")
    rng = np.random.default_rng(seed)
    pga_field = compute_pga_field(network, event)
    hour = network.peak_hour()
    out = []
    for i in range(n):
        sc = sample_damage(network, pga_field, rng, scenario_id=i)
        ens = scenario_ens_mw(network, sc.failed, hour, exact=exact_ens)
        loss = system_loss(len(sc.failed), ens, w1, w2)
        out.append(replace(sc, ens_mw=ens, loss=loss, weight=1.0 / n))
    sset = ScenarioSet(scenarios=out, magnitude=event.magnitude, seed=seed,
                       n_generated=n, w1=w1, w2=w2)
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

    def cdf(self, x: float) -> float:
        """Pr[L <= x]."""
        i = np.searchsorted(self.support, x, side="right")
        return float(self.weights[:i].sum())

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
    the best are then scored exactly (`_redistribute` + `wasserstein1`) in
    ascending index order, and the first one that beats the running best by
    more than 1e-15 is kept; among equal losses the lowest index is the
    candidate. Any candidate outside that shortlist is worse than the best
    by far more than either method's rounding error, so the pick equals that
    of scoring every candidate exactly.

    The result preserves original ids and pga/failure data; weights sum to
    one.
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
        return ScenarioSet(scenarios=list(sset.scenarios), magnitude=sset.magnitude,
                           seed=sset.seed, n_generated=sset.n_generated,
                           w1=sset.w1, w2=sset.w2)

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

        base = np.array(retained, dtype=int)
        best = None
        for cand in np.sort(members[first[short]]).tolist():
            trial = np.append(base, cand)
            rw = _redistribute(losses, weights, trial)
            dist = wasserstein1(losses, weights, losses[trial], rw)
            if best is None or dist < best[0] - 1e-15:
                best = (dist, cand)
        retained.append(best[1])
        taken[best[1]] = True

    retained_arr = np.array(sorted(retained), dtype=int)
    new_w = _redistribute(losses, weights, retained_arr)
    out = [replace(sset.scenarios[i], weight=float(new_w[j]))
           for j, i in enumerate(retained_arr)]
    reduced = ScenarioSet(scenarios=out, magnitude=sset.magnitude,
                          seed=sset.seed, n_generated=sset.n_generated,
                          w1=sset.w1, w2=sset.w2)
    reduced.check_weights()
    return reduced


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
    sset = read_record(ScenarioSet, doc, "")
    sset.check_weights()
    return sset


def load_scenario_set(path: str) -> ScenarioSet:
    return scenario_set_from_document(read_json(path))
