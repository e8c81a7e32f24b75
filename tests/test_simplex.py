"""Bounded-variable simplex tests against scipy.optimize.linprog.

scipy is a test-only dependency; the solver itself must not need it.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import gridquake.simplex as simplex
from gridquake.errors import InternalError, LimitError
from gridquake.fixtures import random_radial_network
from gridquake.powerflow import energization_state, shed_at
from gridquake.simplex import INFEASIBLE, OPTIMAL, solve_lp


def reference(c, A, b, lower, upper):
    bounds = [(lo if np.isfinite(lo) else None,
               hi if np.isfinite(hi) else None)
              for lo, hi in zip(lower, upper)]
    return linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")


def random_problem(rng, n, m, ensure_feasible=True):
    A = rng.normal(size=(m, n))
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 3.0, size=n)
    if ensure_feasible:
        x0 = rng.uniform(lower, upper)
        b = A @ x0
    else:
        b = rng.normal(size=m)
    c = rng.normal(size=n)
    return c, A, b, lower, upper


def test_hand_case_single_constraint():
    # min -x1 - 2 x2  st  x1 + x2 = 1.5, 0 <= x <= 1 -> x = (0.5, 1)
    res = solve_lp([-1.0, -2.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-2.5, abs=1e-9)
    assert res.x == pytest.approx([0.5, 1.0], abs=1e-9)


def test_negative_lower_bounds():
    # min x1 + x2  st  x1 - x2 = 0, -3 <= x <= 2 -> x = (-3, -3)
    res = solve_lp([1.0, 1.0], [[1.0, -1.0]], [0.0], [-3.0, -3.0], [2.0, 2.0])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-6.0, abs=1e-9)


def test_matches_reference_on_random_feasible_problems():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        c, A, b, lower, upper = random_problem(rng, n, m)
        res = solve_lp(c, A, b, lower, upper)
        ref = reference(c, A, b, lower, upper)
        assert ref.status == 0, trial
        assert res.status == OPTIMAL, trial
        assert res.objective == pytest.approx(ref.fun, abs=1e-6), trial
        assert np.allclose(A @ res.x, b, atol=1e-7)
        assert np.all(res.x >= lower - 1e-9)
        assert np.all(res.x <= upper + 1e-9)


def test_detects_infeasible_like_reference():
    rng = np.random.default_rng(7)
    seen_infeasible = 0
    for trial in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        c, A, b, lower, upper = random_problem(rng, n, m, ensure_feasible=False)
        res = solve_lp(c, A, b, lower, upper)
        ref = reference(c, A, b, lower, upper)
        if ref.status == 2:
            assert res.status == INFEASIBLE, trial
            seen_infeasible += 1
        else:
            assert res.status == OPTIMAL, trial
            assert res.objective == pytest.approx(ref.fun, abs=1e-6), trial
    assert seen_infeasible >= 3  # the sample must actually exercise the branch


def test_obviously_infeasible():
    # x1 + x2 = 10 with x <= 1 each
    res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [10.0], [0.0, 0.0], [1.0, 1.0])
    assert res.status == INFEASIBLE


def test_unbounded_raises():
    # min -x1 st x1 - x2 = 0, both unbounded above
    with pytest.raises(InternalError):
        solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0.0, 0.0],
                 [np.inf, np.inf])


def test_degenerate_problem_terminates():
    # many redundant rows forcing ties in the ratio test
    n = 6
    A = np.vstack([np.ones(n), np.ones(n), np.eye(n)[:4]])
    b = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 0.0])
    c = -np.arange(1.0, n + 1.0)
    res = solve_lp(c, A, b, [0.0] * n, [1.0] * n)
    ref = reference(c, A, b, [0.0] * n, [1.0] * n)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def test_iteration_cap_raises_limit_error():
    rng = np.random.default_rng(0)
    c, A, b, lower, upper = random_problem(rng, 8, 5)
    with pytest.raises(LimitError):
        solve_lp(c, A, b, lower, upper, max_iter=1)


def test_bound_flip_path():
    # optimum forces a nonbasic variable to its opposite bound
    # min -x1 - x2 st x1 + 0*x2 = 0.5, x2 free in [0, 4]
    res = solve_lp([-1.0, -1.0], [[1.0, 0.0]], [0.5], [0.0, 0.0], [1.0, 4.0])
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([0.5, 4.0], abs=1e-9)


def test_equalities_fix_all_variables():
    A = np.eye(3)
    b = np.array([0.25, 0.5, 0.75])
    res = solve_lp([1.0, 1.0, 1.0], A, b, [0.0] * 3, [1.0] * 3)
    assert res.status == OPTIMAL
    assert res.x == pytest.approx(b, abs=1e-10)


def test_stats_on_hand_case():
    # phase 1 flips x1 to its upper bound, then pivots x2 in for the
    # artificial; phase 2 swaps x2 (to its upper bound) for x1
    res = solve_lp([-1.0, -2.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    assert res.stats == {"start": "phase1", "phase1_iterations": 2,
                         "phase2_iterations": 1, "bland": False,
                         "refactorizations": 2}
    assert res.iterations == 3


def test_stats_on_infeasible_stop_after_phase_one():
    res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [10.0], [0.0, 0.0], [1.0, 1.0])
    assert res.status == INFEASIBLE
    assert res.stats["phase2_iterations"] == 0
    assert res.stats["refactorizations"] == 1
    assert res.stats["phase1_iterations"] == res.iterations


# --- shedding LPs against HiGHS ---------------------------------------------

HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE}


def shedding_lps(net, failed):
    """(args, kwargs, result) of every solve_lp call that shed_at makes at
    hour 0: one per energized island that does not exit at its all-served
    start, in order of the island's first bus."""
    seen = []

    def recording(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        seen.append((args, kwargs, res))
        return res

    with mock.patch.object(simplex, "solve_lp", recording):
        shed_at(net, failed, 0)
    return seen


def whole_shedding_lp(net, failed, t=0):
    """The shedding LP of every energized bus at hour t as one block LP,
    built entry by entry from the network's records: ((c, A, b, lower,
    upper), de-energized load), with None for the LP when no bus is
    energized. Columns are v by bus, pl and ql by line, pg and qg by
    generator, ps and qs by substation, then shed or qshed by bus, each
    over all islands at once; rows are P balance and Q balance by bus, then
    one voltage drop by line. An oracle independent of the per-island
    index arrays that gridquake builds."""
    state = energization_state(net, failed)
    p_load, q_load = net.loads_at(t)
    dead = sum(p_load[b] for b in net.buses if not state.energized[b])
    on_buses = [b for b in net.buses if state.energized[b]]
    if not on_buses:
        return None, dead
    on_set = set(on_buses)
    live_lines = [ln for ln in net.lines.values()
                  if ln.id not in state.lines_out and ln.from_bus in on_set]
    live_gens = [g for g in net.generators.values()
                 if g.id not in state.gens_out and g.bus in on_set]
    live_subs = [b for b in net.substation_buses()
                 if b not in state.substations_out and b in on_set]
    lim = net.import_limit_mva()
    cols = []  # (lo, hi, cost)

    def add(lo, hi, cost=0.0):
        cols.append((float(lo), float(hi), float(cost)))
        return len(cols) - 1

    ix_v = {b: add(net.buses[b].v_min, net.buses[b].v_max) for b in on_buses}
    ix_pl = {ln.id: add(-ln.capacity_mva, ln.capacity_mva)
             for ln in live_lines}
    ix_ql = {ln.id: add(-ln.capacity_mva, ln.capacity_mva)
             for ln in live_lines}
    ix_pg = {g.id: add(g.p_min, g.p_max) for g in live_gens}
    ix_qg = {g.id: add(g.q_min, g.q_max) for g in live_gens}
    ix_ps = {b: add(0.0, lim) for b in live_subs}
    ix_qs = {b: add(-lim, lim) for b in live_subs}
    ix_shed, ix_qshed = {}, {}
    for b in on_buses:
        if p_load[b] > 0:
            ix_shed[b] = add(0.0, p_load[b], cost=1.0)
        elif q_load[b] != 0:
            ix_qshed[b] = add(min(0.0, q_load[b]), max(0.0, q_load[b]))

    nb = len(on_buses)
    row = {b: i for i, b in enumerate(on_buses)}
    A = np.zeros((2 * nb + len(live_lines), len(cols)))
    for k, ln in enumerate(live_lines):
        i, j, r = row[ln.from_bus], row[ln.to_bus], 2 * nb + k
        A[j, ix_pl[ln.id]] += 1.0
        A[i, ix_pl[ln.id]] -= 1.0
        A[nb + j, ix_ql[ln.id]] += 1.0
        A[nb + i, ix_ql[ln.id]] -= 1.0
        A[r, ix_v[ln.from_bus]] += 1.0
        A[r, ix_v[ln.to_bus]] -= 1.0
        A[r, ix_pl[ln.id]] -= ln.resistance
        A[r, ix_ql[ln.id]] -= ln.reactance
    for g in live_gens:
        A[row[g.bus], ix_pg[g.id]] += 1.0
        A[nb + row[g.bus], ix_qg[g.id]] += 1.0
    for b in live_subs:
        A[row[b], ix_ps[b]] += 1.0
        A[nb + row[b], ix_qs[b]] += 1.0
    for b, j in ix_shed.items():
        A[row[b], j] += 1.0
        A[nb + row[b], j] += q_load[b] / p_load[b]
    for b, j in ix_qshed.items():
        A[nb + row[b], j] += 1.0
    b_vec = np.array([p_load[b] for b in on_buses]
                     + [q_load[b] for b in on_buses] + [0.0] * len(live_lines))
    lo, hi, c = (np.array(col) for col in zip(*cols))
    return (c, A, b_vec, lo, hi), dead


def assert_matches_highs(c, A, b, lower, upper, res):
    ref = reference(c, A, b, lower, upper)
    assert res.status == HIGHS_STATUS[ref.status]
    if res.status != OPTIMAL:
        return
    assert res.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-9)
    assert np.allclose(A @ res.x, b, atol=1e-7)
    assert np.all(res.x >= lower - 1e-9)
    assert np.all(res.x <= upper + 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_buses=st.integers(6, 60),
       fail_fraction=st.floats(0.0, 0.5),
       angle=st.sampled_from([0.0, 0.3]), v_band=st.sampled_from([0.05, 0.5]))
def test_shedding_lp_matches_highs(seed, n_buses, fail_fraction, angle,
                                   v_band):
    net = random_radial_network(seed, n_buses=n_buses,
                                power_factor_angle=angle, v_band=v_band,
                                resistance_max=0.05)
    ids = sorted(net.components)
    rng = np.random.default_rng(seed)
    failed = list(rng.choice(ids, size=int(fail_fraction * len(ids)),
                             replace=False))
    for args, _, res in shedding_lps(net, failed):
        assert res.stats["start"] == "crash"
        assert_matches_highs(*args, res)


def test_seeded_120_bus_shedding_lp_matches_highs():
    # with and without failures; every island's LP alone matches HiGHS, and
    # from the crash start even the cold feeder takes under 200 pivots in
    # all, with more than _REFACTOR_EVERY in its largest island
    net = random_radial_network(3, n_buses=120)
    for failed, islands in ((["c_l7", "c_l40", "c_g11"], 3), ([], 1)):
        lps = shedding_lps(net, failed)
        assert len(lps) == islands
        for args, _, res in lps:
            assert res.stats["start"] == "crash"
            assert_matches_highs(*args, res)
        pivots = [res.iterations for _, _, res in lps]
        assert simplex._REFACTOR_EVERY < max(pivots) <= sum(pivots) < 200
        # the islands' total against HiGHS on the whole block LP
        whole, dead = whole_shedding_lp(net, failed)
        ref = reference(*whole)
        assert shed_at(net, failed, 0).total_shed_mw == pytest.approx(
            dead + ref.fun, rel=0, abs=1e-9)


VERTEX_PROBE = """
import numpy as np
from gridquake.fixtures import random_radial_network
from gridquake.powerflow import shed_at
for seed in (3, 0, 1):
    net = random_radial_network(seed, n_buses=120)
    flow = shed_at(net, [], 0)
    print(np.array([flow.p_shed[b] for b in net.buses]
                   + [flow.v[b] for b in net.buses]).tobytes().hex())
"""


def test_shedding_lp_vertex_does_not_depend_on_blas_threads():
    # these feeders' lines cannot carry their load, so each LP pivots from
    # the all-shed start through reduced costs that tie in exact arithmetic
    src = Path(__file__).resolve().parents[1] / "src"
    vertices = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        vertices.append(subprocess.run(
            [sys.executable, "-c", VERTEX_PROBE], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert vertices[0].count("\n") == 3
    assert vertices[0] == vertices[1]


def test_refactorization_and_bound_flip_paths():
    # a 60-bus shedding LP takes more than _REFACTOR_EVERY basis changes in
    # phase 1; the appended free-standing columns (zero in A, cost -2) can
    # only reach their upper bound by a bound flip in phase 2
    (args, _, _), = shedding_lps(random_radial_network(3, n_buses=60), [])
    c, A, b, lower, upper = args
    k = 3
    c = np.concatenate([c, np.full(k, -2.0)])
    A = np.hstack([A, np.zeros((A.shape[0], k))])
    lower = np.concatenate([lower, np.zeros(k)])
    upper = np.concatenate([upper, np.ones(k)])
    res = solve_lp(c, A, b, lower, upper)
    assert res.stats["refactorizations"] > 2  # beyond one per phase
    assert res.x[-k:] == pytest.approx(np.ones(k), abs=0)
    assert_matches_highs(c, A, b, lower, upper, res)


def _crash_start_of(net):
    (args, kwargs, res), = shedding_lps(net, [])
    assert res.stats["start"] == "crash"
    basis, at_upper = kwargs["start"]
    return args, basis.copy(), at_upper.copy()


def test_singular_start_falls_back_to_phase_one():
    # the root's P row loses its import column to the root's voltage, which
    # has no entry in any P row; every flow column has one +1 and one -1
    # there, so the P rows of the basis sum to zero
    net = random_radial_network(3, n_buses=30)
    args, basis, at_upper = _crash_start_of(net)
    A = args[1]
    v_root = 0  # columns start with the voltages, rows with P, in bus order
    assert not A[:len(net.buses), v_root].any()
    basis[0] = v_root
    res = solve_lp(*args, start=(basis, at_upper))
    assert res.stats["start"] == "phase1"
    assert res.stats["phase1_iterations"] > 0
    assert_matches_highs(*args, res)


def test_infeasible_start_falls_back_to_phase_one():
    # serving every load in full overloads the random feeder's lines
    net = random_radial_network(3, n_buses=30)
    args, basis, at_upper = _crash_start_of(net)
    c = args[0]
    at_upper[c > 0] = False  # sheds are the only columns with a cost
    res = solve_lp(*args, start=(basis, at_upper))
    assert res.stats["start"] == "phase1"
    assert res.stats["phase1_iterations"] > 0
    assert_matches_highs(*args, res)


def test_repeated_solve_is_bit_identical():
    lps = shedding_lps(random_radial_network(5, n_buses=60), ["c_l3", "c_l20"])
    assert len(lps) == 2
    for args, kwargs, first in lps:
        again = solve_lp(*args, **kwargs)
        assert first.x.tobytes() == again.x.tobytes()
        assert first.objective == again.objective
        assert first.stats == again.stats
