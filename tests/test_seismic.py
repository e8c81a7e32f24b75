"""Ground motion and fragility tests.

Oracle values at the top were produced independently: the Phi table with
mpmath at 40 digits, the attenuation cases by hand from the log-linear
form ln pga = A + B1*M - B2*ln(max(R, R_FLOOR_KM)) + site term.
"""

import math

import numpy as np
import pytest

from gridquake.errors import ConfigError
from gridquake.model import SITE_CLASSES, FragilityCurve
from gridquake.seismic import (SITE_TERMS, SeismicEvent,
                               component_failure_probabilities,
                               compute_pga_field, failure_probability,
                               ground_motion_pga, normal_cdf, sample_damage,
                               site_distance)
from gridquake.fixtures import (builtin_feeder, default_event,
                                random_radial_network)

# (x, Phi(x)) from mpmath.ncdf at 40 decimal digits
PHI_TABLE = [
    (-8.0, 6.220960574271784123516e-16),
    (-3.0, 0.001349898031630094526652),
    (-1.0, 0.1586552539314570514148),
    (-0.5, 0.3085375387259868963623),
    (0.0, 0.5),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (2.0, 0.9772498680518207927997),
    (8.0, 0.9999999999999993779039),
]

# hand-computed attenuation cases with the default coefficients
# a=-3.512 b1=0.904 b2=1.328 soil=+0.2 r_floor=1
PGA_M7_R50_ROCK = 0.09262774583076942   # 30 km horizontal, 40 km deep
PGA_M7_R50_SOIL = 0.11313578423986097
PGA_M6_EPICENTER_SHALLOW = 6.766608491314571  # R < floor, ln term drops

# Phi(ln(0.6/0.4)/0.6) via mpmath
FRAG_06_04_06 = 0.75040830239576180836


def test_normal_cdf_matches_high_precision_table():
    for x, want in PHI_TABLE:
        assert normal_cdf(x) == pytest.approx(want, abs=1e-15)


def test_normal_cdf_symmetry():
    xs = np.linspace(-6, 6, 101)
    for x in xs:
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_site_distance_pythagorean():
    ev = SeismicEvent(magnitude=7.0, epicenter_x=0.0, epicenter_y=0.0,
                      focal_depth_km=40.0)
    assert site_distance(ev, 18.0, 24.0) == pytest.approx(50.0, abs=1e-12)


def test_ground_motion_hand_cases():
    ev = SeismicEvent(magnitude=7.0, epicenter_x=0.0, epicenter_y=0.0,
                      focal_depth_km=40.0)
    assert ground_motion_pga(ev, 18.0, 24.0) == pytest.approx(
        PGA_M7_R50_ROCK, rel=1e-12)
    assert ground_motion_pga(ev, 18.0, 24.0, site_class="soil") == pytest.approx(
        PGA_M7_R50_SOIL, rel=1e-12)


def test_ground_motion_distance_floor():
    ev = SeismicEvent(magnitude=6.0, epicenter_x=1.0, epicenter_y=1.0,
                      focal_depth_km=0.5)
    assert ground_motion_pga(ev, 1.0, 1.0) == pytest.approx(
        PGA_M6_EPICENTER_SHALLOW, rel=1e-12)


def test_ground_motion_increases_with_magnitude():
    for x, y in [(0.0, 0.0), (10.0, -5.0)]:
        pgas = [ground_motion_pga(default_event(m), x, y)
                for m in (5.0, 6.0, 7.0, 8.0)]
        assert all(a < b for a, b in zip(pgas, pgas[1:]))


def test_every_site_class_has_a_site_term():
    # a network document may name only SITE_CLASSES, and the attenuation
    # needs a term for each; a class added to one list alone fails here
    assert set(SITE_CLASSES) == set(SITE_TERMS)
    ev = SeismicEvent(magnitude=7.0, epicenter_x=0.0, epicenter_y=0.0)
    with pytest.raises(ConfigError):
        ground_motion_pga(ev, 1.0, 1.0, site_class="bedrock")


def test_magnitude_range_enforced():
    with pytest.raises(ConfigError):
        SeismicEvent(magnitude=3.5, epicenter_x=0, epicenter_y=0)
    with pytest.raises(ConfigError):
        SeismicEvent(magnitude=10.5, epicenter_x=0, epicenter_y=0)


def test_failure_probability_hand_case():
    curve = FragilityCurve(median_g=0.4, beta=0.6)
    assert failure_probability(0.6, curve) == pytest.approx(
        FRAG_06_04_06, abs=1e-12)


def test_failure_probability_at_median_is_half():
    for median, beta in [(0.4, 0.6), (0.5, 0.5), (0.3, 0.7)]:
        curve = FragilityCurve(median_g=median, beta=beta)
        assert failure_probability(median, curve) == pytest.approx(
            0.5, abs=1e-12)


def test_failure_probability_zero_pga():
    curve = FragilityCurve(median_g=0.4, beta=0.6)
    assert failure_probability(0.0, curve) == 0.0
    assert failure_probability(-1.0, curve) == 0.0


def test_failure_probability_monotone_in_pga():
    curve = FragilityCurve(median_g=0.5, beta=0.5)
    pgas = np.linspace(0.01, 3.0, 50)
    ps = [failure_probability(g, curve) for g in pgas]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_pga_field_covers_components_and_respects_site_class():
    net = builtin_feeder()
    ev = default_event(7.0)
    field = compute_pga_field(net, ev)
    assert set(field.pga_g) == set(net.components)
    # same location, different site class: soil must see more shaking
    for cid, pga in field.pga_g.items():
        x, y = net.component_location(cid)
        sc = net.component_site_class(cid)
        assert pga == pytest.approx(ground_motion_pga(ev, x, y, site_class=sc),
                                    rel=1e-12)


def test_component_failure_probabilities_bounds_and_order():
    net = builtin_feeder()
    p_small = component_failure_probabilities(net, compute_pga_field(net, default_event(5.0)))
    p_big = component_failure_probabilities(net, compute_pga_field(net, default_event(8.5)))
    for cid in net.components:
        assert 0.0 <= p_small[cid] <= p_big[cid] <= 1.0


def test_sample_damage_deterministic_for_seed():
    net = builtin_feeder()
    ev = default_event(7.5)
    field = compute_pga_field(net, ev)
    [a] = sample_damage(net, field, np.random.default_rng(11), n=1)
    [b] = sample_damage(net, field, np.random.default_rng(11), n=1)
    assert a == b
    assert set(a) <= set(net.components)


def test_sample_damage_marginal_frequency():
    # with sigma_eps = 0 the marginal failure probability equals the curve
    # value at the deterministic pga; check a seeded frequency against it
    net = builtin_feeder()
    ev = default_event(7.5, sigma_eps=0.0)
    field = compute_pga_field(net, ev)
    probs = component_failure_probabilities(net, field)
    cid = "c_l1"
    p = probs[cid]
    assert 0.05 < p < 0.95
    n = 4000
    rng = np.random.default_rng(5)
    hits = sum(cid in failed for failed in sample_damage(net, field, rng, n))
    freq = hits / n
    assert abs(freq - p) < 4.0 * math.sqrt(p * (1 - p) / n)


def reference_draws(net, field, rng, n):
    """One scenario at a time, as a per-component loop: a normal residual
    per component, then a uniform per component, the residual scaling the
    median PGA through math.exp and the failure probability through
    failure_probability."""
    ids = list(net.components)
    out = []
    for _ in range(n):
        sigma = field.event.sigma_eps
        eps = (rng.normal(0.0, sigma, size=len(ids)) if sigma > 0
               else np.zeros(len(ids)))
        unif = rng.random(len(ids))
        failed, pga = [], {}
        for i, cid in enumerate(ids):
            pga[cid] = field.pga_g[cid] * math.exp(eps[i])
            if unif[i] < failure_probability(pga[cid],
                                             net.components[cid].fragility):
                failed.append(cid)
        out.append((tuple(failed), pga))
    return out


@pytest.mark.parametrize("sigma_eps", [0.45, 0.0])
@pytest.mark.parametrize("n_buses", [13, 30])
def test_batched_sample_damage_matches_a_per_scenario_loop(sigma_eps, n_buses):
    net = (builtin_feeder() if n_buses == 13
           else random_radial_network(4, n_buses=n_buses))
    field = compute_pga_field(net, default_event(7.5, sigma_eps=sigma_eps))
    got = sample_damage(net, field, np.random.default_rng(21), n=60)
    want = reference_draws(net, field, np.random.default_rng(21), 60)
    assert got == [f for f, _ in want]
    assert len(set(got)) > 1
    # one scenario per call draws the same scenarios from the same stream
    rng = np.random.default_rng(21)
    singles = [sample_damage(net, field, rng, n=1)[0] for _ in range(60)]
    assert singles == got
