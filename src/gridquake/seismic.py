"""Seismic hazard: point-source ground motion attenuation and lognormal
component fragility.

Median PGA at a site follows ln(pga) = A + B1*M - B2*ln(max(R, R_FLOOR_KM))
+ SITE_TERMS[site class], with R the hypocentral distance in km; a sampled
scenario scales it by exp(eps), eps normal with std sigma_eps. Component
failure is Bernoulli with probability Phi(ln(pga/median)/beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FragilityCurve, Network, check

__all__ = [
    "SeismicEvent", "PgaField", "FragilityCurve",
    "normal_cdf", "site_distance", "ground_motion_pga",
    "failure_probability", "compute_pga_field", "sample_damage",
    "component_failure_probabilities",
]

# Attenuation coefficients. They are illustrative placeholders shaped to
# give plausible urban-feeder failure rates for M 6.5-8.5 events at 5-30 km;
# they are not calibrated to any region.
A = -3.512
B1 = 0.904
B2 = 1.328
SITE_TERMS = {"rock": 0.0, "soil": 0.2}
R_FLOOR_KM = 1.0  # near-field saturation floor


def magnitude_rule(field: str, magnitude: float) -> tuple:
    """The `check` rule of an event magnitude found at `field`."""
    return (field, magnitude, 4.0 <= magnitude <= 10.0, "in [4, 10]")


@dataclass(frozen=True)
class SeismicEvent:
    magnitude: float
    epicenter_x: float
    epicenter_y: float
    focal_depth_km: float = 10.0
    sigma_eps: float = 0.45  # std of the lognormal residual

    def __post_init__(self):
        x, y, depth = self.epicenter_x, self.epicenter_y, self.focal_depth_km
        check(magnitude_rule("magnitude", self.magnitude),
              ("epicenter_x", x, math.isfinite(x), "finite"),
              ("epicenter_y", y, math.isfinite(y), "finite"),
              ("focal_depth_km", depth, 0 <= depth < math.inf,
               ">= 0 and finite"),
              ("sigma_eps", self.sigma_eps, self.sigma_eps >= 0, ">= 0"))


@dataclass(frozen=True)
class PgaField:
    """Median (eps = 0) PGA per component for one event."""

    event: SeismicEvent
    pga_g: dict[str, float]  # component id -> PGA in g


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def site_distance(event: SeismicEvent, x: float, y: float) -> float:
    """Hypocentral distance (km) from the event to a surface site."""
    epi = math.hypot(x - event.epicenter_x, y - event.epicenter_y)
    return math.hypot(epi, event.focal_depth_km)


def ground_motion_pga(
    event: SeismicEvent, x: float, y: float, site_class: str = "rock",
) -> float:
    """Median PGA in g at a site; `sample_damage` applies the residual."""
    check(("site_class", site_class, site_class in SITE_TERMS,
           f"one of {tuple(SITE_TERMS)}"))
    r = max(site_distance(event, x, y), R_FLOOR_KM)
    ln_pga = (A + B1 * event.magnitude - B2 * math.log(r)
              + SITE_TERMS[site_class])
    return math.exp(ln_pga)


def failure_probability(pga_g: float, curve: FragilityCurve) -> float:
    """Lognormal fragility evaluated at a PGA level (pga <= 0 -> 0)."""
    if pga_g <= 0.0:
        return 0.0
    return normal_cdf(math.log(pga_g / curve.median_g) / curve.beta)


def compute_pga_field(network: Network, event: SeismicEvent) -> PgaField:
    """Median PGA at every component site (no residual)."""
    pga = {}
    for cid in network.components:
        x, y = network.component_location(cid)
        site = network.component_site_class(cid)
        pga[cid] = ground_motion_pga(event, x, y, site_class=site)
    return PgaField(event=event, pga_g=pga)


def component_failure_probabilities(
    network: Network, pga_field: PgaField,
) -> dict[str, float]:
    """Failure probability per component at the field's median PGA."""
    out = {}
    for cid, comp in network.components.items():
        out[cid] = failure_probability(pga_field.pga_g[cid], comp.fragility)
    return out


def sample_damage(
    network: Network, pga_field: PgaField, rng: np.random.Generator, n: int,
) -> list:
    """Draw n damage scenarios; returns each one's failed ids in document
    order.

    In each scenario an independent residual per component perturbs the
    median PGA, then an independent Bernoulli draw per component decides
    failure (`failure_probability` of the perturbed PGA). Each scenario
    takes one normal(size=components) then one random(components) from
    rng, so n draws in one call equal n calls with n=1 bit for bit.
    """
    sigma = pga_field.event.sigma_eps
    table = [(cid, pga_field.pga_g[cid], comp.fragility)
             for cid, comp in network.components.items()]
    draws = []
    for _ in range(n):
        eps = (rng.normal(0.0, sigma, size=len(table)) if sigma > 0
               else np.zeros(len(table))).tolist()
        unif = rng.random(len(table)).tolist()
        draws.append(tuple(
            cid for (cid, median, curve), e, u in zip(table, eps, unif)
            if u < failure_probability(median * math.exp(e), curve)))
    return draws
