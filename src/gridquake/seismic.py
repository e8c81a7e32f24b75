"""Seismic hazard: point-source ground motion attenuation and lognormal
component fragility.

PGA at a site follows ln(pga) = a + b1*M - b2*ln(max(R, r_floor)) + site
+ eps, with R the hypocentral distance in km and eps an optional normal
residual. Component failure is Bernoulli with probability
Phi(ln(pga/median)/beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import FragilityCurve, Network

__all__ = [
    "GmpeCoefficients", "SeismicEvent", "PgaField", "FragilityCurve",
    "normal_cdf", "site_distance", "ground_motion_pga",
    "failure_probability", "compute_pga_field", "sample_damage",
    "component_failure_probabilities", "DEFAULT_GMPE",
]


@dataclass(frozen=True)
class GmpeCoefficients:
    """Attenuation coefficients. The bundled defaults are illustrative
    placeholders shaped to give plausible urban-feeder failure rates for
    M 6.5-8.5 events at 5-30 km; they are not calibrated to any region."""

    a: float = -3.512
    b1: float = 0.904
    b2: float = 1.328
    site_terms: dict = field(default_factory=lambda: {"rock": 0.0, "soil": 0.2})
    r_floor_km: float = 1.0  # near-field saturation floor

    def __post_init__(self):
        if self.b2 < 0:
            raise ConfigError("gmpe b2 must be >= 0 (attenuation)")
        if not self.r_floor_km > 0:
            raise ConfigError("gmpe r_floor_km must be > 0")


DEFAULT_GMPE = GmpeCoefficients()


@dataclass(frozen=True)
class SeismicEvent:
    magnitude: float
    epicenter_x: float
    epicenter_y: float
    focal_depth_km: float = 10.0
    gmpe: GmpeCoefficients = DEFAULT_GMPE
    sigma_eps: float = 0.45  # std of the lognormal residual

    def __post_init__(self):
        if not 4.0 <= self.magnitude <= 10.0:
            raise ConfigError(f"magnitude {self.magnitude} outside [4, 10]")
        if self.focal_depth_km < 0:
            raise ConfigError("focal_depth_km must be >= 0")
        if self.sigma_eps < 0:
            raise ConfigError("sigma_eps must be >= 0")


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
    event: SeismicEvent, x: float, y: float,
    site_class: str = "rock", eps: float = 0.0,
) -> float:
    """PGA in g at a site, with optional residual eps (already scaled)."""
    g = event.gmpe
    if site_class not in g.site_terms:
        raise ConfigError(f"no site term for site_class {site_class!r}")
    r = max(site_distance(event, x, y), g.r_floor_km)
    ln_pga = (g.a + g.b1 * event.magnitude - g.b2 * math.log(r)
              + g.site_terms[site_class] + eps)
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
    network: Network, pga_field: PgaField, rng: np.random.Generator,
    scenario_id: int = 0, *, n: int | None = None,
):
    """Draw damage scenarios: an independent residual per component
    perturbs the median PGA, then an independent Bernoulli draw per
    component decides failure (`failure_probability` of the perturbed PGA).
    Each scenario takes one normal(size=components) then one
    random(components) from rng, so a set drawn in one call equals the same
    number of single draws bit for bit.

    sample_damage(..., n=n) draws a scenario set in one call and returns n
    (failed ids in document order, PGA per component id) pairs. The call
    without n is the single draw kept for its existing callers: the n=1
    pair as a DamageScenario with id scenario_id and loss fields unset (the
    scenario engine fills them).
    """
    from .scenarios import DamageScenario

    sigma = pga_field.event.sigma_eps
    ids = list(network.components)
    table = [(cid, pga_field.pga_g[cid], network.components[cid].fragility)
             for cid in ids]
    draws = []
    for _ in range(1 if n is None else n):
        eps = (rng.normal(0.0, sigma, size=len(ids)) if sigma > 0
               else np.zeros(len(ids))).tolist()
        unif = rng.random(len(ids)).tolist()
        pga = [median * math.exp(e) for (_, median, _), e in zip(table, eps)]
        failed = tuple(cid for (cid, _, curve), x, u in zip(table, pga, unif)
                       if u < failure_probability(x, curve))
        draws.append((failed, dict(zip(ids, pga))))
    if n is not None:
        return draws
    failed, pga_drawn = draws[0]
    return DamageScenario(id=scenario_id, failed=failed, pga_g=pga_drawn,
                          loss=0.0, ens_mw=0.0, weight=0.0)
