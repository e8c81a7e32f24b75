"""Bundled study system and synthetic network builders.

The packaged 13-bus feeder is a small radial distribution system with two
embedded generators, two repair depots, and hourly load profiles; it is the
default subject for the CLI pipeline and the test suite. Synthetic radial
networks support randomized testing at controlled sizes.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import ConfigError
from .model import Network, load_network
from .seismic import SeismicEvent

DEFAULT_EPICENTER = (20.0, 15.0)  # km, relative to the feeder origin

# random_radial_network's load lattice (MW) and the chance that a non-root
# bus carries a generator
LOAD_STEP = 0.1
GEN_PROBABILITY = 0.4


def builtin_feeder() -> Network:
    """The packaged 13-bus radial feeder."""
    data = resources.files("gridquake.data").joinpath("feeder13.json")
    return load_network(data.read_text(encoding="utf-8"))


def default_event(magnitude: float,
                  epicenter: tuple = DEFAULT_EPICENTER,
                  focal_depth_km: float = SeismicEvent.focal_depth_km,
                  **kwargs) -> SeismicEvent:
    """Event with the study defaults: offshore-ish epicenter 25 km out."""
    ex, ey = epicenter
    return SeismicEvent(magnitude=magnitude, epicenter_x=ex, epicenter_y=ey,
                        focal_depth_km=focal_depth_km, **kwargs)


def random_radial_network(
    seed: int, n_buses: int = 6, max_load_steps: int = 10,
    power_factor_angle: float = 0.0,
    v_band: float = 0.5, resistance_max: float = 0.01,
) -> Network:
    """Random radial test network: one substation root, random tree,
    lattice loads (multiples of LOAD_STEP), optional small generators with
    p_min = 0.

    With the default unity power factor and wide voltage band the shedding
    optimum lands on the load lattice, which keeps exhaustive grid search
    usable as an oracle.
    """
    if n_buses < 2:
        raise ConfigError("need at least 2 buses")
    rng = np.random.default_rng(seed)
    buses = []
    for i in range(n_buses):
        buses.append({
            "id": f"b{i + 1}",
            "x": float(rng.uniform(0, 5)),
            "y": float(rng.uniform(0, 5)),
            "v_min": 1.0 - v_band, "v_max": 1.0 + v_band,
            "power_factor_angle": power_factor_angle,
            "is_substation": i == 0,
        })
    profiles = []
    for i in range(1, n_buses):
        steps = int(rng.integers(0, max_load_steps + 1))
        if steps == 0:
            continue
        pid = f"p{i + 1}"
        profiles.append({"id": pid, "p_mw": [round(steps * LOAD_STEP, 10)]})
        buses[i]["load_profile"] = pid

    lines = []
    for i in range(1, n_buses):
        parent = int(rng.integers(0, i))
        cap_steps = int(rng.integers(2, 2 * max_load_steps))
        lines.append({
            "id": f"l{i}",
            "from_bus": f"b{parent + 1}",
            "to_bus": f"b{i + 1}",
            "resistance": float(rng.uniform(0, resistance_max)),
            "reactance": float(rng.uniform(0, resistance_max)),
            "capacity_mva": round(cap_steps * LOAD_STEP, 10),
        })

    generators = []
    for i in range(1, n_buses):
        if rng.random() < GEN_PROBABILITY:
            p_max_steps = int(rng.integers(1, max_load_steps))
            generators.append({
                "id": f"g{i + 1}",
                "bus": f"b{i + 1}",
                "p_min": 0.0,
                "p_max": round(p_max_steps * LOAD_STEP, 10),
                "q_min": -round(p_max_steps * LOAD_STEP, 10),
                "q_max": round(p_max_steps * LOAD_STEP, 10),
            })

    components = [{"id": "c_sub", "kind": "substation", "ref": "b1"}]
    components += [{"id": f"c_{ln['id']}", "kind": "line", "ref": ln["id"]}
                   for ln in lines]
    components += [{"id": f"c_{g['id']}", "kind": "generator", "ref": g["id"]}
                   for g in generators]

    doc = {
        "timestep_hours": 1.0,
        "buses": buses,
        "lines": lines,
        "generators": generators,
        "depots": [{"id": "d1", "x": 0.0, "y": 0.0, "crew_count": 1}],
        "components": components,
        "profiles": profiles,
    }
    return load_network(doc)
