"""Distribution network data model: buses, lines, generators, load profiles,
repair depots, and damageable components, plus JSON (de)serialization.

Networks are radial (a forest of trees, each rooted at a source). The loader
validates the document schema, cross-references, and topology; instances are
treated as immutable after loading.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError

SITE_CLASSES = ("rock", "soil")
COMPONENT_KINDS = ("line", "generator", "substation")

# default repair effort by component kind, hours
DEFAULT_REPAIR_HOURS = {"line": 1.0, "generator": 2.0, "substation": 2.0}

# default lognormal fragility (median PGA in g, log-std) by component kind
DEFAULT_FRAGILITY = {
    "generator": (0.4, 0.6),
    "substation": (0.5, 0.5),
    "line": (0.3, 0.7),
}


@dataclass(frozen=True)
class FragilityCurve:
    """Lognormal fragility: P(fail | pga) = Phi(ln(pga/median_g) / beta)."""

    median_g: float
    beta: float

    def __post_init__(self):
        if not self.median_g > 0:
            raise ConfigError(f"fragility median_g must be > 0, got {self.median_g}")
        if not self.beta > 0:
            raise ConfigError(f"fragility beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class Bus:
    id: str
    x: float
    y: float
    v_min: float = 0.90
    v_max: float = 1.10
    power_factor_angle: float = 0.0  # rad; q_load = p_load * tan(angle)
    is_substation: bool = False
    load_profile: str | None = None
    site_class: str = "rock"

    def __post_init__(self):
        if not 0 < self.v_min <= self.v_max:
            raise ConfigError(
                f"bus {self.id}: need 0 < v_min <= v_max, got [{self.v_min}, {self.v_max}]"
            )
        if not 0 <= self.power_factor_angle < math.pi / 2:
            raise ConfigError(
                f"bus {self.id}: power_factor_angle must be in [0, pi/2), "
                f"got {self.power_factor_angle}"
            )
        if self.site_class not in SITE_CLASSES:
            raise ConfigError(
                f"bus {self.id}: unknown site_class {self.site_class!r}"
            )


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    resistance: float  # p.u. on system base
    reactance: float  # p.u.
    capacity_mva: float
    length_km: float = 0.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ConfigError(f"line {self.id}: from_bus == to_bus ({self.from_bus})")
        if self.resistance < 0 or self.reactance < 0:
            raise ConfigError(f"line {self.id}: negative impedance")
        if not self.capacity_mva > 0:
            raise ConfigError(f"line {self.id}: capacity_mva must be > 0")


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max:
            raise ConfigError(
                f"generator {self.id}: need 0 <= p_min <= p_max, "
                f"got [{self.p_min}, {self.p_max}]"
            )
        if self.q_min > self.q_max:
            raise ConfigError(f"generator {self.id}: q_min > q_max")


@dataclass(frozen=True)
class LoadProfile:
    """Hourly demand series; q_mvar is optional (derived from the bus power
    factor angle when absent)."""

    id: str
    p_mw: tuple[float, ...]
    q_mvar: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.p_mw) == 0:
            raise ConfigError(f"profile {self.id}: empty p_mw")
        if any(p < 0 for p in self.p_mw):
            raise ConfigError(f"profile {self.id}: negative load")
        if self.q_mvar is not None and len(self.q_mvar) != len(self.p_mw):
            raise ConfigError(
                f"profile {self.id}: q_mvar length {len(self.q_mvar)} != "
                f"p_mw length {len(self.p_mw)}"
            )


@dataclass(frozen=True)
class Depot:
    id: str
    x: float
    y: float
    crew_count: int = 1

    def __post_init__(self):
        if self.crew_count < 1:
            raise ConfigError(f"depot {self.id}: crew_count must be >= 1")


@dataclass(frozen=True)
class Component:
    """A damageable piece of equipment tied to a line, generator, or
    substation bus."""

    id: str
    kind: str  # 'line' | 'generator' | 'substation'
    ref: str  # id of the line/generator/bus it maps to
    fragility: FragilityCurve
    repair_hours: float

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise ConfigError(f"component {self.id}: unknown kind {self.kind!r}")
        if not self.repair_hours > 0:
            raise ConfigError(f"component {self.id}: repair_hours must be > 0")


@dataclass(frozen=True)
class RadialityReport:
    cycles: tuple[tuple[str, ...], ...]  # each cycle as a tuple of line ids
    sourceless: tuple[tuple[str, ...], ...]  # bus groups with no source

    @property
    def ok(self) -> bool:
        return not self.cycles and not self.sourceless


@dataclass
class Network:
    """Immutable-after-load container for the whole system description.

    Collections are insertion-ordered dicts keyed by id; document order is
    the canonical order everywhere downstream (scenario sampling, LP column
    layout, artifact output).
    """

    buses: dict[str, Bus]
    lines: dict[str, Line]
    generators: dict[str, Generator]
    depots: dict[str, Depot]
    components: dict[str, Component]
    profiles: dict[str, LoadProfile]
    timestep_hours: float = 1.0
    substation_import_mva: float | None = None
    travel_speed_kmh: float = 40.0

    def component_ids(self) -> list[str]:
        return list(self.components)

    def substation_buses(self) -> list[str]:
        return [b.id for b in self.buses.values() if b.is_substation]

    def import_limit_mva(self) -> float:
        """Substation import bound; defaults to the summed peak load."""
        if self.substation_import_mva is not None:
            return self.substation_import_mva
        total = 0.0
        for bus in self.buses.values():
            if bus.load_profile:
                total += max(self.profiles[bus.load_profile].p_mw)
        return total

    def loads_at(self, t: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-bus (P MW, Q MVAr) at hour t; profiles repeat cyclically."""
        p, q = {}, {}
        for bus in self.buses.values():
            if not bus.load_profile:
                p[bus.id] = 0.0
                q[bus.id] = 0.0
                continue
            prof = self.profiles[bus.load_profile]
            i = t % len(prof.p_mw)
            p[bus.id] = prof.p_mw[i]
            if prof.q_mvar is not None:
                q[bus.id] = prof.q_mvar[i]
            else:
                q[bus.id] = prof.p_mw[i] * math.tan(bus.power_factor_angle)
        return p, q

    def peak_hour(self) -> int:
        """Hour index with the largest total P load."""
        horizon = max((len(p.p_mw) for p in self.profiles.values()), default=1)
        best_t, best_load = 0, -1.0
        for t in range(horizon):
            total = sum(self.loads_at(t)[0].values())
            if total > best_load:
                best_t, best_load = t, total
        return best_t

    def component_location(self, comp_id: str) -> tuple[float, float]:
        """Planar coordinates of a component (line midpoint, else its bus)."""
        comp = self.components[comp_id]
        if comp.kind == "line":
            ln = self.lines[comp.ref]
            a, b = self.buses[ln.from_bus], self.buses[ln.to_bus]
            return (0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
        if comp.kind == "generator":
            bus = self.buses[self.generators[comp.ref].bus]
        else:
            bus = self.buses[comp.ref]
        return (bus.x, bus.y)

    def component_site_class(self, comp_id: str) -> str:
        comp = self.components[comp_id]
        if comp.kind == "line":
            # a line spans two sites; use the softer one (conservative)
            ln = self.lines[comp.ref]
            classes = {self.buses[ln.from_bus].site_class,
                       self.buses[ln.to_bus].site_class}
            return "soil" if "soil" in classes else "rock"
        if comp.kind == "generator":
            return self.buses[self.generators[comp.ref].bus].site_class
        return self.buses[comp.ref].site_class


def _require(record: dict, key: str, path: str):
    if key not in record:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return record[key]


def load_network(document: str | dict) -> Network:
    """Parse and validate a network document (JSON text or a parsed dict).

    Raises ConfigError naming the offending path on schema violations,
    dangling cross-references, or non-radial topology.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"network document is not valid JSON: {e}") from e
    if not isinstance(document, dict):
        raise ConfigError("network document must be a JSON object")

    profiles: dict[str, LoadProfile] = {}
    for i, rec in enumerate(document.get("profiles", [])):
        path = f"profiles[{i}]"
        pid = _require(rec, "id", path)
        if pid in profiles:
            raise ConfigError(f"{path}.id: duplicate id {pid!r}")
        q = rec.get("q_mvar")
        profiles[pid] = LoadProfile(
            id=pid,
            p_mw=tuple(_require(rec, "p_mw", path)),
            q_mvar=tuple(q) if q is not None else None,
        )

    buses: dict[str, Bus] = {}
    for i, rec in enumerate(document.get("buses", [])):
        path = f"buses[{i}]"
        bid = _require(rec, "id", path)
        if bid in buses:
            raise ConfigError(f"{path}.id: duplicate id {bid!r}")
        buses[bid] = Bus(
            id=bid,
            x=float(_require(rec, "x", path)),
            y=float(_require(rec, "y", path)),
            v_min=float(rec.get("v_min", 0.90)),
            v_max=float(rec.get("v_max", 1.10)),
            power_factor_angle=float(rec.get("power_factor_angle", 0.0)),
            is_substation=bool(rec.get("is_substation", False)),
            load_profile=rec.get("load_profile"),
            site_class=rec.get("site_class", "rock"),
        )

    lines: dict[str, Line] = {}
    for i, rec in enumerate(document.get("lines", [])):
        path = f"lines[{i}]"
        lid = _require(rec, "id", path)
        if lid in lines:
            raise ConfigError(f"{path}.id: duplicate id {lid!r}")
        fb = _require(rec, "from_bus", path)
        tb = _require(rec, "to_bus", path)
        for end, name in ((fb, "from_bus"), (tb, "to_bus")):
            if end not in buses:
                raise ConfigError(f"{path}.{name}: unknown bus {end!r}")
        length = rec.get("length_km")
        if length is None:
            a, b = buses[fb], buses[tb]
            length = math.hypot(a.x - b.x, a.y - b.y)
        lines[lid] = Line(
            id=lid,
            from_bus=fb,
            to_bus=tb,
            resistance=float(_require(rec, "resistance", path)),
            reactance=float(_require(rec, "reactance", path)),
            capacity_mva=float(_require(rec, "capacity_mva", path)),
            length_km=float(length),
        )

    generators: dict[str, Generator] = {}
    for i, rec in enumerate(document.get("generators", [])):
        path = f"generators[{i}]"
        gid = _require(rec, "id", path)
        if gid in generators:
            raise ConfigError(f"{path}.id: duplicate id {gid!r}")
        bus = _require(rec, "bus", path)
        if bus not in buses:
            raise ConfigError(f"{path}.bus: unknown bus {bus!r}")
        generators[gid] = Generator(
            id=gid,
            bus=bus,
            p_min=float(rec.get("p_min", 0.0)),
            p_max=float(_require(rec, "p_max", path)),
            q_min=float(rec.get("q_min", 0.0)),
            q_max=float(rec.get("q_max", 0.0)),
        )

    depots: dict[str, Depot] = {}
    for i, rec in enumerate(document.get("depots", [])):
        path = f"depots[{i}]"
        did = _require(rec, "id", path)
        if did in depots:
            raise ConfigError(f"{path}.id: duplicate id {did!r}")
        depots[did] = Depot(
            id=did,
            x=float(_require(rec, "x", path)),
            y=float(_require(rec, "y", path)),
            crew_count=int(rec.get("crew_count", 1)),
        )

    components: dict[str, Component] = {}
    for i, rec in enumerate(document.get("components", [])):
        path = f"components[{i}]"
        cid = _require(rec, "id", path)
        if cid in components:
            raise ConfigError(f"{path}.id: duplicate id {cid!r}")
        kind = _require(rec, "kind", path)
        if kind not in COMPONENT_KINDS:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        ref = _require(rec, "ref", path)
        pool = {"line": lines, "generator": generators, "substation": buses}[kind]
        if ref not in pool:
            raise ConfigError(f"{path}.ref: unknown {kind} {ref!r}")
        if kind == "substation" and not buses[ref].is_substation:
            raise ConfigError(f"{path}.ref: bus {ref!r} is not a substation")
        frag = rec.get("fragility")
        if frag is None:
            med, beta = DEFAULT_FRAGILITY[kind]
            curve = FragilityCurve(med, beta)
        else:
            curve = FragilityCurve(
                median_g=float(_require(frag, "median_g", f"{path}.fragility")),
                beta=float(_require(frag, "beta", f"{path}.fragility")),
            )
        components[cid] = Component(
            id=cid,
            kind=kind,
            ref=ref,
            fragility=curve,
            repair_hours=float(rec.get("repair_hours", DEFAULT_REPAIR_HOURS[kind])),
        )

    for bid, bus in buses.items():
        if bus.load_profile is not None and bus.load_profile not in profiles:
            raise ConfigError(
                f"buses[{list(buses).index(bid)}].load_profile: "
                f"unknown profile {bus.load_profile!r}"
            )

    net = Network(
        buses=buses,
        lines=lines,
        generators=generators,
        depots=depots,
        components=components,
        profiles=profiles,
        timestep_hours=float(document.get("timestep_hours", 1.0)),
        substation_import_mva=document.get("substation_import_mva"),
        travel_speed_kmh=float(document.get("travel_speed_kmh", 40.0)),
    )

    report = validate_radiality(net)
    if report.cycles:
        raise ConfigError(f"non-radial topology: cycle through lines {list(report.cycles[0])}")
    if report.sourceless:
        raise ConfigError(
            f"buses {list(report.sourceless[0])} have no path to a substation or generator"
        )
    return net


def validate_radiality(net: Network, in_service: set[str] | None = None) -> RadialityReport:
    """Check that the in-service lines form a forest and every tree holds a
    source (substation bus or generator bus). `in_service` defaults to all
    lines."""
    if in_service is None:
        in_service = set(net.lines)

    parent = {b: b for b in net.buses}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cycles = []
    adj: dict[str, list[tuple[str, str]]] = {b: [] for b in net.buses}
    for lid in net.lines:
        if lid not in in_service:
            continue
        ln = net.lines[lid]
        ra, rb = find(ln.from_bus), find(ln.to_bus)
        if ra == rb:
            cycles.append(_trace_cycle(net, adj, ln))
        else:
            parent[ra] = rb
            adj[ln.from_bus].append((ln.to_bus, lid))
            adj[ln.to_bus].append((ln.from_bus, lid))

    source_buses = set(net.substation_buses())
    source_buses.update(g.bus for g in net.generators.values())

    groups: dict[str, list[str]] = {}
    for b in net.buses:
        groups.setdefault(find(b), []).append(b)
    sourceless = [
        tuple(members)
        for members in groups.values()
        if not any(m in source_buses for m in members)
    ]
    return RadialityReport(cycles=tuple(cycles), sourceless=tuple(sourceless))


def _trace_cycle(net: Network, adj, closing: Line) -> tuple[str, ...]:
    # path from closing.from_bus to closing.to_bus in the current forest,
    # plus the closing line itself
    target = closing.to_bus
    stack = [(closing.from_bus, None, [])]
    seen = set()
    while stack:
        node, via, path = stack.pop()
        if node == target:
            return tuple(path + [closing.id])
        if node in seen:
            continue
        seen.add(node)
        for nxt, lid in adj[node]:
            if lid != via:
                stack.append((nxt, lid, path + [lid]))
    return (closing.id,)


def network_to_document(net: Network) -> dict:
    """Inverse of load_network; round-trips exactly."""
    return {
        "timestep_hours": net.timestep_hours,
        "substation_import_mva": net.substation_import_mva,
        "travel_speed_kmh": net.travel_speed_kmh,
        "buses": [
            {
                "id": b.id, "x": b.x, "y": b.y,
                "v_min": b.v_min, "v_max": b.v_max,
                "power_factor_angle": b.power_factor_angle,
                "is_substation": b.is_substation,
                "load_profile": b.load_profile,
                "site_class": b.site_class,
            }
            for b in net.buses.values()
        ],
        "lines": [
            {
                "id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
                "resistance": ln.resistance, "reactance": ln.reactance,
                "capacity_mva": ln.capacity_mva, "length_km": ln.length_km,
            }
            for ln in net.lines.values()
        ],
        "generators": [
            {
                "id": g.id, "bus": g.bus,
                "p_min": g.p_min, "p_max": g.p_max,
                "q_min": g.q_min, "q_max": g.q_max,
            }
            for g in net.generators.values()
        ],
        "depots": [
            {"id": d.id, "x": d.x, "y": d.y, "crew_count": d.crew_count}
            for d in net.depots.values()
        ],
        "components": [
            {
                "id": c.id, "kind": c.kind, "ref": c.ref,
                "fragility": {"median_g": c.fragility.median_g,
                              "beta": c.fragility.beta},
                "repair_hours": c.repair_hours,
            }
            for c in net.components.values()
        ],
        "profiles": [
            {
                "id": p.id,
                "p_mw": list(p.p_mw),
                "q_mvar": list(p.q_mvar) if p.q_mvar is not None else None,
            }
            for p in net.profiles.values()
        ],
    }


def load_network_file(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return load_network(fh.read())
