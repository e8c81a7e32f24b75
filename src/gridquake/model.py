"""Distribution network data model: buses, lines, generators, load profiles,
repair depots, and damageable components, plus JSON (de)serialization.

Networks are radial (a forest of trees, each rooted at a source). The loader
validates the document schema, cross-references, and topology; instances are
treated as immutable after loading.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass

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
    length_km: float | None = None  # None: the span between the two buses

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

    def __post_init__(self):
        for name, ok, rule in (
                ("timestep_hours", self.timestep_hours > 0, "> 0"),
                ("substation_import_mva", self.substation_import_mva is None
                 or self.substation_import_mva >= 0, "null or >= 0"),
                ("travel_speed_kmh", self.travel_speed_kmh > 0, "> 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}")

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


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _scalar(kinds: tuple, what: str):
    """Reader of a JSON scalar of the types `kinds`; a bool is no number."""
    def read(value, path):
        if not isinstance(value, kinds) or (isinstance(value, bool)
                                            and bool not in kinds):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return value
    return read


_SCALARS = {
    float: _scalar((int, float), "a number"),
    int: _scalar((int,), "an integer"),
    bool: _scalar((bool,), "true or false"),
    str: _scalar((str,), "a string"),
}


@functools.cache
def _reader(tp):
    """A function (value, path) that checks a JSON value against the type
    `tp` and returns it; lists read as tuples where `tp` is a tuple."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if dataclasses.is_dataclass(tp):
        return lambda value, path: read_record(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        [inner] = [a for a in args if a is not type(None)]
        read = _reader(inner)
        return lambda value, path: None if value is None else read(value, path)
    if origin in (tuple, list):  # tuple[X, ...], tuple[X, X] or list[X]
        item = _reader(args[0])
        size = None if origin is list or args[-1] is Ellipsis else len(args)
        what = "a list" if size is None else f"a list of {size} items"

        def read(value, path):
            if not isinstance(value, list) or (size is not None
                                               and len(value) != size):
                raise ConfigError(f"{path}: expected {what}, got {value!r}")
            return origin(item(v, f"{path}[{i}]") for i, v in enumerate(value))
        return read
    if origin is dict and args[0] is str:
        value_of = _reader(args[1])

        def read(value, path):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: expected an object, got {value!r}")
            return {k: value_of(v, f"{path}.{k}") for k, v in value.items()}
        return read
    raise TypeError(f"no document reader for {tp!r}")


def _writer(tp):
    """None when values of the type `tp` are JSON as they are, else a
    function that makes them so: tuples become lists, records objects."""
    if dataclasses.is_dataclass(tp):
        return record_document
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        [inner] = [a for a in args if a is not type(None)]
        write = _writer(inner)
        return write and (lambda value: None if value is None else write(value))
    if origin in (tuple, list):
        item = _writer(args[0])
        return list if item is None else (lambda value: [item(v) for v in value])
    return dict if origin is dict else None


@functools.cache
def _fields(cls) -> dict:
    """name -> (reader, required, writer) of each field of the dataclass
    `cls`, in declaration order: the one schema of every document record."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_reader(hints[f.name]),
                     f.default is f.default_factory is dataclasses.MISSING,
                     _writer(hints[f.name]))
            for f in dataclasses.fields(cls)}


def read_record(cls, rec, path: str, **given):
    """Build the dataclass `cls` from the JSON object `rec` found at `path`.

    Each field's value is `given[name]`, else the document's, else the
    dataclass default. A document value must have the field's declared
    type: an integer is a number and a bool is not; `X | None` takes null;
    a tuple or list field takes a list, a `dict[str, X]` an object, and a
    dataclass field an object read the same way. Lists become tuples for
    tuple fields; nothing else is converted. A missing required field, a
    key that names no field, or a value of the wrong type is a ConfigError
    naming its path."""
    if not isinstance(rec, dict):
        raise ConfigError(f"{path or 'document'}: expected an object, "
                          f"got {rec!r}")
    fields = _fields(cls)
    if not rec.keys() <= fields.keys():
        names = ", ".join(_join(path, k) for k in sorted(rec.keys() - fields))
        raise ConfigError(f"unknown field {names}")
    values = dict(given)
    for name, value in rec.items():
        if name not in values:
            values[name] = fields[name][0](value, _join(path, name))
    for name, (_, required, _) in fields.items():
        if required and name not in values:
            raise ConfigError(f"{path or 'document'}: missing required "
                              f"field {name!r}")
    return cls(**values)


def record_document(obj) -> dict:
    """The JSON object of a record that read_record reads back: its fields
    in declaration order, the order in which the dataclass sets them."""
    doc = dict(vars(obj))
    for name, (_, _, write) in _fields(type(obj)).items():
        if write is not None:
            doc[name] = write(doc[name])
    return doc


def read_value(tp, value, path: str):
    """Check one JSON value against the type `tp` as read_record does."""
    return _reader(tp)(value, path)


def read_json(path: str):
    """Parse the JSON file at `path`; a parse error is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # a JSON or a UTF-8 decoding error
            raise ConfigError(f"{path}: invalid JSON: {e}") from e


def _section(document: dict, key: str, build) -> dict:
    """The records under `key`, made by build(rec, path), by unique id."""
    records = document.get(key, [])
    if not (isinstance(records, list)
            and all(isinstance(rec, dict) for rec in records)):
        raise ConfigError(f"{key}: expected a list of objects, got {records!r}")
    out = {}
    for i, rec in enumerate(records):
        path = f"{key}[{i}]"
        obj = build(rec, path)
        if obj.id in out:
            raise ConfigError(f"{path}.id: duplicate id {obj.id!r}")
        out[obj.id] = obj
    return out


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

    profiles = _section(document, "profiles",
                        functools.partial(read_record, LoadProfile))

    def bus(rec, path):
        b = read_record(Bus, rec, path)
        if b.load_profile is not None and b.load_profile not in profiles:
            raise ConfigError(f"{path}.load_profile: "
                              f"unknown profile {b.load_profile!r}")
        return b
    buses = _section(document, "buses", bus)

    def line(rec, path):
        ln = read_record(Line, rec, path)
        for end, bus_id in (("from_bus", ln.from_bus), ("to_bus", ln.to_bus)):
            if bus_id not in buses:
                raise ConfigError(f"{path}.{end}: unknown bus {bus_id!r}")
        if ln.length_km is None:
            a, b = buses[ln.from_bus], buses[ln.to_bus]
            ln = dataclasses.replace(ln, length_km=math.hypot(a.x - b.x,
                                                              a.y - b.y))
        return ln
    lines = _section(document, "lines", line)

    def generator(rec, path):
        g = read_record(Generator, rec, path)
        if g.bus not in buses:
            raise ConfigError(f"{path}.bus: unknown bus {g.bus!r}")
        return g
    generators = _section(document, "generators", generator)

    depots = _section(document, "depots",
                      functools.partial(read_record, Depot))

    def component(rec, path):
        kind = rec.get("kind")
        if kind not in COMPONENT_KINDS:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        given = {}
        if rec.get("fragility") is None:
            given["fragility"] = FragilityCurve(*DEFAULT_FRAGILITY[kind])
        if "repair_hours" not in rec:
            given["repair_hours"] = DEFAULT_REPAIR_HOURS[kind]
        c = read_record(Component, rec, path, **given)
        pool = {"line": lines, "generator": generators, "substation": buses}[kind]
        if c.ref not in pool:
            raise ConfigError(f"{path}.ref: unknown {kind} {c.ref!r}")
        if kind == "substation" and not buses[c.ref].is_substation:
            raise ConfigError(f"{path}.ref: bus {c.ref!r} is not a substation")
        return c
    components = _section(document, "components", component)

    net = read_record(Network, document, "", buses=buses, lines=lines,
                      generators=generators, depots=depots,
                      components=components, profiles=profiles)

    report = validate_radiality(net)
    if report.cycles:
        raise ConfigError(f"non-radial topology: cycle through lines {list(report.cycles[0])}")
    if report.sourceless:
        raise ConfigError(
            f"buses {list(report.sourceless[0])} have no path to a substation or generator"
        )
    return net


def validate_radiality(net: Network) -> RadialityReport:
    """Check that the lines form a forest and every tree holds a source
    (substation bus or generator bus)."""
    parent = {b: b for b in net.buses}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cycles = []
    adj: dict[str, list[tuple[str, str]]] = {b: [] for b in net.buses}
    for lid, ln in net.lines.items():
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
    doc, sections = {}, {}
    for name in _fields(Network):
        value = getattr(net, name)
        if isinstance(value, dict):  # an id-keyed section, written as a list
            sections[name] = [record_document(rec) for rec in value.values()]
        else:
            doc[name] = value
    return {**doc, **sections}


def load_network_file(path: str) -> Network:
    return load_network(read_json(path))
