"""Scenario config documents: one walk that checks a document and builds its records.

A scenario is a single JSON object, and most of its sections are the
fields of a parameter record.  The allowed keys, their JSON types
(boolean, string choice, integer or number) and their bounds all come
from that record, the same declarations it checks when it is made.  A
``null`` value counts as absent, so the record's default applies, and
numbers must be finite.  The walk reports every violation at once, and
unknown keys anywhere are rejected so typos cannot silently disable a
setting.

Top-level keys::

    name, profile   str   (optional; profile names a built-in platform)
    seed, duration  SimConfig fields (required; seed in [0, 2**64))
    network    {"n", "edges": [{pre, post, level, <SynapseDefaults fields>}]} or {"er": {n, mean_degree}}
    link       OpticalLink, with receiver {kind: "snspd" | "photodiode", <receiver record>}
    neuron, synapse, energy   NeuronParams, SynapseDefaults, EnergyParams
    plasticity {kind: "off"} or {kind: "stdp", <StdpParams>}
    inputs     [InputDrive: neuron and exactly one of times | rate | count+interval]
    record     {detections}
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError, bound_problem, bounded, record_fields
from .linkbudget import OpticalLink, ReceiverlessPhotodiode, SnspdReceiver
from .netgen import NetworkGraph, generate_er
from .plasticity import StdpParams
from .platforms import PROFILES
from .simulator import EnergyParams, InputDrive, NeuronParams, SimConfig, SynapseDefaults

# Sections that are exactly the keyword arguments of one record.
_RECORDS = {"neuron": NeuronParams, "synapse": SynapseDefaults, "energy": EnergyParams}
_TOP_KEYS = {"name", "seed", "duration", "profile", "network", "link", "plasticity", "inputs", "record"}
_TOP_KEYS |= _RECORDS.keys()


@dataclass(frozen=True)
class _Network:
    """Declares the scalar keys of ``network`` (``n`` only) and of ``network.er``."""

    n: int = bounded(ge=1)
    mean_degree: float = bounded(gt=0)


@dataclass(frozen=True, kw_only=True)
class _Edge(SynapseDefaults):
    """Declares an entry of ``network.edges``: the synapse ``pre -> post`` and its overrides."""

    pre: int = bounded(ge=0)
    post: int = bounded(ge=0)
    level: int | None = bounded(None, ge=0)


def bundled_scenario_names() -> list[str]:
    root = resources.files("oesnn").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_name: str) -> dict:
    """Read a scenario document from a file path or a bundled name."""
    names = bundled_scenario_names()
    if path_or_name in names:
        text = (
            resources.files("oesnn").joinpath(f"scenarios/{path_or_name}.json").read_text("utf-8")
        )
    else:
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(
                [f"no such scenario file or bundled name: {path_or_name!r} (bundled: {', '.join(names)})"]
            ) from None
        except OSError as exc:  # a directory, no permission, a read failure
            raise ConfigError([f"{path_or_name}: cannot read scenario file: {exc.strerror or exc}"]) from None
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path_or_name}: not UTF-8 text: {exc.reason} at byte {exc.start}"]) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path_or_name}: not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"]
        ) from None


def validate_scenario(doc: dict) -> list[str]:
    """Return every schema violation in the document (empty = valid)."""
    return _read(doc)[0]


def build_scenario(doc: dict) -> tuple[NetworkGraph, SimConfig]:
    """Validate a document and construct the graph and engine config.

    Raises :class:`ConfigError` with exactly the problems
    :func:`validate_scenario` returns.
    """
    problems, network, config = _read(doc)
    if problems:
        raise ConfigError(problems)
    if "mean_degree" in network:
        return generate_er(network["n"], network["mean_degree"], config.seed), config
    pre, post = np.array(network["edges"], dtype=np.int64).reshape(-1, 2).T.copy()
    return NetworkGraph(n=network["n"], pre=pre, post=post, seed=config.seed), config


def _check_unknown(doc: dict, allowed, where: str, problems: list) -> None:
    problems.extend(f"{where}: unknown key {key!r}" for key in doc if key not in allowed)


def _object(value, where: str, problems: list) -> dict:
    """A section as a dict; ``null`` is absent, and anything else but an object is a problem read as empty."""
    if isinstance(value, dict):
        return value
    if value is not None:
        problems.append(f"{where}: expected an object")
    return {}


def _value(name: str, v, hint, bounds, problems: list):
    """``v`` checked against a field's JSON type and bounds and converted; None after a problem."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None: null never gets here
        (hint,) = (a for a in args if a is not type(None))
    if typing.get_origin(hint) is tuple:  # tuple[float, ...]
        if not isinstance(v, list):
            problems.append(f"{name}: expected a list of numbers")
            return None
        items = [_value(f"{name}[{i}]", x, float, bounds, problems) for i, x in enumerate(v)]
        return None if None in items else tuple(items)
    if hint is bool:
        problem = None if isinstance(v, bool) else f"{name}: expected a boolean"
    elif typing.get_origin(hint) is typing.Literal:
        problem = bound_problem(name, v, hint, bounds)
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        problem = f"{name}: expected a number, got {v!r}"
    elif not abs(v) <= sys.float_info.max:  # inf, nan, or an integer beyond the float range
        problem = f"{name}: expected a finite number, got {v!r}"
    elif hint is int and not float(v).is_integer():
        problem = f"{name}: expected an integer, got {v!r}"
    else:
        problem = bound_problem(name, v, hint, bounds)
    if problem:
        problems.append(problem)
        return None
    return int(v) if hint is int else float(v) if hint is float else v


def _fields(cls, doc: dict, where: str, problems: list, names=None) -> dict:
    """Check ``doc`` against the fields of record ``cls``; return the values it sets.

    With ``names``, only those fields are read and the caller checks the
    document's keys.
    """
    specs = record_fields(cls)
    if names is None:
        _check_unknown(doc, specs, where, problems)
    values = {}
    for name in names or specs:
        f, hint = specs[name]
        if doc.get(name) is None:
            if f.default is MISSING and f.default_factory is MISSING:
                problems.append(f"{where}: missing required key {name!r}")
            continue
        value = _value(f"{where}.{name}", doc[name], hint, f.metadata, problems)
        if value is not None:
            values[name] = value
    return values


def _record(cls, doc: dict, where: str, problems: list, **given):
    """Record ``cls`` built from a checked section and ``given``; None after a problem.

    The record's own cross-field rules become problems too.
    """
    before = len(problems)
    values = _fields(cls, doc, where, problems)
    if len(problems) > before:
        return None
    try:
        return cls(**values, **given)
    except DomainError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _kind(doc: dict, where: str, kinds: dict, problems: list):
    """A section whose ``kind`` picks its record from ``kinds``; the first kind is the default."""
    kind = doc.get("kind")
    kind = next(iter(kinds)) if kind is None else kind
    fields = {k: v for k, v in doc.items() if k != "kind"}
    if not (isinstance(kind, str) and kind in kinds):
        problems.append(f"{where}.kind: must be {' or '.join(map(repr, kinds))}, got {kind!r}")
    elif kinds[kind] is None:
        _check_unknown(fields, (), where, problems)
    else:
        return _record(kinds[kind], fields, where, problems)
    return None


def _network(net, default_bits: int | None, problems: list) -> tuple[dict, dict]:
    """``network``: its checked keys, with the edge list as (pre, post) pairs, and the edge overrides."""
    if not isinstance(net, dict):
        problems.append("scenario.network: required object is missing")
        return {}, {}
    if "er" in net:
        _check_unknown(net, {"er"}, "network", problems)
        if not isinstance(net["er"], dict):
            problems.append("network.er: expected an object")
            return {}, {}
        er = _fields(_Network, net["er"], "network.er", problems)
        if er.get("mean_degree", 0) > er.get("n", math.inf) - 1:
            problems.append("network.er.mean_degree: must be at most n - 1")
        return er, {}
    _check_unknown(net, {"n", "edges"}, "network", problems)
    network = _fields(_Network, net, "network", problems, names=("n",))
    n = network.get("n")
    edges = net.get("edges")
    if not isinstance(edges, list):
        problems.append("network.edges: required list is missing")
        return network, {}
    pairs, first_index, overrides = [], {}, {}
    for i, edge in enumerate(edges):
        where = f"network.edges[{i}]"
        if not isinstance(edge, dict):
            problems.append(f"{where}: expected an object")
            continue
        values = _fields(_Edge, edge, where, problems)
        pre, post = values.pop("pre", None), values.pop("post", None)
        for label, v in (("pre", pre), ("post", post)):
            if v is not None and n is not None and v >= n:
                problems.append(f"{where}.{label}: node {v} out of range [0, {n})")
        if pre is not None and post is not None:
            if pre == post:
                problems.append(f"{where}: self-loop {pre}->{post} not allowed")
            # Overrides are keyed by (pre, post), so a twin would silently share them.
            j = first_index.setdefault((pre, post), i)
            if j != i:
                problems.append(f"{where}: duplicate edge {pre}->{post}, first at edges[{j}]")
        # Bits the edge rejected, or a synapse default it rejected, leave the level unchecked.
        bits = default_bits if edge.get("bits") is None else values.get("bits")
        if "level" in values and bits is not None and values["level"] >= 2**bits:
            problems.append(f"{where}.level: {values['level']} exceeds the {bits}-bit range")
        pairs.append((pre, post))
        if values:
            overrides[(pre, post)] = values
    network["edges"] = pairs
    return network, overrides


def _read(doc) -> tuple[list[str], dict | None, SimConfig | None]:
    """Walk a document once: every problem, and when there are none the network keys and the config."""
    if not isinstance(doc, dict):
        return ["scenario must be a JSON object"], None, None
    problems: list[str] = []
    _check_unknown(doc, _TOP_KEYS, "scenario", problems)
    parts = _fields(SimConfig, doc, "scenario", problems, names=("seed", "duration"))
    profile = doc.get("profile")
    profile = "superconducting-4K" if profile is None else profile
    if not isinstance(profile, str) or profile not in PROFILES:
        problems.append(f"scenario.profile: unknown profile {profile!r}; known: {', '.join(PROFILES)}")
    else:
        parts["profile"] = PROFILES[profile]
    for key, cls in _RECORDS.items():
        parts[key] = _record(cls, _object(doc.get(key), f"scenario.{key}", problems), key, problems)
    default_bits = parts["synapse"].bits if parts["synapse"] else None
    network, parts["synapse_overrides"] = _network(doc.get("network"), default_bits, problems)
    link = _object(doc.get("link"), "scenario.link", problems)
    receivers = {"snspd": SnspdReceiver, "photodiode": ReceiverlessPhotodiode}
    receiver_doc = _object(link.get("receiver"), "link.receiver", problems)
    receiver = _kind(receiver_doc, "link.receiver", receivers, problems)
    if isinstance(receiver, SnspdReceiver) and link.get("n_ph") is None:
        problems.append("link.n_ph: required for single-photon-detector links")
    fields = {k: v for k, v in link.items() if k != "receiver"}
    parts["link"] = receiver and _record(OpticalLink, fields, "link", problems, receiver=receiver)
    plasticity = _object(doc.get("plasticity"), "scenario.plasticity", problems)
    parts["plasticity"] = _kind(plasticity, "plasticity", {"off": None, "stdp": StdpParams}, problems)
    drives = doc.get("inputs")
    if drives is not None and not isinstance(drives, list):
        problems.append("scenario.inputs: expected a list")
    inputs = []
    for i, drive in enumerate(drives if isinstance(drives, list) else []):
        where, n = f"inputs[{i}]", network.get("n")
        if not isinstance(drive, dict):
            problems.append(f"{where}: expected an object")
            continue
        inputs.append(_record(InputDrive, drive, where, problems))
        if inputs[-1] and n is not None and inputs[-1].neuron >= n:
            problems.append(f"{where}.neuron: node {inputs[-1].neuron} out of range [0, {n})")
    parts["inputs"] = tuple(inputs)
    record = _object(doc.get("record"), "scenario.record", problems)
    _check_unknown(record, {"detections"}, "record", problems)
    if record.get("detections") is not None:
        parts["record_detections"] = _value("record.detections", record["detections"], bool, {}, problems)
    if problems:
        return problems, None, None
    return [], network, SimConfig(**parts)
