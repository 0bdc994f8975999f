"""Scenario config documents: JSON schema, validation, and object building.

A scenario is a single JSON object.  Validation walks the whole document
and reports every violation at once; unknown keys anywhere are rejected so
typos cannot silently disable a setting.

Top-level keys::

    name       str   (optional)
    seed       int   (required)
    duration   float (required, seconds)
    profile    str   (optional, built-in platform profile name)
    network    {"n", "edges": [{pre, post, ...}]} or {"er": {n, mean_degree}}
    link       {wavelength, eta, n_ph, stochastic, receiver: {kind, ...}}
    neuron     {threshold, refractory, transmit_delay, tau_soma}
    synapse    {tau, weight, inhibitory, memory_kind, bits, write_noise_std, endurance}
    plasticity {kind: "off"} or {kind: "stdp", a_plus, a_minus, tau_plus,
                tau_minus, on_exhaustion, write_energy}
    inputs     [{neuron, times | rate | count+interval(+start)}]
    energy     {i_c, max_fluxons, per_spike_overhead}
    record     {detections}
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError
from .linkbudget import OpticalLink, ReceiverlessPhotodiode, SnspdReceiver
from .netgen import NetworkGraph, generate_er
from .plasticity import StdpParams
from .platforms import PROFILES
from .simulator import EnergyParams, InputDrive, NeuronParams, SimConfig, SynapseDefaults

_TOP_KEYS = {
    "name",
    "seed",
    "duration",
    "profile",
    "network",
    "link",
    "neuron",
    "synapse",
    "plasticity",
    "inputs",
    "energy",
    "record",
}
_EDGE_KEYS = {"pre", "post", "weight", "tau", "inhibitory", "memory_kind", "bits", "level", "write_noise_std", "endurance"}
_LINK_KEYS = {"wavelength", "eta", "n_ph", "stochastic", "receiver"}
_SNSPD_KEYS = {"kind", "eta_d", "l_spd", "i_spd", "max_count_rate", "reset_time"}
_PD_KEYS = {"kind", "c_tot", "v_swing", "responsivity", "i_leak", "v_bias"}
_NEURON_KEYS = {"threshold", "refractory", "transmit_delay", "tau_soma"}
_SYNAPSE_KEYS = {"tau", "weight", "inhibitory", "memory_kind", "bits", "write_noise_std", "endurance"}
_STDP_KEYS = {"kind", "a_plus", "a_minus", "tau_plus", "tau_minus", "on_exhaustion", "write_energy"}
_INPUT_KEYS = {"neuron", "times", "rate", "count", "interval", "start"}
_ENERGY_KEYS = {"i_c", "max_fluxons", "per_spike_overhead"}
_RECORD_KEYS = {"detections"}


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
    return json.loads(text)


def _check_unknown(doc: dict, allowed: set, where: str, problems: list) -> None:
    for key in set(doc) - allowed:
        problems.append(f"{where}: unknown key {key!r}")


def _number(
    doc, key, where, problems, required=False, minimum=None, maximum=None, exclusive=False, integer=False
):
    if key not in doc or doc[key] is None:
        if required:
            problems.append(f"{where}: missing required key {key!r}")
        return None
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        problems.append(f"{where}.{key}: expected a number, got {v!r}")
        return None
    if integer and not float(v).is_integer():
        problems.append(f"{where}.{key}: expected an integer, got {v!r}")
        return None
    if minimum is not None:
        if exclusive and not v > minimum:
            problems.append(f"{where}.{key}: must be > {minimum}, got {v}")
            return None
        if not exclusive and not v >= minimum:
            problems.append(f"{where}.{key}: must be >= {minimum}, got {v}")
            return None
    if maximum is not None and v > maximum:
        problems.append(f"{where}.{key}: must be <= {maximum}, got {v}")
        return None
    return int(v) if integer else float(v)


def validate_scenario(doc: dict) -> list[str]:
    """Return every schema violation in the document (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["scenario must be a JSON object"]
    _check_unknown(doc, _TOP_KEYS, "scenario", problems)
    _number(doc, "seed", "scenario", problems, required=True, integer=True)
    _number(doc, "duration", "scenario", problems, required=True, minimum=0, exclusive=True)

    profile = doc.get("profile", "superconducting-4K")
    if not isinstance(profile, str) or profile not in PROFILES:
        problems.append(f"scenario.profile: unknown profile {profile!r}; known: {', '.join(PROFILES)}")

    net = doc.get("network")
    n_nodes = None
    if not isinstance(net, dict):
        problems.append("scenario.network: required object is missing")
    else:
        if "er" in net:
            _check_unknown(net, {"er"}, "network", problems)
            er = net["er"]
            if not isinstance(er, dict):
                problems.append("network.er: expected an object")
            else:
                _check_unknown(er, {"n", "mean_degree"}, "network.er", problems)
                n_nodes = _number(er, "n", "network.er", problems, required=True, minimum=2, integer=True)
                k = _number(er, "mean_degree", "network.er", problems, required=True, minimum=0, exclusive=True)
                if n_nodes and k and k > n_nodes - 1:
                    problems.append("network.er.mean_degree: must be at most n - 1")
        else:
            _check_unknown(net, {"n", "edges"}, "network", problems)
            n_nodes = _number(net, "n", "network", problems, required=True, minimum=1, integer=True)
            edges = net.get("edges")
            synapse_doc = doc.get("synapse") if isinstance(doc.get("synapse"), dict) else {}
            default_bits = synapse_doc.get("bits", 10)
            if not isinstance(edges, list):
                problems.append("network.edges: required list is missing")
            else:
                first_index: dict[tuple[int, int], int] = {}
                for i, edge in enumerate(edges):
                    where = f"network.edges[{i}]"
                    if not isinstance(edge, dict):
                        problems.append(f"{where}: expected an object")
                        continue
                    _check_unknown(edge, _EDGE_KEYS, where, problems)
                    pre = _number(edge, "pre", where, problems, required=True, minimum=0, integer=True)
                    post = _number(edge, "post", where, problems, required=True, minimum=0, integer=True)
                    if n_nodes is not None:
                        for label, v in (("pre", pre), ("post", post)):
                            if v is not None and v >= n_nodes:
                                problems.append(f"{where}.{label}: node {v} out of range [0, {n_nodes})")
                    if pre is not None and post is not None and pre == post:
                        problems.append(f"{where}: self-loop {pre}->{post} not allowed")
                    # Overrides are keyed by (pre, post), so a twin would silently share them.
                    if pre is not None and post is not None:
                        j = first_index.setdefault((pre, post), i)
                        if j != i:
                            problems.append(f"{where}: duplicate edge {pre}->{post}, first at edges[{j}]")
                    _number(edge, "weight", where, problems, minimum=0, maximum=1)
                    _number(edge, "tau", where, problems, minimum=0, exclusive=True)
                    bits = _number(edge, "bits", where, problems, minimum=1, maximum=10, integer=True)
                    level = _number(edge, "level", where, problems, minimum=0, integer=True)
                    if level is not None:
                        effective_bits = bits if bits is not None else default_bits
                        if isinstance(effective_bits, int) and level >= 2**effective_bits:
                            problems.append(
                                f"{where}.level: {level} exceeds the {effective_bits}-bit range"
                            )
                    mk = edge.get("memory_kind")
                    if mk is not None and mk not in ("analog", "loop"):
                        problems.append(f"{where}.memory_kind: must be 'analog' or 'loop'")

    link = doc.get("link", {})
    if not isinstance(link, dict):
        problems.append("scenario.link: expected an object")
    else:
        _check_unknown(link, _LINK_KEYS, "link", problems)
        _number(link, "wavelength", "link", problems, minimum=0, exclusive=True)
        _number(link, "eta", "link", problems, minimum=0, maximum=1, exclusive=True)
        n_ph = _number(link, "n_ph", "link", problems, minimum=0)
        if "stochastic" in link and not isinstance(link["stochastic"], bool):
            problems.append("link.stochastic: expected a boolean")
        receiver_kind = (link.get("receiver") or {}).get("kind", "snspd") if isinstance(
            link.get("receiver", {}), dict
        ) else "snspd"
        if receiver_kind == "snspd" and n_ph is None:
            problems.append("link.n_ph: required for single-photon-detector links")
        receiver = link.get("receiver", {})
        if not isinstance(receiver, dict):
            problems.append("link.receiver: expected an object")
        else:
            kind = receiver.get("kind", "snspd")
            if kind == "snspd":
                _check_unknown(receiver, _SNSPD_KEYS, "link.receiver", problems)
                _number(receiver, "eta_d", "link.receiver", problems, minimum=0, maximum=1, exclusive=True)
                _number(receiver, "l_spd", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "i_spd", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "max_count_rate", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "reset_time", "link.receiver", problems, minimum=0)
            elif kind == "photodiode":
                _check_unknown(receiver, _PD_KEYS, "link.receiver", problems)
                _number(receiver, "c_tot", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "v_swing", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "responsivity", "link.receiver", problems, minimum=0, exclusive=True)
                _number(receiver, "i_leak", "link.receiver", problems, minimum=0)
                _number(receiver, "v_bias", "link.receiver", problems, minimum=0, exclusive=True)
            else:
                problems.append(f"link.receiver.kind: must be 'snspd' or 'photodiode', got {kind!r}")

    neuron = doc.get("neuron", {})
    if not isinstance(neuron, dict):
        problems.append("scenario.neuron: expected an object")
    else:
        _check_unknown(neuron, _NEURON_KEYS, "neuron", problems)
        _number(neuron, "threshold", "neuron", problems, minimum=0, exclusive=True)
        _number(neuron, "refractory", "neuron", problems, minimum=0)
        _number(neuron, "transmit_delay", "neuron", problems, minimum=0)
        _number(neuron, "tau_soma", "neuron", problems, minimum=0, exclusive=True)

    synapse = doc.get("synapse", {})
    if not isinstance(synapse, dict):
        problems.append("scenario.synapse: expected an object")
    else:
        _check_unknown(synapse, _SYNAPSE_KEYS, "synapse", problems)
        _number(synapse, "tau", "synapse", problems, minimum=0, exclusive=True)
        _number(synapse, "weight", "synapse", problems, minimum=0, maximum=1)
        _number(synapse, "bits", "synapse", problems, minimum=1, integer=True)
        _number(synapse, "write_noise_std", "synapse", problems, minimum=0)
        _number(synapse, "endurance", "synapse", problems, minimum=0, exclusive=True)
        mk = synapse.get("memory_kind")
        if mk is not None and mk not in ("analog", "loop"):
            problems.append("synapse.memory_kind: must be 'analog' or 'loop'")

    plasticity = doc.get("plasticity", {"kind": "off"})
    if not isinstance(plasticity, dict):
        problems.append("scenario.plasticity: expected an object")
    else:
        kind = plasticity.get("kind", "off")
        if kind == "off":
            _check_unknown(plasticity, {"kind"}, "plasticity", problems)
        elif kind == "stdp":
            _check_unknown(plasticity, _STDP_KEYS, "plasticity", problems)
            _number(plasticity, "a_plus", "plasticity", problems, minimum=0)
            _number(plasticity, "a_minus", "plasticity", problems, minimum=0)
            _number(plasticity, "tau_plus", "plasticity", problems, minimum=0, exclusive=True)
            _number(plasticity, "tau_minus", "plasticity", problems, minimum=0, exclusive=True)
            _number(plasticity, "write_energy", "plasticity", problems, minimum=0)
            oe = plasticity.get("on_exhaustion")
            if oe is not None and oe not in ("freeze", "fault"):
                problems.append("plasticity.on_exhaustion: must be 'freeze' or 'fault'")
        else:
            problems.append(f"plasticity.kind: must be 'off' or 'stdp', got {kind!r}")

    inputs = doc.get("inputs", [])
    if not isinstance(inputs, list):
        problems.append("scenario.inputs: expected a list")
    else:
        for i, drive in enumerate(inputs):
            where = f"inputs[{i}]"
            if not isinstance(drive, dict):
                problems.append(f"{where}: expected an object")
                continue
            _check_unknown(drive, _INPUT_KEYS, where, problems)
            neuron_id = _number(drive, "neuron", where, problems, required=True, minimum=0, integer=True)
            if neuron_id is not None and n_nodes is not None and neuron_id >= n_nodes:
                problems.append(f"{where}.neuron: node {neuron_id} out of range [0, {n_nodes})")
            modes = [k for k in ("times", "rate", "count") if drive.get(k) is not None]
            if len(modes) != 1:
                problems.append(f"{where}: exactly one of times / rate / count is required")
            if drive.get("times") is not None:
                times = drive["times"]
                if not isinstance(times, list) or not all(
                    isinstance(t, (int, float)) and not isinstance(t, bool) and t >= 0 for t in times
                ):
                    problems.append(f"{where}.times: expected a list of non-negative numbers")
            _number(drive, "rate", where, problems, minimum=0)
            _number(drive, "count", where, problems, minimum=0, integer=True)
            if drive.get("count") is not None:
                _number(drive, "interval", where, problems, required=True, minimum=0, exclusive=True)
            _number(drive, "start", where, problems, minimum=0)

    energy = doc.get("energy", {})
    if not isinstance(energy, dict):
        problems.append("scenario.energy: expected an object")
    else:
        _check_unknown(energy, _ENERGY_KEYS, "energy", problems)
        _number(energy, "i_c", "energy", problems, minimum=0, exclusive=True)
        _number(energy, "max_fluxons", "energy", problems, minimum=0, integer=True)
        _number(energy, "per_spike_overhead", "energy", problems, minimum=0)

    record = doc.get("record", {})
    if not isinstance(record, dict):
        problems.append("scenario.record: expected an object")
    else:
        _check_unknown(record, _RECORD_KEYS, "record", problems)
        if "detections" in record and not isinstance(record["detections"], bool):
            problems.append("record.detections: expected a boolean")

    return problems


def build_scenario(doc: dict) -> tuple[NetworkGraph, SimConfig]:
    """Validate a document and construct the graph and engine config.

    Constraints the schema walk cannot express (cross-field invariants of
    the parameter records) surface as :class:`ConfigError` too.
    """
    problems = validate_scenario(doc)
    if problems:
        raise ConfigError(problems)
    try:
        return _build_validated(doc)
    except DomainError as exc:
        raise ConfigError([str(exc)]) from exc


def _build_validated(doc: dict) -> tuple[NetworkGraph, SimConfig]:
    seed = int(doc["seed"])
    net = doc["network"]
    if "er" in net:
        graph = generate_er(int(net["er"]["n"]), float(net["er"]["mean_degree"]), seed)
        overrides = {}
    else:
        edges = net["edges"]
        pre = np.array([int(e["pre"]) for e in edges], dtype=np.int64)
        post = np.array([int(e["post"]) for e in edges], dtype=np.int64)
        graph = NetworkGraph(n=int(net["n"]), pre=pre, post=post, seed=seed)
        overrides = {}
        for e in edges:
            fields = {k: v for k, v in e.items() if k not in ("pre", "post") and v is not None}
            if fields:
                overrides[(int(e["pre"]), int(e["post"]))] = fields

    link_doc = doc.get("link", {})
    receiver_doc = dict(link_doc.get("receiver", {}))
    kind = receiver_doc.pop("kind", "snspd")
    if kind == "snspd":
        receiver = SnspdReceiver(**receiver_doc)
    else:
        receiver = ReceiverlessPhotodiode(**receiver_doc)
    link_kwargs = {k: v for k, v in link_doc.items() if k != "receiver"}
    link = OpticalLink(receiver=receiver, **link_kwargs)

    neuron = NeuronParams(**doc.get("neuron", {}))
    syn_doc = dict(doc.get("synapse", {}))
    if syn_doc.get("endurance") is None:
        syn_doc.pop("endurance", None)
    synapse = SynapseDefaults(**syn_doc)

    plast_doc = dict(doc.get("plasticity", {"kind": "off"}))
    plasticity = None
    if plast_doc.get("kind", "off") == "stdp":
        plast_doc.pop("kind")
        plasticity = StdpParams(**plast_doc)

    inputs = []
    for drive in doc.get("inputs", []):
        kwargs = dict(drive)
        if "times" in kwargs and kwargs["times"] is not None:
            kwargs["times"] = tuple(float(t) for t in kwargs["times"])
        inputs.append(InputDrive(**{k: v for k, v in kwargs.items() if v is not None}))

    energy_doc = {k: v for k, v in doc.get("energy", {}).items() if v is not None}
    energy = EnergyParams(**energy_doc)

    config = SimConfig(
        duration=float(doc["duration"]),
        seed=seed,
        link=link,
        profile=PROFILES[doc.get("profile", "superconducting-4K")],
        neuron=neuron,
        synapse=synapse,
        synapse_overrides=overrides,
        plasticity=plasticity,
        inputs=tuple(inputs),
        energy=energy,
        record_detections=bool(doc.get("record", {}).get("detections", False)),
    )
    return graph, config
