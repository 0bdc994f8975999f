"""Command-line interface: single-formula evaluation, figure datasets,
simulation runs, path-formula validation, and memory benchmarking.

Verbs::

    calc FORMULA --param value ...   evaluate one closed-form model
    figure ID [--set key=value ...]  write one bundled figure dataset
    simulate --config PATH|NAME      run a scenario, write spikes + ledger
    validate-eq6 --n N --k K         empirical check of the degree/path model
    membench [--tech FILE]           score memory technologies

Exit codes: 0 success, 2 usage error (such as a ``calc`` parameter that
is not a finite number, or an output path that cannot be written), 3 an
invalid scenario document or technology table, 4 simulation error (for
example an exceeded event budget).  The default output directory is
$OESNN_OUT or ./out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_scenario, load_scenario
from .datasets import Dataset
from .errors import ConfigError, DomainError, SimulationError
from .figures import FIGURES, build_figure
from .linkbudget import (
    DEFAULT_WAVELENGTH,
    OpticalLink,
    ReceiverlessPhotodiode,
    SnspdReceiver,
    implied_photon_count,
    link_source_energy,
    miss_probability,
    photodiode_static_power,
    photons_for_reliability,
    receiverless_optical_energy,
    snspd_reset_energy,
    static_dominance_frequency,
    transmitter_power,
)
from .membench import (
    DEFAULT_ASSUMPTIONS,
    SystemAssumptions,
    lifetime_updates,
    load_technologies,
    max_update_energy,
    score_technology,
    targets,
)
from .netgen import validate_path_model
from .platforms import (
    PROFILES,
    SUPERCONDUCTING_4K,
    carnot_specific_power,
    cmos_max_time_constant,
    dpi_time_constant,
    fluxon_budget,
    max_average_spike_rate,
    power_density_spike_limit,
    sc_max_time_constant,
    squid_from_critical_current,
    wall_power,
    CMOS_TIME_CONSTANT_DEFAULTS,
    SC_TIME_CONSTANT_DEFAULTS,
    CmosTimeConstantSpec,
    ScTimeConstantSpec,
)
from .quantities import Quantity
from .scaling import SYNAPSE_WIDTH, WAFER_DIAMETER, WAVEGUIDE_PITCH
from .scaling import achievable_path_length, electronic_area, photonic_area, required_degree, required_planes
from .simulator import EnergyParams, SynapseReport, power_report, run

USAGE_EXIT = 2
VALIDATION_EXIT = 3
SIMULATION_EXIT = 4


class UsageError(Exception):
    pass


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("OESNN_OUT", "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dumps(doc: dict, problem: str) -> str:
    """``doc`` as indented JSON.  JSON holds no inf or nan, so a value out of float range is a usage error."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise UsageError(problem) from None


# ---------------------------------------------------------------------------
# calc


@dataclass(frozen=True)
class Formula:
    summary: str
    params: dict[str, tuple[float | None, str]]  # name -> (default or None=required, help)
    compute: callable


_PHOTODIODE, _SNSPD, _ENERGY = ReceiverlessPhotodiode(), SnspdReceiver(), EnergyParams()  # fields give defaults

FORMULAS: dict[str, Formula] = {
    "eq1": Formula(
        "single-photon receiver miss probability exp(-nph*etad)",
        {"nph": (None, "mean photons at the receiver"), "etad": (None, "detection efficiency")},
        lambda p: {"miss_probability": miss_probability(p["nph"], p["etad"])},
    ),
    "photons": Formula(
        "mean photons needed for a detection reliability",
        {"p": (None, "required detection probability"), "etad": (None, "detection efficiency")},
        lambda p: {"photons": photons_for_reliability(p["p"], p["etad"])},
    ),
    "eq2": Formula(
        "per-spike source optical energy nph*h*nu/eta",
        {
            "nph": (None, "mean photons at the receiver"),
            "wavelength": (DEFAULT_WAVELENGTH, "wavelength in metres"),
            "eta": (1.0, "end-to-end link efficiency"),
        },
        lambda p: {"source_energy": link_source_energy(p["nph"], p["wavelength"], p["eta"])},
    ),
    "eq3": Formula(
        "receiverless photodiode per-spike source energy C*V/(eta*R)",
        {
            "ctot": (_PHOTODIODE.c_tot, "total capacitance in farads"),
            "v": (_PHOTODIODE.v_swing, "switching voltage"),
            "eta": (1.0, "end-to-end link efficiency"),
            "wavelength": (DEFAULT_WAVELENGTH, "wavelength in metres"),
            "responsivity": (0.0, "A/W; 0 uses the quantum-limited value"),
        },
        lambda p: (
            lambda pd: {
                "source_energy": receiverless_optical_energy(pd, p["eta"], p["wavelength"]),
                "photons_at_receiver": implied_photon_count(pd, p["wavelength"]),
            }
        )(ReceiverlessPhotodiode(c_tot=p["ctot"], v_swing=p["v"], responsivity=p["responsivity"] or None)),
    ),
    "reset-energy": Formula(
        "nanowire detector reset energy L*I^2/2",
        {"l": (_SNSPD.l_spd, "kinetic inductance in henries"), "i": (_SNSPD.i_spd, "bias current in amperes")},
        lambda p: {"reset_energy": snspd_reset_energy(p["l"], p["i"])},
    ),
    "static-power": Formula(
        "photodiode static dissipation V_bias*I_leak",
        {"vbias": (_PHOTODIODE.v_bias, "bias voltage"), "ileak": (_PHOTODIODE.i_leak, "leakage current in amperes")},
        lambda p: {
            "static_power": photodiode_static_power(ReceiverlessPhotodiode(v_bias=p["vbias"], i_leak=p["ileak"]))
        },
    ),
    "static-crossover": Formula(
        "spike rate below which photodiode leakage dominates the link energy",
        {
            "vbias": (_PHOTODIODE.v_bias, "bias voltage"),
            "ileak": (_PHOTODIODE.i_leak, "leakage current in amperes"),
            "ctot": (_PHOTODIODE.c_tot, "total capacitance in farads"),
            "v": (_PHOTODIODE.v_swing, "switching voltage"),
            "eta": (0.01, "end-to-end link efficiency"),
            "wavelength": (DEFAULT_WAVELENGTH, "wavelength in metres"),
        },
        lambda p: (
            lambda pd: {
                "crossover_rate": static_dominance_frequency(
                    pd, OpticalLink(wavelength=p["wavelength"], eta=p["eta"], receiver=pd)
                )
            }
        )(ReceiverlessPhotodiode(c_tot=p["ctot"], v_swing=p["v"], v_bias=p["vbias"], i_leak=p["ileak"])),
    ),
    "tx-power": Formula(
        "transmitter optical power fanout*E_receiver*rate/eta",
        {
            "fanout": (1000.0, "downstream synapses"),
            "energy": (None, "per-synapse receiver energy in joules"),
            "rate": (None, "spike rate in hertz"),
            "eta": (1.0, "end-to-end link efficiency"),
        },
        lambda p: {"optical_power": transmitter_power(p["fanout"], p["energy"], p["rate"], p["eta"])},
    ),
    "eq4": Formula(
        "lifetime weight updates L*f/sqrt(N)",
        {
            "lifetime": (DEFAULT_ASSUMPTIONS.lifetime, "system lifetime in seconds"),
            "rate": (DEFAULT_ASSUMPTIONS.mean_rate, "mean spike rate in hertz"),
            "fanin": (DEFAULT_ASSUMPTIONS.fanin, "synapses per neuron"),
        },
        lambda p: {
            "lifetime_updates": lifetime_updates(
                SystemAssumptions(lifetime=p["lifetime"], mean_rate=p["rate"], fanin=p["fanin"])
            )
        },
    ),
    "eq5": Formula(
        "largest per-write energy sqrt(N)*E_opt",
        {
            "fanin": (DEFAULT_ASSUMPTIONS.fanin, "synapses per neuron"),
            "eopt": (DEFAULT_ASSUMPTIONS.e_opt, "per-spike optical energy in joules"),
        },
        lambda p: {"max_update_energy": max_update_energy(SystemAssumptions(fanin=p["fanin"], e_opt=p["eopt"]))},
    ),
    "eq6": Formula(
        "mean degree for a target path length",
        {"n": (None, "network size"), "L": (None, "target mean path length")},
        lambda p: {"degree": required_degree(p["n"], p["L"])},
    ),
    "path-length": Formula(
        "mean path length at a given degree",
        {"n": (None, "network size"), "k": (None, "mean degree")},
        lambda p: {"path_length": achievable_path_length(p["n"], p["k"])},
    ),
    "eq7": Formula(
        "per-neuron waveguide routing area (k*w_wg/p_p)^2",
        {"k": (None, "degree"), "wwg": (WAVEGUIDE_PITCH, "waveguide pitch in metres"), "pp": (1.0, "photonic planes")},
        lambda p: {"photonic_area": photonic_area(p["k"], p["wwg"], p["pp"])},
    ),
    "eq8": Formula(
        "per-neuron synapse circuit area k*w_sy^2/p_e",
        {"k": (None, "degree"), "wsy": (SYNAPSE_WIDTH, "synapse width in metres"), "pe": (1.0, "electronic planes")},
        lambda p: {"electronic_area": electronic_area(p["k"], p["wsy"], p["pe"])},
    ),
    "planes": Formula(
        "photonic/electronic plane counts for a wafer population",
        {
            "n": (None, "neurons per wafer"),
            "L": (2.5, "target mean path length"),
            "wwg": (WAVEGUIDE_PITCH, "waveguide pitch in metres"),
            "wsy": (SYNAPSE_WIDTH, "synapse width in metres"),
            "d": (WAFER_DIAMETER, "wafer diameter in metres"),
            "fill": (1.0, "usable area fraction"),
        },
        lambda p: (
            lambda req: {"degree": req.degree, "p_p": req.p_p, "p_e": req.p_e}
        )(required_planes(p["n"], p["L"], p["wwg"], p["wsy"], p["d"], p["fill"])),
    ),
    "squid": Formula(
        "interference-loop size and two-fluxon energy from junction current",
        {"ic": (_ENERGY.i_c, "junction critical current in amperes")},
        lambda p: (lambda s: {"w_sq": s.w_sq, "e_sq": s.e_sq, "l_sq": s.l_sq})(squid_from_critical_current(p["ic"])),
    ),
    "fluxons": Formula(
        "fluxons producible per synapse event inside an energy budget",
        {"ebudget": (100e-18, "energy budget in joules"), "ic": (_ENERGY.i_c, "junction critical current")},
        lambda p: {"fluxons": fluxon_budget(p["ebudget"], p["ic"])},
    ),
    "carnot": Formula(
        "thermodynamic refrigeration floor (T_hot-T_cold)/T_cold",
        {
            "thot": (SUPERCONDUCTING_4K.t_hot, "ambient temperature in kelvin"),
            "tcold": (SUPERCONDUCTING_4K.t_cold, "cold-stage temperature in kelvin"),
        },
        lambda p: {"specific_power": carnot_specific_power(p["thot"], p["tcold"])},
    ),
    "wall": Formula(
        "wall power (or energy) for a cold dissipation",
        {
            "cold": (None, "cold-stage power in watts"),
            "specific": (SUPERCONDUCTING_4K.specific_power, "refrigeration W per W"),
        },
        lambda p: {"wall_power": wall_power(p["cold"], p["specific"])},
    ),
    "max-rate": Formula(
        "budget-limited mean spike rate P/(N*fanout*E)",
        {
            "budget": (10e6, "wall power budget in watts"),
            "n": (None, "neuron count"),
            "fanout": (1000.0, "synapses per neuron"),
            "e": (None, "wall energy per synapse event in joules"),
        },
        lambda p: {"max_rate": max_average_spike_rate(p["budget"], p["n"], p["fanout"], p["e"])},
    ),
    "density-rate": Formula(
        "spike rate at the areal heat-removal ceiling",
        {
            "wsy": (None, "synapse width in metres"),
            "e": (None, "on-chip energy per synapse event in joules"),
            "limit": (SUPERCONDUCTING_4K.power_density_limit, "power density limit in W/m^2"),
        },
        lambda p: {"rate_limit": power_density_spike_limit(p["wsy"], p["e"], p["limit"])},
    ),
    "tau-dpi": Formula(
        "leaky-integrator time constant C*V_th/(kappa*I_tau)",
        {
            "c": (None, "capacitance in farads"),
            "vth": (CMOS_TIME_CONSTANT_DEFAULTS.v_th, "thermal voltage"),
            "kappa": (CMOS_TIME_CONSTANT_DEFAULTS.kappa, "subthreshold slope factor"),
            "itau": (CMOS_TIME_CONSTANT_DEFAULTS.i_tau, "leak current in amperes"),
        },
        lambda p: {"tau": dpi_time_constant(p["c"], p["vth"], p["kappa"], p["itau"])},
    ),
    "tau-cmos": Formula(
        "largest CMOS time constant in a synapse footprint",
        {
            "w": (None, "synapse width in metres"),
            "cdensity": (CMOS_TIME_CONSTANT_DEFAULTS.c_density, "capacitor density in F/m^2"),
            "vth": (CMOS_TIME_CONSTANT_DEFAULTS.v_th, "thermal voltage"),
            "kappa": (CMOS_TIME_CONSTANT_DEFAULTS.kappa, "subthreshold slope factor"),
            "itau": (CMOS_TIME_CONSTANT_DEFAULTS.i_tau, "leak current in amperes"),
        },
        lambda p: {
            "tau": cmos_max_time_constant(
                p["w"], CmosTimeConstantSpec(c_density=p["cdensity"], v_th=p["vth"], kappa=p["kappa"], i_tau=p["itau"])
            )
        },
    ),
    "tau-sc": Formula(
        "largest superconducting L/r time constant in a synapse footprint",
        {
            "w": (None, "synapse width in metres"),
            "lsq": (SC_TIME_CONSTANT_DEFAULTS.l_square, "inductance per square in henries"),
            "rs": (SC_TIME_CONSTANT_DEFAULTS.r_s, "sheet resistance in ohms per square"),
            "wwire": (SC_TIME_CONSTANT_DEFAULTS.w_wire, "wire width in metres"),
            "wgap": (SC_TIME_CONSTANT_DEFAULTS.w_gap, "gap width in metres"),
        },
        lambda p: {
            "tau": sc_max_time_constant(
                p["w"], ScTimeConstantSpec(l_square=p["lsq"], r_s=p["rs"], w_wire=p["wwire"], w_gap=p["wgap"])
            )
        },
    ),
}


def _parse_calc_params(formula: Formula, tokens: list[str]) -> tuple[dict, str]:
    expected = ", ".join(
        f"--{name} ({'required' if default is None else f'default {default!r}'}: {doc})"
        for name, (default, doc) in formula.params.items()
    )
    values = {name: default for name, (default, _) in formula.params.items()}
    fmt = "text"
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise UsageError(f"unexpected argument {tok!r}; expected parameters: {expected}")
        key = tok[2:]
        if i + 1 >= len(tokens):
            raise UsageError(f"missing value for --{key}")
        raw = tokens[i + 1]
        i += 2
        if key == "format":
            if raw not in ("text", "json"):
                raise UsageError("--format must be text or json")
            fmt = raw
            continue
        if key not in formula.params:
            raise UsageError(f"unknown parameter --{key}; expected parameters: {expected}")
        try:
            values[key] = float(raw)
        except ValueError:
            values[key] = math.nan
        if not math.isfinite(values[key]):
            raise UsageError(f"--{key} expects a finite number, got {raw!r}")
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise UsageError(
            f"missing required parameter(s): {', '.join('--' + m for m in missing)}; expected: {expected}"
        )
    return values, fmt


def _result_entry(value) -> dict:
    if isinstance(value, Quantity):
        return {"value": value.value, "unit": value.unit}
    return {"value": float(value), "unit": "-"}


def cmd_calc(args) -> int:
    if args.formula not in FORMULAS:
        known = "\n".join(f"  {name:17s} {f.summary}" for name, f in sorted(FORMULAS.items()))
        raise UsageError(f"unknown formula {args.formula!r}; available formulas:\n{known}")
    formula = FORMULAS[args.formula]
    params, fmt = _parse_calc_params(formula, args.params)
    results = {k: _result_entry(v) for k, v in formula.compute(params).items()}
    doc = {"formula": args.formula, "params": params, "results": results}
    text = _dumps(doc, f"a result of {args.formula} is out of float range")
    if fmt == "json":
        print(text)
    else:
        for label, entry in results.items():
            unit = "" if entry["unit"] == "-" else f" {entry['unit']}"
            print(f"{label} = {entry['value']:.6g}{unit}")
    return 0


# ---------------------------------------------------------------------------
# figure


def _parse_override(token: str):
    if "=" not in token:
        raise UsageError(f"--set expects key=value, got {token!r}")
    key, raw = token.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if isinstance(value, list):
        value = tuple(value)
    return key, value


def cmd_figure(args) -> int:
    overrides = dict(_parse_override(t) for t in args.set or [])
    try:
        dataset = build_figure(args.id, **overrides)
    except TypeError as exc:
        raise UsageError(f"invalid override for {args.id}: {exc}") from None
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    except (ArithmeticError, ValueError) as exc:  # an override that takes a model out of float range
        raise UsageError(f"override out of range for {args.id}: {exc}") from None
    out = _out_dir(args.out)
    path = out / f"{args.id}.{args.format}"
    if args.format == "csv":
        dataset.write_csv(path)
    else:
        dataset.write_json(path)
    print(path)
    return 0


# ---------------------------------------------------------------------------
# simulate

# Stands in for the synapse list while the rest of the ledger is encoded.  "synapse_report" sorts last
# among the ledger's keys and "synapses" last within it, so the list is the final value in the document.
_SYNAPSES = "\x00synapses\x00"
# A ledger row is one synapse of SynapseReport.as_dict() at the synapse list's depth in json.dumps(sort_keys=True,
# indent=2): each key's text comes before its value, and the first key's opens the row after the previous one.
_SYNAPSE_KEYS = sorted(SynapseReport.KEYS)
_KEY_TEXT = {key: f',\n        "{key}": ' for key in _SYNAPSE_KEYS}
_KEY_TEXT[_SYNAPSE_KEYS[0]] = ",\n      {" + _KEY_TEXT[_SYNAPSE_KEYS[0]][1:]
_ROWS_PER_BLOCK = 512
# A column's table values as a row holds them: level -1 (analog memory) is null, and a weight is read from its bits.
_DECODE = {"level": lambda v: [None if x < 0 else x for x in v.tolist()]}
_DECODE["weight"] = lambda v: v.view(np.float64).tolist()


def _column_table(key: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Row text of ``key`` for each value from the least of ``values`` to the largest if that range is no longer
    than ``values``, else for each distinct one; the codes of ``values``, ``lo`` above their indices; and ``lo``."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, -1)
    if hi - lo < values.size:
        distinct, codes = np.arange(lo, hi + 1, dtype=values.dtype), values
    else:
        (distinct, codes), lo = np.unique(values, return_inverse=True), 0
    end = "\n      }" if key == _SYNAPSE_KEYS[-1] else ""
    texts = json.dumps(_DECODE.get(key, np.ndarray.tolist)(distinct))[1:-1].split(", ")
    return np.array([_KEY_TEXT[key] + text + end for text in texts], dtype=object), codes, lo


def _ledger_ends(doc: dict, report: SynapseReport) -> tuple[str, str]:
    """The text of ``json.dumps({**doc, "synapse_report": report.as_dict()}, sort_keys=True, indent=2)`` before
    and after the synapse list.  JSON holds no inf or nan, so a figure out of float range is a ``ValueError``."""
    synapse_report = {"sqrt_fanin_update_estimate": report.sqrt_fanin_update_estimate, "synapses": _SYNAPSES}
    text = json.dumps({**doc, "synapse_report": synapse_report}, sort_keys=True, indent=2, allow_nan=False)
    head, _, tail = text.rpartition(json.dumps(_SYNAPSES))
    return head, tail


def _write_ledger(fh, ends: tuple[str, str], report: SynapseReport) -> None:
    """Write ``ends`` (see :func:`_ledger_ends`) around the synapse rows, and a newline, to the binary file ``fh``.
    Each column is encoded once into a table, the weights once per block of rows, and a block joins their entries."""
    head, tail = ends
    fh.write(head.encode())
    memory = report.memory
    columns = {key: getattr(memory if key in SynapseReport.MEMORY_KEYS else report, key) for key in _SYNAPSE_KEYS}
    tables = {key: _column_table(key, values) for key, values in columns.items() if key != "weight"}
    block = np.empty((_ROWS_PER_BLOCK, len(_SYNAPSE_KEYS)), dtype=object)
    for start in range(0, len(memory.weight), _ROWS_PER_BLOCK):
        edges = slice(start, start + _ROWS_PER_BLOCK)
        weights = _column_table("weight", memory.weight[edges].view(np.uint64))  # -0.0 stays apart from 0.0
        rows = block[: len(weights[1])]
        for j, key in enumerate(_SYNAPSE_KEYS):
            table, codes, lo = tables.get(key, weights)
            rows[:, j] = table[(codes if key == "weight" else codes[edges]) - lo]
        text = "".join(rows.ravel().tolist())  # a str join: a bytes join takes 80 bytes more per item
        fh.write((text if start else "[" + text[1:]).encode())
    fh.write(b"\n    ]" if len(memory.weight) else b"[]")
    fh.write(tail.encode() + b"\n")


def cmd_simulate(args) -> int:
    if args.budget is not None and not 0 < args.budget < math.inf:
        raise UsageError(f"--budget must be a finite positive power in watts, got {args.budget}")
    doc = load_scenario(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.profile is not None:
        doc["profile"] = args.profile
    graph, config = build_scenario(doc)
    spikes, ledger, report = run(graph, config)
    summary = power_report(
        ledger,
        config.duration,
        config.profile,
        n_synapses=graph.edge_count,
        n_neurons=graph.n,
        budget=args.budget,
    )
    doc_out = {
        "scenario": doc.get("name", args.config),
        "seed": config.seed,
        "profile": config.profile.name,
        "energy": ledger.as_dict(config.profile),
        "power": summary.as_dict(),
    }
    try:  # a run whose figures leave float range writes nothing
        ends = _ledger_ends(doc_out, report)
    except ValueError:
        raise SimulationError("the run's energy or power figures leave float range") from None
    out = _out_dir(args.out)
    spikes_path = out / "spikes.csv"
    ledger_path = out / "ledger.json"
    spikes.write_csv(spikes_path)
    with open(ledger_path, "wb") as fh:
        _write_ledger(fh, ends, report)
    mean_rate = len(spikes) / (graph.n * config.duration)
    print(f"spikes: {len(spikes)} (mean rate {mean_rate:.6g} Hz over {graph.n} neurons)")
    print(f"wall power: {summary.wall_power:.6g} W (cold {summary.cold_power:.6g} W)")
    if summary.budget_utilization is not None:
        print(f"budget utilization: {summary.budget_utilization:.3f}")
    print(spikes_path)
    print(ledger_path)
    return 0


# ---------------------------------------------------------------------------
# validate-eq6


def cmd_validate(args) -> int:
    rows = validate_path_model(
        args.n,
        args.k,
        seeds=args.seeds,
        base_seed=args.seed,
        tolerance=args.tolerance,
        sample_sources=args.sample_sources,
    )
    columns = tuple(rows[0])  # the grid is never empty
    dataset = Dataset(
        name="path-model-validation",
        columns=columns,
        rows=[tuple(r[c] for c in columns) for r in rows],
        provenance={
            "figure": None,
            "version": __version__,
            "seed": args.seed,
            "parameters": {
                "n": args.n,
                "k": args.k,
                "seeds": args.seeds,
                "tolerance": args.tolerance,
                "sample_sources": args.sample_sources,
            },
        },
    )
    if args.out is not None:
        out = _out_dir(args.out)
        path = out / "path-model-validation.csv"
        dataset.write_csv(path)
        print(path)
    header = " ".join(f"{c:>22s}" for c in columns)
    print(header)
    for row in dataset.rows:
        print(" ".join(f"{v:>22.6g}" if isinstance(v, float) else f"{v:>22d}" for v in row))
    return 0


# ---------------------------------------------------------------------------
# membench


def cmd_membench(args) -> int:
    assumptions = SystemAssumptions(
        lifetime=args.lifetime,
        mean_rate=args.mean_rate,
        fanin=args.fanin,
        e_opt=args.eopt,
        max_rate=args.max_rate,
    )
    techs = load_technologies(args.tech)
    if args.name:
        techs = [t for t in techs if t.name == args.name]
        if not techs:
            raise UsageError(f"no technology named {args.name!r} in the table")
    t = targets(assumptions)
    reports = [score_technology(tech, assumptions) for tech in techs]
    doc = {"targets": asdict(t), "technologies": [r.as_dict() for r in reports]}
    text = _dumps(doc, "the memory targets or scores are out of float range")
    if args.format == "json":
        print(text)
        return 0
    print(
        f"targets: endurance >= {t.endurance:.3g} writes, update energy <= {t.update_energy:.3g} J, "
        f"update time <= {t.update_time:.3g} s, precision {t.precision_bits[0]}-{t.precision_bits[1]} bits"
    )
    for report in reports:
        print(f"{report.name}: {report.verdict}")
        for m in report.metrics:
            value = "?" if m.value is None else f"{m.value:.3g}"
            margin = "" if m.margin is None else f" (margin {m.margin:.3g})"
            note = f"  [{m.note}]" if m.note else ""
            print(f"  {m.metric:15s} {m.verdict:7s} value={value}{margin}{note}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oesnn",
        description="Design-space models and a seeded discrete-event simulator "
        "for optoelectronic spiking neural networks.",
    )
    parser.add_argument("--version", action="version", version=f"oesnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_calc = sub.add_parser("calc", help="evaluate one closed-form model")
    p_calc.add_argument("formula", help="formula name; run with an unknown name to list all")
    p_calc.add_argument("params", nargs=argparse.REMAINDER, help="--param value pairs")
    p_calc.set_defaults(func=cmd_calc)

    p_fig = sub.add_parser("figure", help="write one bundled figure dataset")
    p_fig.add_argument("id", choices=sorted(FIGURES), help="figure dataset id")
    p_fig.add_argument("--out", help="output directory (default $OESNN_OUT or ./out)")
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a builder parameter")
    p_fig.set_defaults(func=cmd_figure)

    p_sim = sub.add_parser("simulate", help="run a scenario config")
    p_sim.add_argument("--config", required=True, help="path or bundled scenario name")
    p_sim.add_argument("--out", help="output directory (default $OESNN_OUT or ./out)")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--profile", choices=sorted(PROFILES), help="override the platform profile")
    p_sim.add_argument("--budget", type=float, help="wall power budget for utilization reporting, W")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate-eq6", help="empirical check of the degree/path-length model")
    p_val.add_argument("--n", type=float, action="append", required=True, help="network size (repeatable)")
    p_val.add_argument("--k", type=float, action="append", required=True, help="mean degree (repeatable)")
    p_val.add_argument("--seeds", type=int, default=10)
    p_val.add_argument("--seed", type=int, default=0, help="base seed for graph generation")
    p_val.add_argument("--tolerance", type=float, default=0.15)
    p_val.add_argument("--sample-sources", type=int, default=None)
    p_val.add_argument("--out", nargs="?", const="", default=None, help="also write a CSV dataset")
    p_val.set_defaults(func=cmd_validate)

    p_mem = sub.add_parser("membench", help="score synaptic memory technologies")
    p_mem.add_argument("--tech", help="technology table JSON (default: bundled)")
    p_mem.add_argument("--name", help="score a single named technology")
    p_mem.add_argument("--lifetime", type=float, default=DEFAULT_ASSUMPTIONS.lifetime)
    p_mem.add_argument("--mean-rate", type=float, default=DEFAULT_ASSUMPTIONS.mean_rate)
    p_mem.add_argument("--fanin", type=float, default=DEFAULT_ASSUMPTIONS.fanin)
    p_mem.add_argument("--eopt", type=float, default=DEFAULT_ASSUMPTIONS.e_opt)
    p_mem.add_argument("--max-rate", type=float, default=DEFAULT_ASSUMPTIONS.max_rate)
    p_mem.add_argument("--format", choices=("text", "json"), default="text")
    p_mem.set_defaults(func=cmd_membench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:  # an input that cannot be read is a ConfigError, so this is an output
        print(f"usage error: cannot write {exc.filename or 'an output'}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return VALIDATION_EXIT
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return SIMULATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
