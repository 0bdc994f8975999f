"""Builders for the bundled figure datasets.

Each builder sweeps one of the design-space models over a default grid and
returns a :class:`~oesnn.datasets.Dataset`.  Grids and parameters are plain
keyword arguments so any figure can be regenerated under different
assumptions.  :func:`build_figure` binds the overrides to the builder's
signature, and the provenance records the figure id and every argument
the builder ran with, defaults included.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np

from . import __version__
from .datasets import Dataset
from .errors import DomainError
from .linkbudget import DEFAULT_WAVELENGTH, ReceiverlessPhotodiode, receiverless_optical_energy, transmitter_power
from .platforms import (
    CMOS_TIME_CONSTANT_DEFAULTS,
    SC_TIME_CONSTANT_DEFAULTS,
    cmos_max_time_constant,
    max_average_spike_rate,
    sc_max_time_constant,
)
from .scaling import SYNAPSE_WIDTH, WAFER_DIAMETER, WAVEGUIDE_PITCH
from .scaling import required_degree, required_planes, sweep_path_length_vs_width

# Decade ladder (1, 1.5, 2, 3, 5, 7) from 1 um to 1 mm; hits the 10 um and
# 30 um reference widths exactly.
WIDTH_LADDER_M = tuple(
    round(base * 10.0**exp, 12) for exp in range(-6, -3) for base in (1.0, 1.5, 2.0, 3.0, 5.0, 7.0)
) + (1e-3,)


def _log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` values from ``lo`` to ``hi``, evenly spaced in log scale."""
    if not (0 < lo <= hi < math.inf and points >= 1):
        raise DomainError(f"a grid needs finite 0 < min <= max and points >= 1, got {lo!r}, {hi!r}, {points!r}")
    return np.logspace(math.log10(lo), math.log10(hi), points)


def fig3(
    fanout: float = 1000.0,
    c_tot: float = 1e-15,
    v_swing: float = 0.8,
    eta: float = 1.0,
    wavelength: float = DEFAULT_WAVELENGTH,
    rate_min_hz: float = 1e3,
    rate_max_hz: float = 10e9,
    points: int = 36,
) -> Dataset:
    """Transmitter optical power vs spike rate for a receiverless load."""
    pd = ReceiverlessPhotodiode(c_tot=c_tot, v_swing=v_swing)
    e_rx = receiverless_optical_energy(pd, 1.0, wavelength)  # at the receiver
    rows = [
        (float(r), transmitter_power(fanout, e_rx, float(r), eta).value)
        for r in _log_grid(rate_min_hz, rate_max_hz, points)
    ]
    return Dataset(name="transmitter-power-vs-rate", columns=("spike_rate_hz", "optical_power_w"), rows=rows)


def fig4(
    path_length: float = 2.5,
    w_wg: float = WAVEGUIDE_PITCH,
    w_sy: float = SYNAPSE_WIDTH,
    n_min: float = 1e4,
    n_max: float = 1e7,
    points: int = 31,
    wafer_diameter: float = WAFER_DIAMETER,
    fill_factor: float = 1.0,
) -> Dataset:
    """Plane counts needed to hold a path length as wafer population grows."""
    rows = []
    for n in _log_grid(n_min, n_max, points):
        req = required_planes(float(n), path_length, w_wg, w_sy, wafer_diameter, fill_factor)
        rows.append((float(n), req.degree, req.p_p, req.p_e))
    return Dataset(
        name="integration-planes-vs-population",
        columns=("n_300", "degree", "p_p", "p_e"),
        rows=rows,
    )


def fig6(
    power_budget: float = 10e6,
    fanout: float = 1e3,
    receiver_energy: float = 1e-15,
    etas: tuple[float, ...] = (1.0, 1e-2, 1e-4, 1e-5),
    n_min: float = 1e6,
    n_max: float = 1e12,
    points: int = 25,
) -> Dataset:
    """Budget-limited mean spike rate vs population for several link efficiencies."""
    if not all(eta > 0 for eta in etas):
        raise DomainError(f"etas must be positive, got {list(etas)!r}")
    sizes = _log_grid(n_min, n_max, points)
    rows = [
        (float(n), float(eta), max_average_spike_rate(power_budget, float(n), fanout, receiver_energy / eta).value)
        for eta in etas
        for n in sizes
    ]
    return Dataset(name="spike-rate-vs-size-budget", columns=("n_neurons", "eta", "max_rate_hz"), rows=rows)


def fig7(widths_m: tuple[float, ...] = WIDTH_LADDER_M) -> Dataset:
    """Maximum synapse time constant vs footprint for both platforms."""
    rows = [
        (
            float(w),
            cmos_max_time_constant(float(w), CMOS_TIME_CONSTANT_DEFAULTS).value,
            sc_max_time_constant(float(w), SC_TIME_CONSTANT_DEFAULTS).value,
        )
        for w in widths_m
    ]
    return Dataset(
        name="max-time-constant-vs-width",
        columns=("width_m", "cmos_tau_s", "sc_tau_s"),
        rows=rows,
    )


def fig8(
    path_lengths: tuple[float, ...] = (2.0, 2.5, 3.0, 3.5),
    n_min: float = 1e3,
    n_max: float = 1e10,
    points: int = 29,
) -> Dataset:
    """Mean degree needed for a path length as network size grows."""
    sizes = _log_grid(n_min, n_max, points)
    rows = [(float(n), float(path), required_degree(float(n), path)) for path in path_lengths for n in sizes]
    return Dataset(name="degree-vs-size", columns=("n_total", "path_length", "degree"), rows=rows)


def fig9(
    axes: tuple[str, ...] = ("w_sy", "w_wg"),
    n_300_list: tuple[float, ...] = (1e5, 1e6, 1e7),
    planes_list: tuple[float, ...] = (1.0, 10.0),
    widths_m: tuple[float, ...] = WIDTH_LADDER_M,
    wafer_diameter: float = WAFER_DIAMETER,
    fill_factor: float = 1.0,
) -> Dataset:
    """Best achievable path length vs synapse width and waveguide pitch; -1 marks an infeasible point."""
    columns = ("axis", "n_300", "planes", "width_m", "max_degree", "path_length", "feasible")
    rows = [
        tuple(-1.0 if c == "path_length" and not math.isfinite(r[c]) else r[c] for c in columns)
        for axis in axes
        for r in sweep_path_length_vs_width(axis, n_300_list, planes_list, widths_m, wafer_diameter, fill_factor)
    ]
    return Dataset(name="path-length-vs-feature-size", columns=columns, rows=rows)


FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
}


def build_figure(figure_id: str, **overrides) -> Dataset:
    """Build one bundled figure dataset, applying keyword overrides.

    An override the builder does not take is a :class:`TypeError`.
    """
    try:
        builder = FIGURES[figure_id]
    except KeyError:
        raise DomainError(
            f"unknown figure {figure_id!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
    bound = inspect.signature(builder).bind(**overrides)
    bound.apply_defaults()
    parameters = {k: list(v) if isinstance(v, tuple) else v for k, v in bound.arguments.items()}
    provenance = {"figure": figure_id, "version": __version__, "seed": None, "parameters": parameters}
    return dataclasses.replace(builder(**bound.arguments), provenance=provenance)
