"""Connectivity and wafer-area scaling models.

Relates network size, mean synaptic degree, and average shortest path
length for random graphs, then translates degree into wafer real estate:
passive waveguide routing area grows as (k*w_wg/p_p)^2 while active
synapse area grows as k*w_sy^2/p_e, both capped by the per-neuron share of
a 300-mm wafer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quantities import AREA, DIMENSIONLESS, EULER_GAMMA, LENGTH, Quantity, si_value

WAFER_DIAMETER = 0.3  # m
WAVEGUIDE_PITCH = 2e-6  # m
SYNAPSE_WIDTH = 10e-6  # m


def required_degree(n_total, path_length) -> float:
    """Mean degree a random network needs for a target mean path length.

    For supercritical uniformly random graphs,
    k = exp[(ln N - gamma) / (L - 1/2)], diverging as L approaches 1/2.
    """
    n = si_value(n_total, DIMENSIONLESS, "n_total")
    path = si_value(path_length, DIMENSIONLESS, "path_length")
    if n < 2:
        raise DomainError(f"n_total must be at least 2, got {n}")
    if path <= 0.5:
        raise DomainError(f"path_length must exceed 1/2, got {path}")
    return math.exp((math.log(n) - EULER_GAMMA) / (path - 0.5))


def achievable_path_length(n_total, degree) -> float:
    """Mean path length a random network achieves at a given mean degree.

    Inverse of :func:`required_degree`: L = 1/2 + (ln N - gamma)/ln k.
    """
    n = si_value(n_total, DIMENSIONLESS, "n_total")
    k = si_value(degree, DIMENSIONLESS, "degree")
    if n < 2:
        raise DomainError(f"n_total must be at least 2, got {n}")
    if k <= 1:
        raise DomainError(f"degree must exceed 1, got {k}")
    return 0.5 + (math.log(n) - EULER_GAMMA) / math.log(k)


def photonic_area(degree, w_wg, p_p) -> Quantity:
    """Per-neuron area of passive waveguide routing: (k*w_wg/p_p)^2."""
    k = si_value(degree, DIMENSIONLESS, "degree")
    w = si_value(w_wg, LENGTH, "w_wg")
    p = si_value(p_p, DIMENSIONLESS, "p_p")
    if k < 0 or w <= 0 or p <= 0:
        raise DomainError("need degree >= 0, w_wg > 0, p_p > 0")
    side = k * w / p
    return Quantity(side * side, AREA)


def electronic_area(degree, w_sy, p_e) -> Quantity:
    """Per-neuron area of active synapse circuits: k*w_sy^2/p_e."""
    k = si_value(degree, DIMENSIONLESS, "degree")
    w = si_value(w_sy, LENGTH, "w_sy")
    p = si_value(p_e, DIMENSIONLESS, "p_e")
    if k < 0 or w <= 0 or p <= 0:
        raise DomainError("need degree >= 0, w_sy > 0, p_e > 0")
    return Quantity(k * w * w / p, AREA)


def wafer_area(diameter=WAFER_DIAMETER, fill_factor: float = 1.0) -> Quantity:
    """Usable wafer area: fill_factor * pi * (d/2)^2."""
    d = si_value(diameter, LENGTH, "diameter")
    if d <= 0:
        raise DomainError("diameter must be positive")
    if not 0.0 < fill_factor <= 1.0:
        raise DomainError("fill_factor must lie in (0, 1]")
    return Quantity(fill_factor * math.pi * (d / 2.0) ** 2, AREA)


@dataclass(frozen=True)
class PlaneRequirement:
    """Continuous plane counts that exactly exhaust the wafer share."""

    degree: float
    p_p: float  # photonic waveguide planes
    p_e: float  # electronic synapse planes


def required_planes(
    n_300,
    path_length,
    w_wg=WAVEGUIDE_PITCH,
    w_sy=SYNAPSE_WIDTH,
    wafer_diameter=WAFER_DIAMETER,
    fill_factor: float = 1.0,
) -> PlaneRequirement:
    """Plane counts needed to hold ``n_300`` neurons at a target path length.

    With A the per-neuron wafer share, p_p = k*w_wg/sqrt(A) and
    p_e = k*w_sy^2/A.  Values are continuous; callers ceil for buildable
    stacks.
    """
    n = si_value(n_300, DIMENSIONLESS, "n_300")
    wg = si_value(w_wg, LENGTH, "w_wg")
    sy = si_value(w_sy, LENGTH, "w_sy")
    if n < 2 or wg <= 0 or sy <= 0:
        raise DomainError("need n_300 >= 2 and positive feature sizes")
    k = required_degree(n, path_length)
    share = wafer_area(wafer_diameter, fill_factor).value / n
    return PlaneRequirement(
        degree=k,
        p_p=k * wg / math.sqrt(share),
        p_e=k * sy * sy / share,
    )


def max_degree_photonic(n_300, w_wg, p_p, wafer_diameter=WAFER_DIAMETER, fill_factor=1.0) -> float:
    """Largest degree whose waveguide routing fits the per-neuron share."""
    n = si_value(n_300, DIMENSIONLESS, "n_300")
    wg = si_value(w_wg, LENGTH, "w_wg")
    p = si_value(p_p, DIMENSIONLESS, "p_p")
    if n < 1 or wg <= 0 or p <= 0:
        raise DomainError("need n_300 >= 1, w_wg > 0, p_p > 0")
    share = wafer_area(wafer_diameter, fill_factor).value / n
    return p * math.sqrt(share) / wg


def max_degree_electronic(n_300, w_sy, p_e, wafer_diameter=WAFER_DIAMETER, fill_factor=1.0) -> float:
    """Largest degree whose synapse circuits fit the per-neuron share."""
    n = si_value(n_300, DIMENSIONLESS, "n_300")
    sy = si_value(w_sy, LENGTH, "w_sy")
    p = si_value(p_e, DIMENSIONLESS, "p_e")
    if n < 1 or sy <= 0 or p <= 0:
        raise DomainError("need n_300 >= 1, w_sy > 0, p_e > 0")
    share = wafer_area(wafer_diameter, fill_factor).value / n
    return p * share / (sy * sy)


def sweep_path_length_vs_width(
    axis: str,
    n_300_list,
    planes_list,
    widths,
    wafer_diameter=WAFER_DIAMETER,
    fill_factor: float = 1.0,
) -> list[dict]:
    """Best achievable path length as a feature size sweeps.

    ``axis`` selects which feature is swept: ``"w_sy"`` (synapse width,
    quadratic area cost) or ``"w_wg"`` (waveguide pitch, linear in the
    routing side).  For each (n_300, planes, width) grid point the wafer
    constraint is inverted for the maximum supportable degree, then mapped
    to a path length.  Points where the degree drops to 1 or below are
    flagged infeasible rather than dropped.
    """
    if axis not in ("w_sy", "w_wg"):
        raise DomainError(f"axis must be 'w_sy' or 'w_wg', got {axis!r}")
    widths = [si_value(w, LENGTH, "width") for w in widths]
    if not widths or not list(n_300_list) or not list(planes_list):
        raise DomainError("all sweep grids must be non-empty")
    rows = []
    for n in n_300_list:
        for planes in planes_list:
            for width in widths:
                if axis == "w_sy":
                    k = max_degree_electronic(n, width, planes, wafer_diameter, fill_factor)
                else:
                    k = max_degree_photonic(n, width, planes, wafer_diameter, fill_factor)
                feasible = k > 1.0
                rows.append(
                    {
                        "axis": axis,
                        "n_300": float(n),
                        "planes": float(planes),
                        "width_m": width,
                        "max_degree": k,
                        "path_length": achievable_path_length(n, k) if feasible else math.inf,
                        "feasible": int(feasible),
                    }
                )
    return rows
