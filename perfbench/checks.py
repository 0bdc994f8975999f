"""Checks of the program's outputs against computations made apart from it.

Physical constants are typed in here (CODATA 2018, exact SI values) rather
than imported from the program, and path statistics come from SciPy's
shortest-path routine over an adjacency built here from the edge lists.
Each check returns a list of problems; an empty list means the outputs
agree.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse, stats
from scipy.sparse.csgraph import shortest_path

H = 6.62607015e-34  # J s
C = 299_792_458.0  # m/s
Q = 1.602176634e-19  # C
PHI0 = H / (2 * Q)  # Wb
SPECIFIC_POWER = {"superconducting-4K": 1000.0, "semiconductor-300K": 1.0}
REL = 1e-9  # relative tolerance of a sum of equal per-event energies
SIGMAS = 5.0


def _close(actual: float, expected: float, rel: float = REL) -> bool:
    return abs(actual - expected) <= rel * max(abs(actual), abs(expected))


def _expect(problems: list, label: str, actual, expected, rel: float | None = REL) -> None:
    ok = actual == expected if rel is None else _close(actual, expected, rel)
    if not ok:
        problems.append(f"{label}: program {actual!r}, independent {expected!r}")


def _within_sigmas(problems: list, label: str, hits: int, trials: int, p: float) -> None:
    sigma = math.sqrt(p * (1 - p) / trials)
    fraction = hits / trials
    if abs(fraction - p) > SIGMAS * sigma:
        problems.append(f"{label}: fraction {fraction:.6f} is more than {SIGMAS} sigma from {p:.6f}")


def read_spikes(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["neuron_id", "time_s"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    neurons = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    times = np.array([float(r[1]) for r in rows[1:]], dtype=np.float64)
    return neurons, times


def check_simulation(scenario: dict, out: Path, graph_file: Path) -> tuple[list[str], int]:
    """Check spikes.csv and ledger.json of one simulate job.

    Returns the problems found and the number of events the job processed
    (forced spikes plus synapse arrivals).
    """
    problems: list[str] = []
    doc = json.loads((out / "ledger.json").read_text("utf-8"))
    energy, synapses = doc["energy"], doc["synapse_report"]["synapses"]
    cats, counters = energy["categories_j"], energy["counters"]
    with np.load(graph_file) as g:
        n, pre, post = int(g["n"]), g["pre"], g["post"]
    neurons, times = read_spikes(out / "spikes.csv")

    column = lambda key: np.array([s[key] for s in synapses])  # noqa: E731
    det, miss, sup, writes = column("detections"), column("misses"), column("suppressed"), column("writes")
    if not (np.array_equal(column("pre"), pre) and np.array_equal(column("post"), post)):
        problems.append("synapse report edges differ from the generated graph")
    for key, per_synapse in (("detections", det), ("misses", miss), ("suppressed", sup), ("stdp_writes", writes)):
        _expect(problems, f"counters.{key}", counters[key], int(per_synapse.sum()), rel=None)
    _expect(problems, "counters.spikes", counters["spikes"], len(neurons), rel=None)

    out_degree = np.bincount(pre, minlength=n)
    _expect(problems, "transmissions", counters["transmissions"], int(out_degree[neurons].sum()), rel=None)
    delay = scenario["neuron"]["transmit_delay"]
    in_time = times + delay <= scenario["duration"]
    arrivals = int(det.sum() + miss.sum() + sup.sum())
    _expect(problems, "arrivals processed", arrivals, int(out_degree[neurons[in_time]].sum()), rel=None)

    cold = sum(cats[c] for c in ("source_optical", "detector_reset", "fluxon", "memory_update", "soma_overhead"))
    wall = cold * SPECIFIC_POWER[scenario["profile"]] + cats["static_leakage"]
    _expect(problems, "wall_total_j", energy["wall_total_j"], wall)

    link, receiver = scenario["link"], scenario["link"]["receiver"]
    lam, eta = link["wavelength"], link["eta"]
    transmissions, detections = counters["transmissions"], int(det.sum())
    if receiver["kind"] == "snspd":
        e_source = link["n_ph"] * H * C / (lam * eta)
        _expect(problems, "source_optical", cats["source_optical"], transmissions * e_source)
        e_reset = 0.5 * receiver["l_spd"] * receiver["i_spd"] ** 2
        _expect(problems, "detector_reset", cats["detector_reset"], detections * e_reset)
        fluxon_j = scenario["energy"]["i_c"] * PHI0
        max_fluxons = math.floor(e_source / fluxon_j)
        levels = column("level").astype(np.float64)
        per_detection = np.rint(levels / (2 ** scenario["synapse"]["bits"] - 1) * max_fluxons)
        _expect(problems, "fluxon", cats["fluxon"], float((det * per_detection).sum()) * fluxon_j)
        p_detect = -math.expm1(-link["n_ph"] * receiver["eta_d"])
        _within_sigmas(problems, "Bernoulli detection", detections, detections + int(miss.sum()), p_detect)
    else:
        responsivity = Q * lam / (H * C)
        e_source = receiver["c_tot"] * receiver["v_swing"] / (eta * responsivity)
        _expect(problems, "source_optical", cats["source_optical"], transmissions * e_source)
        leakage = len(pre) * receiver["v_bias"] * receiver["i_leak"] * scenario["duration"]
        _expect(problems, "static_leakage", cats["static_leakage"], leakage)
        need = math.ceil(receiver["c_tot"] * receiver["v_swing"] / Q)
        p_detect = float(stats.poisson.sf(need - 1, link["n_ph"]))
        _within_sigmas(problems, "Poisson-threshold detection", detections, detections + int(miss.sum()), p_detect)
        weights = column("weight")
        if weights.min() < 0.0 or weights.max() > 1.0:
            problems.append(f"weights outside [0, 1]: [{weights.min()}, {weights.max()}]")
        endurance = scenario["synapse"]["endurance"]
        if writes.max() > endurance:
            problems.append(f"a synapse took {writes.max()} writes, over its endurance {endurance}")
    events = counters["forced_spikes"] + arrivals
    return problems, events


def _gnp_problems(n: int, k: float, pre: np.ndarray, post: np.ndarray) -> list[str]:
    """G(n, p) properties: edge count and mean degree per node-id quartile."""
    problems = []
    p = k / (n - 1)
    pairs = n * (n - 1) // 2
    m = len(pre)
    if abs(m - pairs * p) > SIGMAS * math.sqrt(pairs * p * (1 - p)):
        problems.append(f"edge count {m} is more than {SIGMAS} sigma from {pairs * p:.1f}")
    degree = np.bincount(pre, minlength=n) + np.bincount(post, minlength=n)
    for q, block in enumerate(np.array_split(np.arange(n), 4)):
        b = len(block)
        # A block's degree sum counts its internal edges twice.
        sigma = math.sqrt((4 * b * (b - 1) / 2 + b * (n - b)) * p * (1 - p)) / b
        mean = degree[block].mean()
        if abs(mean - k) > SIGMAS * sigma:
            problems.append(f"node-id quartile {q + 1}: mean degree {mean:.2f} vs {k} ({(mean - k) / sigma:+.1f} sigma)")
    return problems


def check_paths(
    rows_file: Path, graphs_file: Path, path_stats: list[dict], n: int, k: float, graphs: int
) -> tuple[list[list[str]], list[list[str]], list[str], int]:
    """Check a validate-eq6 job against SciPy shortest paths on its graphs.

    Returns the problems of each graph's path statistics, the G(n, p)
    problems of each graph, the problems of the validation row, and the
    adjacency entries a full BFS scans (sources times 2m, summed).
    """
    rows_problems: list[str] = []
    with open(rows_file, encoding="utf-8", newline="") as fh:
        if not fh.readline().startswith("# "):
            rows_problems.append("rows file has no provenance line")
        rows = list(csv.DictReader(fh))
    with np.load(graphs_file) as g:
        edges = [(g[f"pre{i}"], g[f"post{i}"]) for i in range(len(g["n"]))]
    if len(rows) != 1 or len(edges) != graphs or len(path_stats) != graphs:
        shape = [f"expected 1 row and {graphs} graphs, got {len(rows)} rows and {len(edges)} graphs"]
        return [shape] * graphs, [shape] * graphs, shape, 0

    paths, gnp, means, reaches, scanned = [], [], [], [], 0
    for i, ((pre, post), reported) in enumerate(zip(edges, path_stats)):
        adjacency = sparse.coo_matrix((np.ones(len(pre)), (pre, post)), shape=(n, n)).tocsr()
        dist = shortest_path(adjacency, directed=False, unweighted=True)
        reached = np.isfinite(dist) & (dist > 0)
        hops = int(dist[reached].astype(np.int64).sum())
        reachable = int(reached.sum())
        mean, reach, diameter = hops / reachable, reachable / (n * (n - 1)), int(dist[reached].max())
        found: list[str] = []
        _expect(found, f"graph {i} mean path", reported["mean_shortest_path"], mean, rel=1e-12)
        _expect(found, f"graph {i} reachable fraction", reported["reachable_fraction"], reach, rel=1e-12)
        _expect(found, f"graph {i} diameter", reported["diameter"], diameter, rel=None)
        paths.append(found)
        means.append(mean)
        reaches.append(reach)
        gnp.append(_gnp_problems(n, k, pre, post))
        scanned += reported["sources"] * 2 * len(pre)

    row = rows[0]
    _expect(rows_problems, "row n", int(row["n"]), n, rel=None)
    _expect(rows_problems, "row seeds", int(row["seeds"]), graphs, rel=None)
    _expect(rows_problems, "row empirical_mean", float(row["empirical_mean"]), float(np.mean(means)), rel=1e-12)
    _expect(rows_problems, "row min_reachable_fraction", float(row["min_reachable_fraction"]), min(reaches), rel=1e-12)
    return paths, gnp, rows_problems, scanned
