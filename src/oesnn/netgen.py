"""Random network generation and exact path-length measurement.

The generator draws exact G(n, p) graphs by geometric skip sampling, and
the measurement side runs a bit-parallel breadth-first search, 64 sources
per machine word, from every (or a sampled set of) source node(s).  Each
level pulls only into nodes not yet reached from every source of the
word, and counts the new bits per source with carry-free byte-lane sums.
That gives an empirical mean shortest path length to hold against the
closed-form degree/path-length relation in :mod:`oesnn.scaling`.

Graphs store a directed orientation (one synapse per undirected edge, coin
flip per edge) for the simulator, while path metrics use the undirected
view the closed form is derived for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import substream
from .scaling import achievable_path_length


@dataclass(frozen=True)
class NetworkGraph:
    """Directed synaptic connectivity with an undirected metric view.

    Each (pre, post) pair is one synapse and appears once, so a spike
    reaches each post neuron at most once.
    """

    n: int
    pre: np.ndarray  # int64, source node of each directed edge
    post: np.ndarray  # int64, target node of each directed edge
    seed: int = 0

    def __post_init__(self):
        pre = np.asarray(self.pre, dtype=np.int64)
        post = np.asarray(self.post, dtype=np.int64)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        if self.n < 1:
            raise DomainError(f"graph needs at least one node, got n={self.n}")
        if pre.shape != post.shape:
            raise DomainError("pre/post arrays must have equal length")
        if pre.size and (pre.min() < 0 or post.min() < 0 or pre.max() >= self.n or post.max() >= self.n):
            raise DomainError("edge endpoints must lie in [0, n)")
        if np.any(pre == post):
            raise DomainError("self-loops are not allowed")
        keys = np.sort(pre * self.n + post)
        twins = keys[1:][keys[1:] == keys[:-1]]
        if twins.size:
            u, v = divmod(int(twins[0]), self.n)
            raise DomainError(f"repeated synapse {u}->{v}; a graph holds each (pre, post) pair once")

    @property
    def edge_count(self) -> int:
        return int(self.pre.size)

    def undirected_edges(self) -> np.ndarray:
        """Deduplicated (u < v) edge pairs, shape (m, 2)."""
        if self.pre.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        lo = np.minimum(self.pre, self.post)
        hi = np.maximum(self.pre, self.post)
        # hi < n, so the key orders pairs as (lo, hi) does.  Only a
        # reciprocal pair of synapses repeats a key.
        keys = np.sort(lo * self.n + hi)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        return np.stack([keys // self.n, keys % self.n], axis=1)

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency of the undirected view as (indptr, indices)."""
        pairs = self.undirected_edges()
        u = np.concatenate([pairs[:, 0], pairs[:, 1]])
        v = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=self.n), out=indptr[1:])
        return indptr, v

    def out_edge_indices(self) -> list[np.ndarray]:
        """Outgoing directed edge indices grouped by source neuron."""
        return self._grouped(self.pre)

    def in_edge_indices(self) -> list[np.ndarray]:
        """Incoming directed edge indices grouped by target neuron."""
        return self._grouped(self.post)

    def _grouped(self, key: np.ndarray) -> list[np.ndarray]:
        order = np.argsort(key, kind="stable")
        bounds = np.searchsorted(key[order], np.arange(self.n + 1))
        return [order[bounds[i] : bounds[i + 1]] for i in range(self.n)]

    def mean_degree(self) -> float:
        return 2.0 * len(self.undirected_edges()) / self.n


@dataclass(frozen=True)
class PathStats:
    """Shortest-path summary over the sampled source set."""

    mean_shortest_path: float
    reachable_fraction: float
    diameter: int
    sources: int
    mean_stderr: float | None = None  # set when sources were sampled


def generate_er(n: int, mean_degree: float, seed: int) -> NetworkGraph:
    """Uniformly random graph with edge probability p = k/(n-1).

    Deterministic for a fixed seed.  Pair indices over the row-major i<j
    enumeration are chosen by geometric skips (Batagelj & Brandes 2005),
    which is exact G(n, p) in O(n + m).  Each undirected edge is oriented
    into a single directed synapse by an independent seeded coin flip.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 0.0 < mean_degree <= n - 1:
        raise DomainError(f"mean_degree must lie in (0, n-1], got {mean_degree}")
    p = mean_degree / (n - 1)
    n_pairs = n * (n - 1) // 2
    if n_pairs > np.iinfo(np.int64).max:
        raise DomainError("n must be at most 2**32, so that its n(n-1)/2 node pairs fit in int64")
    rng = substream(seed, "er-edges")
    expected = n_pairs * p
    chunk = int(expected + 6 * np.sqrt(expected) + 16)
    chosen = np.cumsum(rng.geometric(p, size=chunk)) - 1
    while chosen[-1] < n_pairs:
        chosen = np.concatenate([chosen, chosen[-1] + np.cumsum(rng.geometric(p, size=chunk))])
    chosen = chosen[chosen < n_pairs]
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(row_start, chosen, side="right") - 1
    v = chosen - row_start[u] + u + 1
    flip = substream(seed, "er-orientation").random(chosen.size) < 0.5
    pre = np.where(flip, v, u)
    post = np.where(flip, u, v)
    return NetworkGraph(n=n, pre=pre, post=post, seed=seed)


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Count of set bit j over ``uint64`` words, for j in 0..63.

    The unpacked 0/1 bytes are summed eight to a ``uint64``; a byte lane
    cannot carry within 255 rows, and only the lane sums are widened.
    """
    n = len(words)
    bits = np.unpackbits(words.view(np.uint8).reshape(n, 8), axis=1, bitorder="little")
    lanes = np.add.reduceat(bits.view(np.uint64), np.arange(0, n, 255), axis=0)
    return lanes.view(np.uint8).sum(axis=0, dtype=np.int64)


def average_shortest_path(graph: NetworkGraph, sample_sources: int | None = None) -> PathStats:
    """Exact BFS mean over all (or sampled) sources on the undirected view.

    Unreachable pairs are excluded from the mean and surfaced through
    ``reachable_fraction``.  By default every source is used up to 5000
    nodes; larger graphs fall back to 1000 sampled sources and report the
    sampling standard error of the mean.

    Sources are traversed 64 at a time, one bit per source in a ``uint64``
    word per node (multi-source BFS, Then et al., VLDB 2014): each level is
    one gather over the adjacency, one OR-reduction per open row and a
    mask against the visited words.  A row stays open until its visited
    word holds every source of the block; the search stops when no row is
    open, and whenever the open rows fall to half of the rows gathered,
    their adjacency is re-packed so that closed rows cost nothing (the
    bottom-up step of Beamer, Asanovic and Patterson, SC 2012).  The new
    bits are counted per source by :func:`_bit_counts`.
    """
    if graph.edge_count == 0:
        raise DomainError("path statistics need a graph with edges")
    n = graph.n
    indptr, indices = graph.undirected_csr()
    if sample_sources is None:
        sample_sources = n if n <= 5000 else 1000
    elif sample_sources <= 0:
        raise DomainError("sample_sources must be positive")
    sampled = sample_sources < n
    sources = np.arange(n)
    if sampled:
        sources = substream(graph.seed, "path-sources").choice(n, size=sample_sources, replace=False)
    # reduceat yields g[start] for an empty row, so reduce over linked nodes only.
    degree = np.diff(indptr)
    linked = np.flatnonzero(degree > 0)
    hits = np.zeros(len(sources), dtype=np.int64)
    dist_sums = np.zeros(len(sources), dtype=np.int64)
    diameter = 0
    for b in range(0, len(sources), 64):
        block = sources[b : b + 64]
        width = len(block)
        full = np.uint64(2**width - 1)
        visited = np.zeros(n, dtype=np.uint64)
        visited[block] = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
        frontier = visited
        reached = np.zeros(n, dtype=np.uint64)
        rows, row_starts, gather = linked, indptr[linked], indices
        level = 0
        while True:
            reached[rows] = np.bitwise_or.reduceat(frontier[gather], row_starts)
            new = reached & ~visited
            counts = _bit_counts(new)[:width]
            if not counts.any():
                break
            level += 1
            hits[b : b + width] += counts
            dist_sums[b : b + width] += level * counts
            visited |= new
            frontier = new
            # A full visited word can gain nothing more, so its row closes.
            open_rows = rows[visited[rows] != full]
            if open_rows.size == 0:
                break
            if 2 * open_rows.size <= rows.size:
                rows, lengths = open_rows, degree[open_rows]
                ends = np.cumsum(lengths)
                row_starts = ends - lengths
                gather = indices[np.repeat(indptr[rows] - row_starts, lengths) + np.arange(ends[-1])]
                reached[:] = 0
        diameter = max(diameter, level)
    reachable = int(hits.sum())
    if reachable == 0:
        raise DomainError("no reachable pairs; graph is fully disconnected")
    stderr = None
    per_source_means = dist_sums[hits > 0] / hits[hits > 0]
    if sampled and len(per_source_means) > 1:
        stderr = float(np.std(per_source_means, ddof=1) / np.sqrt(len(per_source_means)))
    return PathStats(
        mean_shortest_path=int(dist_sums.sum()) / reachable,
        reachable_fraction=reachable / (len(sources) * (n - 1)),
        diameter=diameter,
        sources=len(sources),
        mean_stderr=stderr,
    )


def validate_path_model(
    sizes,
    degrees,
    seeds: int = 10,
    base_seed: int = 0,
    tolerance: float = 0.15,
    sample_sources: int | None = None,
) -> list[dict]:
    """Empirical check of the degree/path-length relation.

    For every (n, k) in the grid product, measures the BFS mean over
    ``seeds`` independent graphs and compares it with the closed-form
    prediction.  Disconnected realizations are reported through the
    minimum reachable fraction, never silently averaged away.  The
    mean's sampling error is sqrt(sum of se_i^2) / seeds over each graph's
    ``PathStats.mean_stderr`` se_i, which is 0.0 for an exact graph mean
    (every source).  A sampled graph needs two sources that reach another
    node to estimate its se_i, so fewer is a ``DomainError``.
    """
    if any(isinstance(s, float) and not s.is_integer() for s in sizes):  # nan, inf or a fraction
        raise DomainError(f"sizes must be finite whole numbers, got {list(sizes)}")
    if not 0 <= tolerance < np.inf:
        raise DomainError(f"tolerance must be finite and at least 0, got {tolerance}")
    sizes = [int(s) for s in sizes]
    degrees = [float(k) for k in degrees]
    if not sizes or not degrees:
        raise DomainError("sizes and degrees must be non-empty")
    if seeds < 1:
        raise DomainError("seeds must be at least 1")
    if sample_sources is not None and sample_sources < 2:
        raise DomainError(f"sample_sources must be at least 2, got {sample_sources}")
    seed_rng = substream(base_seed, "validate-seeds")
    rows = []
    for n, k in itertools.product(sizes, degrees):
        if k <= 1:
            raise DomainError(f"degree must exceed 1 for the closed form, got {k}")
        predicted = achievable_path_length(n, k)
        means, variances = [], []
        min_reach = 1.0
        for _ in range(seeds):
            g = generate_er(n, k, int(seed_rng.integers(0, 2**63 - 1)))
            stats = average_shortest_path(g, sample_sources)
            if stats.sources < n and stats.mean_stderr is None:
                raise DomainError(f"fewer than 2 of {stats.sources} sampled sources reach another node at n={n}, k={k}")
            means.append(stats.mean_shortest_path)
            variances.append((stats.mean_stderr or 0.0) ** 2)
            min_reach = min(min_reach, stats.reachable_fraction)
        empirical = float(np.mean(means))
        rel_error = abs(empirical - predicted) / predicted
        rows.append(
            {
                "n": n,
                "degree": k,
                "seeds": seeds,
                "predicted": predicted,
                "empirical_mean": empirical,
                "empirical_mean_stderr": math.sqrt(sum(variances)) / seeds,
                "rel_error": rel_error,
                "min_reachable_fraction": min_reach,
                "within_tolerance": int(rel_error <= tolerance),
            }
        )
    return rows

