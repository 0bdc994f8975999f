"""One job of a workload, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json
       python3 perfbench/worker.py --variants SPEC.json

``run.py`` writes SPEC: the ``oesnn`` sources to import, the command-line
arguments of the job, its output directory, whether to trace, and where to
write the result.  The job is ``oesnn.cli.main(argv)``, run in this process
so that set-up and the job can be told apart from outside the program:
set-up ends when ``build_scenario`` returns (simulate) or when
``validate_path_model`` is entered (validate-eq6).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    import numpy as np

    import oesnn
    from oesnn import cli, config, datasets, netgen, simulator
    from probes import Probes

    if Path(oesnn.__file__).resolve().parent != src / "oesnn":
        raise SystemExit(f"worker: imported oesnn from {oesnn.__file__}, not from {src}")

    probes = Probes(spec["trace"])
    marks: dict[str, float] = {}
    built: list = []
    graph_digests: list = []
    kept_graphs: list = []
    path_stats: list = []

    def inputs_ready():
        marks["setup_end"] = time.perf_counter()
        probes.span("bench.gc", gc.collect)
        marks["run_start"] = time.perf_counter()

    def keep_build(result):
        built.append(result)
        inputs_ready()

    def keep_graph(graph):
        # The program drops each graph after its BFS; keep only its digest,
        # and the edge lists only on the repeat whose outputs are checked.
        graph_digests.append(_digest(graph.pre, graph.post))
        if spec["dump"]:
            kept_graphs.append(graph)

    if spec["kind"] == "simulate":
        probes.wrap(cli, "load_scenario", "config.load_scenario")
        probes.wrap(cli, "build_scenario", "config.build_scenario", after=keep_build)
        probes.wrap(config, "generate_er", "netgen.generate_er")
        probes.wrap(cli, "run", "simulator.run")
        probes.wrap(cli, "power_report", "simulator.power_report")
        probes.wrap(simulator.SpikeRecord, "write_csv", "cli.write_spikes")
        probes.wrap(simulator.EnergyLedger, "as_dict", "simulator.ledger_as_dict")
        probes.wrap(simulator.SynapseReport, "as_dict", "simulator.report_as_dict")
        probes.wrap(simulator.PowerReport, "as_dict", "simulator.power_as_dict")
    else:
        probes.wrap(cli, "validate_path_model", "netgen.validate_path_model", before=inputs_ready)
        probes.wrap(netgen, "generate_er", "netgen.generate_er", after=keep_graph)
        probes.wrap(
            netgen, "average_shortest_path", "netgen.average_shortest_path",
            after=lambda stats: path_stats.append(dataclasses.asdict(stats)),
        )
        probes.wrap(netgen.NetworkGraph, "undirected_csr", "netgen.undirected_csr")
        probes.wrap(datasets.Dataset, "write_csv", "cli.write_rows")

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = probes.span("cli.main", cli.main, spec["argv"])
    t_end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rc != 0 or "run_start" not in marks:
        raise SystemExit(f"worker: job exited {rc}; output:\n{captured.getvalue()}")

    result = {
        "setup_end": marks["setup_end"],
        "run_start": marks["run_start"],
        "end": t_end,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "spans": probes.spans,
    }
    out = Path(spec["out"])
    if spec["kind"] == "simulate":
        graph = built[0][0]
        result["graph_digests"] = [_digest(graph.pre, graph.post)]
        if spec["dump"]:
            np.savez(out / "graph.npz", n=graph.n, pre=graph.pre, post=graph.post)
    else:
        result["graph_digests"] = graph_digests
        result["path_stats"] = path_stats
        if spec["dump"]:
            arrays = {"n": np.array([g.n for g in kept_graphs])}
            for i, g in enumerate(kept_graphs):
                arrays[f"pre{i}"] = g.pre
                arrays[f"post{i}"] = g.post
            np.savez(out / "graphs.npz", **arrays)
    Path(spec["result"]).write_text(json.dumps(result), "utf-8")
    return 0


def variants(spec_path: str) -> int:
    """Time ``run()`` on a scenario's graph and config, changed two ways.

    ``compile_s``: inputs removed, so zero events (per-edge compile and the
    report).  ``unplastic_run_s``: plasticity switched off, when it is on.
    Each is the median of ``spec["repeats"]`` calls.
    """
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    sys.path.insert(0, str(Path(spec["src"]).resolve()))
    from oesnn import config, simulator

    graph, cfg = config.build_scenario(config.load_scenario(spec["scenario"]))
    changed = {"compile_s": dataclasses.replace(cfg, inputs=())}
    if cfg.plasticity is not None:
        changed["unplastic_run_s"] = dataclasses.replace(cfg, plasticity=None)
    result = {}
    for name, variant in changed.items():
        times = []
        for _ in range(spec["repeats"]):
            gc.collect()
            t0 = time.perf_counter()
            simulator.run(graph, variant)
            times.append(time.perf_counter() - t0)
        result[name] = statistics.median(times)
    Path(spec["result"]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(variants(sys.argv[2]) if sys.argv[1] == "--variants" else main(sys.argv[1]))
