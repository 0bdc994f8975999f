"""Benchmark of the oesnn command line: one workload per invocation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fanout-sc --seed 1 --seconds 30 --trace 0

Each timed job runs in a fresh worker process (``worker.py``) with one
thread, after one discarded warm-up job on small inputs.  Jobs repeat
until ``--seconds`` have passed (at least three), and every metric is the
median over the repeats.  The outputs of the first repeat are checked
against computations made apart from the program (``checks.py``), and
every repeat must reproduce them byte for byte.  Each job is one or more
operations (one per simulate job; per graph a path check and a G(n, p)
check, plus the validation row, per validate-eq6 job).  An operation of a
repeat fails when its checks on repeat 0 find a problem or when its outputs
differ from repeat 0's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced repeats, so that the tracing overhead is
measured in the same run, and writes its spans to
``.perfbench_out/spans/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPEATS = 3
VARIANT_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in THREAD_ENV:
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from probes import self_times, total_times  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Job:
    """The inputs of one workload and how to run and read one job of it.

    ``operations`` names the checked operations of one job, and
    ``known_faults`` those that fail because of a named fault in the program.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path, warmup: bool = False):
        self.workload = workload
        self.run_dir = run_dir
        shape = workloads.WARMUP[workload] if warmup else None
        if workload == "path-oracle":
            self.kind = "validate"
            self.shape = shape or workloads.PATH_ORACLE
            self.argv = workloads.path_oracle(seed, self.shape)
            self.outputs = ("path-model-validation.csv",)
            graphs = range(self.shape["graphs"])
            self.known_faults = {f"graph {i} G(n, p)" for i in graphs}
            self.operations = ["rows"] + [f"graph {i} {check}" for i in graphs for check in ("paths", "G(n, p)")]
        else:
            self.kind = "simulate"
            build = workloads.fanout_sc if workload == "fanout-sc" else workloads.stdp_semi
            self.scenario = build(seed, shape) if shape else build(seed)
            scenario_file = run_dir / "scenario.json"
            scenario_file.write_text(json.dumps(self.scenario, indent=2), "utf-8")
            self.argv = ["simulate", "--config", str(scenario_file)]
            self.outputs = ("spikes.csv", "ledger.json")
            self.known_faults = set()
            self.operations = ["job"]

    def _worker(self, args: list[str], deadline: float) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=self.run_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{self.workload} worker failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")

    def variants(self, deadline: float) -> dict:
        """Median times of run() without inputs, and without plasticity."""
        spec_file, result_file = self.run_dir / "variants.json", self.run_dir / "variants-result.json"
        spec = {"src": str(SRC), "scenario": str(self.run_dir / "scenario.json"), "repeats": VARIANT_REPEATS,
                "result": str(result_file)}
        spec_file.write_text(json.dumps(spec), "utf-8")
        self._worker(["--variants", str(spec_file)], deadline)
        return json.loads(result_file.read_text("utf-8"))

    def run(self, index: int, trace: bool, dump: bool, deadline: float) -> dict:
        out = self.run_dir / f"repeat{index}"
        out.mkdir(parents=True)
        spec_file = self.run_dir / f"spec{index}.json"
        result_file = self.run_dir / f"result{index}.json"
        spec = {
            "src": str(SRC),
            "kind": self.kind,
            "argv": self.argv + ["--out", str(out)],
            "out": str(out),
            "trace": trace,
            "dump": dump,
            "result": str(result_file),
        }
        spec_file.write_text(json.dumps(spec), "utf-8")
        spawned = time.perf_counter()
        self._worker([str(spec_file)], deadline)
        result = json.loads(result_file.read_text("utf-8"))
        result["setup_s"] = result["setup_end"] - spawned
        result["run_s"] = result["end"] - result["run_start"]
        result["fingerprints"] = self._fingerprints(out, result)
        result["out"] = out
        return result

    def _fingerprints(self, out: Path, result: dict) -> dict:
        """What each operation of a repeat produced, to compare with repeat 0."""
        files = [_sha256(out / name) for name in self.outputs]
        if self.kind == "simulate":
            return {"job": files + result["graph_digests"]}
        digests, stats = result["graph_digests"], result["path_stats"]
        prints = {"rows": files}
        for i in range(self.shape["graphs"]):
            digest = digests[i] if i < len(digests) else None
            prints[f"graph {i} paths"] = [digest, stats[i] if i < len(stats) else None]
            prints[f"graph {i} G(n, p)"] = digest
        return prints


def _median(values) -> float:
    return float(statistics.median(values))


def _layer_metrics(spans: list, variants: dict, work: int, edges_scanned: int, ledger_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced repeat, from its spans and the variant runs."""
    own, total = self_times(spans), total_times(spans)
    compile_s = variants.get("compile_s", 0.0)
    loop_s = total["simulator.run"] - compile_s if "simulator.run" in total else 0.0
    bfs_s = own.get("netgen.average_shortest_path", 0.0)
    plastic = total["simulator.run"] - variants["unplastic_run_s"] if "unplastic_run_s" in variants else 0.0
    report = ("simulator.power_report", "simulator.ledger_as_dict", "simulator.report_as_dict", "simulator.power_as_dict")
    return {
        "config.build_s": own.get("config.load_scenario", 0.0) + own.get("config.build_scenario", 0.0),
        "netgen.generate_s": total.get("netgen.generate_er", 0.0),
        "netgen.csr_s": total.get("netgen.undirected_csr", 0.0),
        "netgen.bfs_s": bfs_s,
        "netgen.edges_scanned": float(edges_scanned),
        "netgen.bfs_edges_per_s": edges_scanned / bfs_s if bfs_s > 0 else 0.0,
        "simulator.compile_s": compile_s,
        "simulator.loop_s": loop_s,
        "simulator.events": float(work if loop_s else 0),
        "simulator.events_per_loop_s": work / loop_s if loop_s > 0 else 0.0,
        "plasticity.overhead_s": plastic,
        "cli.report_s": sum(total.get(name, 0.0) for name in report),
        "cli.write_s": own["cli.main"] + total.get("cli.write_spikes", 0.0) + total.get("cli.write_rows", 0.0),
        "cli.ledger_mb": ledger_bytes / 1e6,
    }


def _units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    run_dir = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        warm_dir = run_dir / "warmup"
        warm_dir.mkdir()
        Job(workload, seed, warm_dir, warmup=True).run(0, trace=False, dump=False, deadline=deadline)

        job = Job(workload, seed, run_dir)
        repeats: list[dict] = []
        t0 = time.monotonic()
        while len(repeats) < MIN_REPEATS or time.monotonic() - t0 < seconds:
            if repeats and time.monotonic() + 2 * max(r["run_s"] + r["setup_s"] for r in repeats) > deadline:
                break
            index = len(repeats)
            rep = job.run(index, trace=trace and index % 2 == 0, dump=index == 0, deadline=deadline)
            if index:
                shutil.rmtree(rep["out"])
            repeats.append(rep)

        first = repeats[0]
        edges_scanned, ledger_bytes = 0, 0
        import checks  # SciPy loads only after the timed jobs

        if job.kind == "simulate":
            found, work = checks.check_simulation(job.scenario, first["out"], first["out"] / "graph.npz")
            checked = {"job": found}
            ledger_bytes = (first["out"] / "ledger.json").stat().st_size
        else:
            shape = job.shape
            paths, gnp, rows, edges_scanned = checks.check_paths(
                first["out"] / "path-model-validation.csv", first["out"] / "graphs.npz",
                first["path_stats"], shape["n"], shape["k"], shape["graphs"],
            )
            work = edges_scanned
            checked = {"rows": rows}
            for i in range(shape["graphs"]):
                checked[f"graph {i} paths"], checked[f"graph {i} G(n, p)"] = paths[i], gnp[i]

        # The run is correct when no operation fails other than the known faults.
        failed, correct = 0, True
        for i, r in enumerate(repeats):
            for op in job.operations:
                differs = r["fingerprints"][op] != first["fingerprints"][op]
                if checked[op] or differs:
                    failed += 1
                    correct = correct and op in job.known_faults
                for problem in checked[op] if i == 0 else ():
                    print(f"{op} failed: {problem}", file=sys.stderr)
                if differs:
                    print(f"{op} failed: repeat {i} outputs differ from repeat 0", file=sys.stderr)

        untraced = [r for i, r in enumerate(repeats) if not (trace and i % 2 == 0)]
        if trace:
            traced = [r for i, r in enumerate(repeats) if i % 2 == 0]
            # Timed after the loop, in a process of their own: extra work inside
            # the traced workers made the untraced job after each one faster.
            variants = job.variants(deadline) if job.kind == "simulate" else {}
            layers = [_layer_metrics(r["spans"], variants, work, edges_scanned, ledger_bytes) for r in traced]
            values = {name: _median(l[name] for l in layers) for name in layers[0]}
            values["trace.overhead_s"] = _median(r["run_s"] for r in traced) - _median(r["run_s"] for r in untraced)
            spans_dir = OUT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{workload}-seed{seed}.json").write_text(
                json.dumps([
                    {"repeat": i, "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in r["spans"]]}
                    for i, r in enumerate(repeats) if i % 2 == 0
                ]),
                "utf-8",
            )
        else:
            values = {
                "setup_s": _median(r["setup_s"] for r in untraced),
                "run_s": _median(r["run_s"] for r in untraced),
                "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
                "work_per_s": _median(work / r["run_s"] for r in untraced),
            }
        units = _units()
        print(
            f"{workload} seed {seed}: {len(repeats)} repeats, run_s "
            + " ".join(f"{r['run_s']:.3f}" for r in repeats)
            + ", setup_s " + " ".join(f"{r['setup_s']:.3f}" for r in repeats),
            file=sys.stderr,
        )
        return {
            "correct": correct,
            "attempted": len(job.operations) * len(repeats),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oesnn" / "__init__.py").is_file():
        print(f"perfbench: no oesnn sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
