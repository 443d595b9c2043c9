"""vbgk benchmark: run one workload through the CLI, check it, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Load is
closed-loop with one client: one workload process at a time, each a fresh
`python3 bench/child.py` calling vbgk.cli.main with the workload's argv and
config, until --seconds have been measured.  Every process's exit code and
output files are checked against expected.json; a process that fails the
check counts in `failed` and stays in `attempted`.

--trace 0 reports the end-to-end metrics (medians over the processes):
  wall_s       process start to exit
  setup_s      process start to the first kinetic step (import, config parse,
               validate, initial state, reference set-up, snapshot read)
  steps_per_s  Strang steps, summed over sweep members, / (wall_s - setup_s)
  peak_rss_mb  peak resident memory of the workload process
failed_frac (failed / attempted) is the `failed` and `attempted` pair of the
result line.

--trace 1 alternates untraced and traced processes (sweep_upwind also traced
at VBGK_THREADS=1) and reports per-layer metrics from the spans (medians over
the traced processes) plus trace.overhead_frac.  Metrics of a layer the
workload does not reach read 0.

Only --seed changes the input, and only for vortex_reference, whose initial
velocity is field (seed mod 32) of the seeded generator in inputs.py; the
Taylor-Green workloads are analytic.  The seed, the input field and an
environment record (nproc, versions, cache sizes against the working set) go
with the results to .bench_build/results/.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

from check import compare, fingerprint  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import (  # noqa: E402
    VORTEX_FIELDS, WORKLOADS, child_env, vortex_field_index)

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "kinetic.transport_step.calls": "count",
    "kinetic.transport_step.self_s": "s",
    "kinetic.transport_step.ms_per_call": "ms",
    "kinetic.transport_step.fft_calls": "count",
    "kinetic.transport_step.computed_bytes_per_call": "B",
    "kinetic.relaxation_step.calls": "count",
    "kinetic.relaxation_step.self_s": "s",
    "kinetic.relaxation_step.ms_per_call": "ms",
    "kinetic.relaxation_step.computed_bytes_per_call": "B",
    "model.maxwellians.calls": "count",
    "model.maxwellians.self_s": "s",
    "kinetic.strang_step.self_s": "s",
    "kinetic.run.self_s": "s",
    "diagnostics.compute_record.calls": "count",
    "diagnostics.compute_record.self_s": "s",
    "diagnostics.compute_record.ms_per_call": "ms",
    "diagnostics.compute_record.fft_calls": "count",
    "diagnostics.error_functionals.s": "s",
    "diagnostics.deviation_norms.s": "s",
    "navier_stokes.ns_step.calls": "count",
    "navier_stokes.ns_step.self_s": "s",
    "navier_stokes.ns_step.ms_per_call": "ms",
    "navier_stokes.ns_step.fft_calls": "count",
    "navier_stokes.pressure_from_velocity.calls": "count",
    "navier_stokes.pressure_from_velocity.s": "s",
    "driver.ReferenceTrajectory.at.self_s": "s",
    "grid.fft.calls": "count",
    "grid.fft.calls_per_step": "count",
    "driver.run_sweep.imbalance": "ratio",
    "driver.run_sweep.pool_busy_frac": "ratio",
    "driver.run_sweep.thread_speedup": "ratio",
    "driver.validate.s": "s",
    "model.check_subcharacteristic.s": "s",
    "model.initial_kinetic_state.s": "s",
    "snapshots.read_snapshot.s": "s",
    "snapshots.write_snapshot.calls": "count",
    "snapshots.write_snapshot.s": "s",
    "snapshots.write_snapshot.bytes": "B",
    "driver.write_records_csv.calls": "count",
    "driver.write_records_csv.s": "s",
    "driver.write_records_csv.bytes": "B",
    "trace.overhead_frac": "ratio",
}

CHILD_TIMEOUT_S = 120


def environment(workloads) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = _cache_bytes(size)
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache_bytes": caches,
        "state_bytes": {w.name: w.state_bytes for w in workloads},
        "state_over_L2": {w.name: w.state_bytes / caches["L2"] for w in workloads}
        if caches.get("L2") else None,
    }


def _cache_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


class Bench:
    """One benchmark run of one workload inside a scratch directory."""

    def __init__(self, workload, seed: int, root: Path, work: Path):
        self.wl = workload
        self.root = root
        self.work = work
        expected = json.loads((HERE / "expected.json").read_text())[workload.name]
        initial_data = None
        self.field = None
        if workload.seeded:
            from inputs import write_vortex

            self.field = vortex_field_index(seed)
            snapshot = work / "initial.vbgk"
            write_vortex(snapshot, self.field, workload.n, float(workload.config["nu"]))
            initial_data = f"file:{snapshot}"
            expected = expected[str(self.field)]
        self.expected = expected
        self.config = work / "run.cfg"
        self.config.write_text(workload.config_text(initial_data))
        self.samples: list[dict] = []

    def run_process(self, mode: str, threads: int | None = None) -> None:
        """One child process in mode plain or trace (see child.py)."""
        i = len(self.samples)
        out_dir = self.work / f"out_{i}"
        result_path = self.work / f"result_{i}.json"
        log_path = self.work / f"log_{i}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode,
               "--", *self.wl.argv(str(self.config), str(out_dir))]
        env = child_env(dict(os.environ), self.wl, str(self.root / "src"), threads)
        with open(log_path, "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            wall = time.monotonic() - t0
        sample = {"mode": mode, "threads": threads or self.wl.threads,
                  "exit_code": proc.returncode, "wall_s": wall, "problems": []}
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["run_starts"]:
            sample["problems"].append(
                f"exit code {proc.returncode}: {log_path.read_text()[-2000:]}")
        else:
            sample["setup_s"] = result["run_starts"][0] - t0
            sample["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        if not sample["problems"]:
            try:
                observed = fingerprint(self.wl, out_dir)
            except (OSError, ValueError, IndexError) as exc:
                observed = {}
                sample["problems"].append(f"unreadable output: {exc!r}")
            sample["problems"] += compare(observed, self.expected["expected"],
                                          self.expected["tolerance"])
            if mode == "trace":
                sample["layers"], sample["sweep_s"] = layer_metrics(
                    [Span(**s) for s in result["spans"]], result["fft_total"], self.wl,
                    sample["threads"])
        self.samples.append(sample)
        shutil.rmtree(out_dir, ignore_errors=True)
        for path in (result_path, log_path):
            path.unlink(missing_ok=True)

    def measure(self, seconds: float, trace: bool) -> None:
        if not trace:
            cycle = [("plain", None)]
        elif self.wl.command == "sweep":
            cycle = [("plain", None), ("trace", None), ("trace", 1)]
        else:
            cycle = [("plain", None), ("trace", None)]
        deadline = time.monotonic() + seconds
        while True:
            start = time.monotonic()
            for mode, threads in cycle:
                self.run_process(mode, threads)
            if time.monotonic() + (time.monotonic() - start) > deadline:
                break

    def _ok(self, mode: str, threads: int | None = None) -> list[dict]:
        return [s for s in self.samples if s["mode"] == mode and not s["problems"]
                and s["threads"] == (threads or self.wl.threads)]

    def end_to_end(self) -> dict:
        ok = self._ok("plain")
        steps = self.wl.steps()
        values = {
            "wall_s": [s["wall_s"] for s in ok],
            "setup_s": [s["setup_s"] for s in ok],
            "steps_per_s": [steps / (s["wall_s"] - s["setup_s"]) for s in ok],
            "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
        }
        return {k: values[k] for k in END_TO_END}

    def per_layer(self) -> dict:
        traced, plain = self._ok("trace"), self._ok("plain")
        serial = self._ok("trace", 1) if self.wl.threads != 1 else []
        values = {k: [s["layers"][k] for s in traced] for k in SPAN_METRICS}
        values["trace.overhead_frac"] = values["driver.run_sweep.thread_speedup"] = []
        if traced and plain:
            values["trace.overhead_frac"] = [_median(traced, "wall_s") / _median(plain, "wall_s")
                                             - 1.0]
            values["driver.run_sweep.thread_speedup"] = [
                _median(serial, "sweep_s") / _median(traced, "sweep_s") if serial else 0.0]
        return values


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


# per-layer metrics taken from the spans of one traced process; the other two
# compare traced processes with each other
SPAN_METRICS = [k for k in PER_LAYER
                if k not in ("trace.overhead_frac", "driver.run_sweep.thread_speedup")]
_SPAN_STATS = ("calls", "s", "self_s", "fft_calls", "bytes")


def layer_metrics(spans: list[Span], fft_total: int, wl, threads: int) -> tuple[dict, float]:
    """Per-layer numbers of one traced process, and its run_sweep seconds."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: dict.fromkeys(_SPAN_STATS, 0))
    for s in spans:
        a = agg[s.name]
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += selfs[s.id]
        a["fft_calls"] += s.fft
        a["bytes"] += s.bytes
    out = {}
    for key in SPAN_METRICS:
        layer, stat = key.rsplit(".", 1)
        a = agg[layer]
        if stat == "ms_per_call":
            out[key] = 1e3 * a["self_s"] / a["calls"] if a["calls"] else 0.0
        elif stat in a:
            out[key] = a[stat]
    # computed, not measured: one read and one write of the (5, 3, n, n) state
    out["kinetic.transport_step.computed_bytes_per_call"] = 2 * wl.state_bytes
    out["kinetic.relaxation_step.computed_bytes_per_call"] = 2 * wl.state_bytes
    out["grid.fft.calls"] = fft_total
    out["grid.fft.calls_per_step"] = fft_total / wl.steps()
    members = [s for s in spans if s.name == "driver.run_simulation"]
    out["driver.run_sweep.imbalance"] = out["driver.run_sweep.pool_busy_frac"] = 0.0
    if agg["driver.run_sweep"]["calls"] and members:
        walls = [s.end - s.start for s in members]
        pool_wall = max(s.end for s in members) - min(s.start for s in members)
        out["driver.run_sweep.imbalance"] = max(walls) / statistics.mean(walls)
        out["driver.run_sweep.pool_busy_frac"] = (
            sum(walls) / (min(threads, len(members)) * pool_wall))
    return out, agg["driver.run_sweep"]["s"]


def summarize(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)" if values else "no samples"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vbgk" / "__init__.py").is_file():
        print(f"error: no vbgk package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]
    # children import precompiled modules and write no bytecode of their own
    compileall.compile_dir(root / "src", quiet=1)
    results_dir = root / ".bench_build" / "results"
    work = root / ".bench_build" / f"work-{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(wl, args.seed, root, work)
        bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.samples)
    failed = sum(1 for s in bench.samples if s["problems"])
    env = environment(WORKLOADS.values())
    source = f"input field {bench.field} of {VORTEX_FIELDS}" if wl.seeded else "analytic input"
    print(f"workload {wl.name}  seed {args.seed}  {source}  trace {args.trace}"
          "  closed loop, 1 client")
    print("env " + json.dumps(env, sort_keys=True))
    for s in bench.samples:
        for problem in s["problems"]:
            print(f"FAILED check: {problem}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.3g}")
    values = bench.per_layer() if args.trace else bench.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        print(f"{name} [{unit}]: {summarize(values[name])}")
        if values[name]:
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "input_field": bench.field,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "samples": [{k: v for k, v in s.items() if k != "layers"} for s in bench.samples]}
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
