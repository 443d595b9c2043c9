"""Regenerate bench/expected.json: the outputs every timed run is checked against.

    python3 bench/make_expected.py        (from the repository root)

Each workload (and each of the vortex_reference input fields) runs in this
process through vbgk.cli.main, once as is and twice with relative noise of
NOISE injected into the state after every transport substep, 100 times the
round-off a reordered FFT adds per step.  A value's tolerance is

    SAFETY * (largest change the noise caused) + RTOL * (|value| + scale)

where scale is the largest magnitude in the value's group (check.group).
Outputs that amplify round-off (the eps = 0.025 sweep member sits in the
model's linearly unstable band) thus get loose tolerances, and outputs that do
not stay tight enough to catch a wrong answer.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from check import fingerprint, group  # noqa: E402
from inputs import write_vortex  # noqa: E402
from workloads import VORTEX_FIELDS, WORKLOADS  # noqa: E402

NOISE = 1e-14
SAFETY = 10.0
RTOL = 1e-9
SLOPE_PRINT_QUANTUM = 1e-4   # rates.txt prints slopes to four decimals


def run_once(workload, tmp: Path, initial_data, noise_seed=None) -> dict:
    from vbgk import cli, kinetic
    from vbgk.model import KineticState

    cfg = tmp / "run.cfg"
    cfg.write_text(workload.config_text(initial_data))
    out = tmp / f"out_{noise_seed}"
    transport = kinetic.transport_step
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)

        def noisy(state, dt, mode="spectral"):
            s = transport(state, dt, mode)
            f = s.f * (1.0 + NOISE * rng.standard_normal(s.f.shape))
            return KineticState(grid=s.grid, params=s.params, f=f)

        kinetic.transport_step = noisy
    try:
        code = cli.main(workload.argv(str(cfg), str(out)))
    finally:
        kinetic.transport_step = transport
    if code != 0:
        raise SystemExit(f"{workload.name}: vbgk exited with {code}")
    return fingerprint(workload, out)


def _scratch():
    base = HERE.parent / ".bench_build"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def expected_entry(workload, initial_data=None) -> dict:
    with _scratch() as tmp:
        tmp = Path(tmp)
        golden = run_once(workload, tmp, initial_data)
        perturbed = [run_once(workload, tmp, initial_data, seed) for seed in (1, 2)]
    scale: dict[str, float] = {}
    for key, value in golden.items():
        g = group(key)
        scale[g] = max(scale.get(g, 0.0), abs(value))
    tolerance = {}
    for key, value in golden.items():
        if isinstance(value, int):
            continue
        dev = max(abs(p[key] - value) for p in perturbed)
        tol = SAFETY * dev + RTOL * (abs(value) + scale[group(key)])
        if key.startswith("rates."):
            tol += SLOPE_PRINT_QUANTUM
        tolerance[key] = tol
    return {"expected": golden, "tolerance": tolerance}


def main() -> int:
    os.environ["VBGK_THREADS"] = "1"

    import vbgk

    data = {
        "generated_with": {"vbgk": vbgk.__version__, "numpy": np.__version__,
                           "python": platform.python_version()},
        "noise": NOISE, "safety": SAFETY, "rtol": RTOL,
    }
    for name, wl in WORKLOADS.items():
        if not wl.seeded:
            data[name] = expected_entry(wl)
            print(f"{name}: done", flush=True)
            continue
        fields = {}
        with _scratch() as tmp:
            for index in range(VORTEX_FIELDS):
                path = Path(tmp) / f"field_{index}.vbgk"
                write_vortex(path, index, wl.n, float(wl.config["nu"]))
                fields[str(index)] = expected_entry(wl, f"file:{path}")
                print(f"{name} field {index}: done", flush=True)
        data[name] = fields
    (HERE / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
