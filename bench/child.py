"""One workload process: vbgk.cli.main(argv), then a result file.

    python3 bench/child.py RESULT_JSON MODE -- VBGK_ARGV...

MODE plain measures end to end: the only instrumentation is a probe on
kinetic.run that notes when stepping starts (time.monotonic, which is
comparable across processes), so the parent can split set-up from stepping.
MODE trace also wraps the package's layer functions with spans and counts
numpy.fft calls.  The result file holds the CLI exit code, the probe times,
the peak resident memory and, when traced, every span.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict


def install_spans(tracer) -> None:
    """The layer boundaries the traced run records."""
    import numpy

    from vbgk import diagnostics, driver, kinetic, model, navier_stokes, snapshots

    spans = [
        (kinetic, "run"), (kinetic, "strang_step"), (kinetic, "transport_step"),
        (kinetic, "relaxation_step"),
        (model, "maxwellians"), (model, "check_subcharacteristic"),
        (model, "initial_kinetic_state"),
        (diagnostics, "compute_record"), (diagnostics, "error_functionals"),
        (diagnostics, "deviation_norms"),
        (navier_stokes, "ns_step"), (navier_stokes, "pressure_from_velocity"),
        (driver, "validate"), (driver, "run_sweep"),
        (snapshots, "read_snapshot"),
    ]
    for module, attr in spans:
        tracer.wrap(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    tracer.wrap(driver.ReferenceTrajectory, "at", "driver.ReferenceTrajectory.at")
    # the request id of every span below a member run is that member's epsilon
    tracer.wrap(driver, "run_simulation", "driver.run_simulation",
                request=lambda cfg, *a, **k: cfg.epsilon)
    tracer.wrap(driver, "write_records_csv", "driver.write_records_csv",
                out_path=lambda records, path: path)
    tracer.wrap(snapshots, "write_snapshot", "snapshots.write_snapshot",
                out_path=lambda path, *a, **k: path)
    tracer.count_fft(numpy.fft)


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]

    from vbgk import cli, kinetic

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        install_spans(tracer)

    run_starts: list[float] = []
    stepping = kinetic.run

    def probe(*args, **kwargs):
        run_starts.append(time.monotonic())
        return stepping(*args, **kwargs)

    kinetic.run = probe
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        kinetic.run = stepping
        if tracer is not None:
            tracer.uninstall()

    write_result(result_path, code, run_starts, tracer)
    return code


def write_result(path, code: int, run_starts: list[float], tracer) -> None:
    result = {
        "exit_code": code,
        "run_starts": run_starts,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = [asdict(s) for s in tracer.spans]
        result["fft_total"] = tracer.fft_total()
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
