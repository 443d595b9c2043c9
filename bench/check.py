"""Output check: fingerprint a workload's output files and compare them with
the expected values stored in expected.json.

A fingerprint is a flat {key: number} dict:

* every records.csv (the run's, or each sweep member's) gives its row count
  and, per column, the last value, the maximum and the mean over time;
* study.csv gives every value, keyed by member epsilon and column;
* rates.txt gives every fitted slope;
* snapshot files give their count, time stamps and sizes.

Integers (row counts, file sizes) must match exactly.  Each float has its
own tolerance, stored next to it by make_expected.py.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

# snapshot header: magic, version, n, ncomp, time (see vbgk.snapshots)
_SNAPSHOT_HEADER = struct.Struct("<5sHIBd")
_SLOPE = re.compile(r"^(\w+)\s+slope\s*=\s*(\S+)")


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, rows


def records_fingerprint(path: Path, prefix: str) -> dict[str, float]:
    header, rows = _read_csv(path)
    out: dict[str, float] = {f"{prefix}.rows": len(rows)}
    for j, name in enumerate(header):
        col = [r[j] for r in rows]
        out[f"{prefix}.{name}.last"] = col[-1]
        out[f"{prefix}.{name}.max"] = max(col)
        out[f"{prefix}.{name}.mean"] = sum(col) / len(col)
    return out


def study_fingerprint(path: Path) -> dict[str, float]:
    header, rows = _read_csv(path)
    out: dict[str, float] = {"study.rows": len(rows)}
    for row in rows:
        for name, value in zip(header[1:], row[1:]):
            out[f"study.eps_{row[0]:g}.{name}"] = value
    return out


def rates_fingerprint(path: Path) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in path.read_text().splitlines():
        m = _SLOPE.match(line)
        if m:
            out[f"rates.{m.group(1)}"] = float(m.group(2))
    return out


def snapshots_fingerprint(out_dir: Path) -> dict[str, float]:
    files = sorted(out_dir.glob("snapshot_*.vbgk"))
    out: dict[str, float] = {"snapshots.count": len(files)}
    for i, f in enumerate(files):
        with open(f, "rb") as fh:
            _, _, _, _, time = _SNAPSHOT_HEADER.unpack(fh.read(_SNAPSHOT_HEADER.size))
        out[f"snapshots.{i}.time"] = time
        out[f"snapshots.{i}.bytes"] = f.stat().st_size
    return out


def fingerprint(workload, out_dir) -> dict[str, float]:
    """Fingerprint of the files one workload process wrote to out_dir."""
    out_dir = Path(out_dir)
    if workload.command == "sweep":
        fp: dict[str, float] = {}
        for eps in workload.epsilons:
            fp.update(records_fingerprint(out_dir / f"eps_{eps:g}" / "records.csv",
                                          f"eps_{eps:g}/records"))
        fp.update(study_fingerprint(out_dir / "study.csv"))
        fp.update(rates_fingerprint(out_dir / "rates.txt"))
        return fp
    fp = records_fingerprint(out_dir / "records.csv", "records")
    fp.update(snapshots_fingerprint(out_dir))
    return fp


def group(key: str) -> str:
    """Keys whose values share one magnitude scale for the absolute tolerance.

    A records column over its statistics; a study column over the members,
    with the three pressure-pairing mismatches as one group (the sin x sin y
    pairing is zero by symmetry and only round-off remains of it).
    """
    if key.startswith("study."):
        column = key.rsplit(".", 1)[1]
        return "study.press_err" if column.startswith("press_err") else "study." + column
    if key.startswith("snapshots."):
        return "snapshots." + key.rsplit(".", 1)[1]
    if key.startswith("rates."):
        return "rates"
    return key.rsplit(".", 1)[0]


def compare(observed: dict, expected: dict, tolerance: dict) -> list[str]:
    """Human-readable mismatches; empty when the outputs agree."""
    problems = []
    for key, want in expected.items():
        if key not in observed:
            problems.append(f"{key}: missing")
            continue
        got = observed[key]
        if isinstance(want, int):
            if got != want:
                problems.append(f"{key}: {got!r} != {want!r}")
        elif not abs(got - want) <= tolerance[key]:
            problems.append(
                f"{key}: {got!r} differs from {want!r} by more than {tolerance[key]:.3g}")
    for key in observed.keys() - expected.keys():
        problems.append(f"{key}: unexpected")
    return problems
