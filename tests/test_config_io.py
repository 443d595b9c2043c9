import dataclasses
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vbgk.config import RunConfig, parse_config, parse_config_text
from vbgk.errors import ConfigError
from vbgk.snapshots import read_snapshot, write_snapshot

GOOD = """
# Taylor-Green benchmark configuration
epsilon = 0.1
tau = 1.0
lambda = 2.0
nu = 0.01
rho_bar = 1.0
n = 64
t_end = 0.5
record_every = 10   # diagnostics cadence
initial_data = taylor_green
s_prime = 2.0
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.epsilon == 0.1
    assert cfg.lam == 2.0
    assert cfg.n == 64
    assert cfg.c_relax == 1.0  # default
    assert cfg.record_every == 10
    assert cfg.initial_data == "taylor_green"
    assert cfg.s == 3.5  # default


def test_parse_reports_line_numbers():
    bad = GOOD + "\nwhat is this line\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(bad)
    assert exc_info.value.line == len(GOOD.splitlines()) + 2
    assert "key = value" in str(exc_info.value)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD + "\nmystery = 3\n")
    assert exc_info.value.line is not None
    assert "unknown key" in str(exc_info.value)


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD.replace("nu = 0.01", "nu = zero"))
    assert "expects a number" in str(exc_info.value)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config_text(GOOD + "\nepsilon = 0.2\n")


def test_parse_missing_required_keys():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text("epsilon = 0.1\n")
    assert "missing required" in str(exc_info.value)


def test_parse_rejects_fixed_dt_policy():
    # the step is min(c_relax*tau*eps^2, 0.5*eps*dx/lam) and has no other setting
    for line in ("dt = 1e-3", "c_transp = 0.5", "dt_policy = fixed"):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as exc_info:
            parse_config_text(GOOD + "\n" + line + "\n")
        assert exc_info.value.line == len(GOOD.splitlines()) + 2


def test_readme_config_block_covers_every_key():
    # the fenced block after "Configuration is plain text", its commented
    # `# key = value` lines uncommented, parses and names every RunConfig field
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme[readme.index("Configuration is plain text"):]
    block = after.split("```\n", 2)[1]
    text = re.sub(r"^# (?=\w+ = )", "", block, flags=re.M)
    parse_config_text(text, source="README.md")
    keys = {line.split("=")[0].strip() for line in text.splitlines()
            if "=" in line.split("#", 1)[0]}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    # lam is spelled lambda, and initial_data = file:PATH sets initial_data_path
    expected = (fields - {"lam", "initial_data_path"}) | {"lambda"}
    assert keys == expected
    assert "file:" in block


def test_parse_initial_data_forms(tmp_path):
    cfg = parse_config_text(GOOD.replace("initial_data = taylor_green",
                                         "initial_data = file:u0.vbgk"))
    assert cfg.initial_data == "file" and cfg.initial_data_path == "u0.vbgk"
    for bad in ("vortex", "file(u0.vbgk)"):
        with pytest.raises(ConfigError):
            parse_config_text(GOOD.replace("initial_data = taylor_green",
                                           f"initial_data = {bad}"))


def test_parse_snapshot_times():
    cfg = parse_config_text(GOOD + "\nsnapshot_times = 0.0, 0.25, 0.5\n")
    assert cfg.snapshot_times == (0.0, 0.25, 0.5)


@pytest.mark.parametrize("value, bad", [("0.25, 0.75", "0.75"), ("-1, 0.25", "-1.0")])
def test_parse_rejects_snapshot_time_outside_the_run(value, bad):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(GOOD + f"snapshot_times = {value}\n")
    assert exc_info.value.line == len(GOOD.splitlines()) + 1
    assert str(exc_info.value) == (f"line {exc_info.value.line}: snapshot time {bad} lies "
                                   "outside [0, t_end = 0.5]")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    assert parse_config(path).n == 64
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")


def test_with_epsilon():
    cfg = parse_config_text(GOOD)
    cfg2 = cfg.with_epsilon(0.05)
    assert cfg2.epsilon == 0.05
    assert cfg2.n == cfg.n
    assert cfg.epsilon == 0.1


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    fields = rng.standard_normal((3, 16, 16))
    path = tmp_path / "snap.vbgk"
    write_snapshot(path, fields, time=0.375)
    back, t = read_snapshot(path)
    assert t == 0.375
    assert np.array_equal(back, fields)
    # writing again produces identical bytes
    path2 = tmp_path / "snap2.vbgk"
    write_snapshot(path2, fields, time=0.375)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_is_written_without_a_copy(tmp_path):
    # an n = 64 state, 480 KiB, is written from its own memory: the file is
    # the header, then the array's bytes, and no copy of them is made
    fields = np.random.default_rng(1).standard_normal((15, 64, 64))
    write_snapshot(tmp_path / "warm.vbgk", fields, time=0.5)
    tracemalloc.start()
    try:
        write_snapshot(tmp_path / "snap.vbgk", fields, time=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    header = struct.pack("<5sHIBd", b"VBGK1", 1, 64, 15, 0.5)
    assert (tmp_path / "snap.vbgk").read_bytes() == header + fields.astype("<f8").tobytes()


def test_snapshot_is_read_into_one_array(tmp_path):
    # an n = 128 velocity, 256 KiB, is read once, into the array returned
    fields = np.random.default_rng(2).standard_normal((2, 128, 128))
    path = tmp_path / "u.vbgk"
    write_snapshot(path, fields, time=0.25)
    read_snapshot(path)
    tracemalloc.start()
    try:
        back, t = read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fields.nbytes + 16 * 1024
    assert t == 0.25
    assert back.shape == fields.shape and back.tobytes() == fields.tobytes()


def test_snapshot_errors_name_the_fault(tmp_path):
    path = tmp_path / "snap.vbgk"
    write_snapshot(path, np.zeros((2, 8, 8)), time=1.5)
    raw = path.read_bytes()
    cases = {
        raw[:10]: "truncated before header",
        b"NOPE!" + raw[5:]: "has bad magic b'NOPE!'",
        raw[:5] + struct.pack("<H", 2) + raw[7:]: "has unsupported version 2",
        raw[:-8]: "payload is 1016 bytes, expected 1024",
        raw + b"x": "payload is 1025 bytes, expected 1024",
    }
    for data, message in cases.items():
        bad = tmp_path / "bad.vbgk"
        bad.write_bytes(data)
        want = f"^snapshot {re.escape(str(bad))} {re.escape(message)}$"
        with pytest.raises(ConfigError, match=want):
            read_snapshot(bad)
    with pytest.raises(ConfigError, match="^cannot read snapshot "):
        read_snapshot(tmp_path / "missing.vbgk")


def test_snapshot_header_layout(tmp_path):
    path = tmp_path / "snap.vbgk"
    write_snapshot(path, np.zeros((2, 8, 8)), time=1.5)
    raw = path.read_bytes()
    assert raw[:5] == b"VBGK1"
    assert len(raw) == 20 + 2 * 8 * 8 * 8


def test_snapshot_rejects_corruption(tmp_path):
    path = tmp_path / "snap.vbgk"
    write_snapshot(path, np.zeros((2, 8, 8)), time=1.5)
    raw = bytearray(path.read_bytes())
    raw[0:5] = b"NOPE!"
    bad = tmp_path / "bad.vbgk"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        read_snapshot(bad)
    truncated = tmp_path / "short.vbgk"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError):
        read_snapshot(truncated)
