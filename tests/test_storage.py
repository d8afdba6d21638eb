"""Snapshot format, diagnostics CSV, run configuration, and the output lock."""

import math
import os
import struct

import numpy as np
import pytest

from kolmosim.cutoffs import InitialBounds
from kolmosim.estimates import RandomFieldSpec, admissible_state
from kolmosim.spectral import _geometry
from kolmosim.storage import (CSV_COLUMNS, MAGIC, OutputLock, RunConfig,
                              SnapshotError, load_snapshot, parse_config,
                              print_config, read_diagnostics_csv,
                              save_snapshot, write_diagnostics_csv)
from kolmosim.system import SimState

BOUNDS = InitialBounds(b_min0=0.5, omega_min0=0.5, omega_max0=2.0, alpha=1.0)


def random_state(dim=2, cutoff=4, seed=0, t=0.0):
    spec = RandomFieldSpec(dim=dim, cutoff=cutoff, rho=2.0, seed=seed)
    state = admissible_state(spec, BOUNDS)
    return SimState(state.v, state.omega, state.b, t)


def states_equal(a: SimState, b: SimState) -> bool:
    if a.t != b.t or a.dim != b.dim or a.cutoff != b.cutoff:
        return False
    return all(np.array_equal(fa.coeffs, fb.coeffs)
               for fa, fb in zip(a.fields(), b.fields()))


# -- snapshots ----------------------------------------------------------------------


def test_snapshot_roundtrip_bit_exact(tmp_path):
    state = random_state(dim=2, cutoff=6, seed=3, t=0.123456789012345)
    path = str(tmp_path / "a.kolm")
    save_snapshot(state, path)
    assert not os.path.exists(path + ".tmp")
    loaded = load_snapshot(path)
    assert states_equal(state, loaded)


def test_snapshot_roundtrip_many_random(tmp_path):
    path = str(tmp_path / "r.kolm")
    rng = np.random.default_rng(11)
    for i in range(100):
        dim = int(rng.integers(2, 4))
        cutoff = int(rng.integers(2, 5))
        t = float(rng.uniform(0, 10))
        state = random_state(dim=dim, cutoff=cutoff, seed=i, t=t)
        save_snapshot(state, path)
        assert states_equal(state, load_snapshot(path))


def test_snapshot_file_size_matches_layout(tmp_path):
    dim, cutoff = 2, 5
    state = random_state(dim=dim, cutoff=cutoff)
    path = str(tmp_path / "size.kolm")
    save_snapshot(state, path)
    modes = int(np.count_nonzero(_geometry(dim, cutoff).ball))
    record = 4 * dim + 16
    expected = 4 + struct.calcsize("<HHId") + (dim + 2) * (8 + modes * record)
    assert os.path.getsize(path) == expected


def test_snapshot_triple_norm_survives(tmp_path):
    state = random_state(dim=3, cutoff=3, seed=7, t=2.5)
    path = str(tmp_path / "n.kolm")
    save_snapshot(state, path)
    loaded = load_snapshot(path)
    assert loaded.triple_norm_sq(2.0) == state.triple_norm_sq(2.0)


def test_bad_magic_reports_offset_zero(tmp_path):
    path = str(tmp_path / "bad.kolm")
    save_snapshot(random_state(), path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"NOPE"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SnapshotError, match="magic at offset 0"):
        load_snapshot(path)


def test_unsupported_version_rejected(tmp_path):
    path = str(tmp_path / "v.kolm")
    save_snapshot(random_state(), path)
    raw = bytearray(open(path, "rb").read())
    raw[4:6] = struct.pack("<H", 99)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SnapshotError, match="version 99"):
        load_snapshot(path)


def test_dimension_mismatch_rejected(tmp_path):
    path = str(tmp_path / "d.kolm")
    save_snapshot(random_state(dim=2), path)
    with pytest.raises(SnapshotError, match="dimension mismatch"):
        load_snapshot(path, expect_dim=3)
    assert load_snapshot(path, expect_dim=2).dim == 2


def test_truncated_file_rejected(tmp_path):
    path = str(tmp_path / "t.kolm")
    save_snapshot(random_state(cutoff=3), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-5])
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(path)
    open(path, "wb").write(raw[:10])
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(path)


def test_repeated_or_unordered_mode_rejected(tmp_path):
    # Hand-built snapshot: d=2, n=3, no velocity records, b = 1, and omega
    # listing two records out of strict lexicographic order.  The second
    # record starts at byte 20 (header) + 3 * 8 (counts) + 24 (one record).
    d, n = 2, 3
    dtype = np.dtype([("k", "<i4", (d,)), ("re", "<f8"), ("im", "<f8")])
    one = np.zeros(1, dtype=dtype)
    one["re"] = 1.0
    path = str(tmp_path / "order.kolm")
    for ks in (((0, 0), (0, 0)), ((0, 1), (0, 0))):
        omega = np.zeros(2, dtype=dtype)
        omega["k"] = ks
        omega["re"] = (5.0, 1.0)
        body = (struct.pack("<Q", 0) * d + struct.pack("<Q", 2) + omega.tobytes()
                + struct.pack("<Q", 1) + one.tobytes())
        open(path, "wb").write(MAGIC + struct.pack("<HHId", 1, d, n, 0.0) + body)
        with pytest.raises(SnapshotError, match=r"field omega: mode \(0, 0\) repeated or out "
                                                r"of lexicographic order at offset 68"):
            load_snapshot(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "x.kolm")
    save_snapshot(random_state(cutoff=3), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw + b"\x00\x01")
    with pytest.raises(SnapshotError, match="trailing bytes"):
        load_snapshot(path)


def test_mode_outside_ball_rejected(tmp_path):
    # Hand-built snapshot: d=2, n=2, one record per field at k=(2,0), which
    # has |k|^2 = 4 >= n^2.
    d, n = 2, 2
    rec = np.zeros(1, dtype=np.dtype([("k", "<i4", (d,)), ("re", "<f8"),
                                      ("im", "<f8")]))
    rec["k"][0] = (2, 0)
    body = (struct.pack("<Q", 1) + rec.tobytes()) * (d + 2)
    path = str(tmp_path / "ball.kolm")
    open(path, "wb").write(MAGIC + struct.pack("<HHId", 1, d, n, 0.0) + body)
    with pytest.raises(SnapshotError, match="outside the cutoff ball"):
        load_snapshot(path)


def test_one_dimensional_header_rejected(tmp_path):
    # Hand-built snapshot: d=1, n=2, one zero-mode record per field.  The
    # torus needs d >= 2, so the layout is refused as a snapshot error.
    d, n = 1, 2
    rec = np.zeros(1, dtype=np.dtype([("k", "<i4", (d,)), ("re", "<f8"),
                                      ("im", "<f8")]))
    body = (struct.pack("<Q", 1) + rec.tobytes()) * (d + 2)
    path = str(tmp_path / "line.kolm")
    open(path, "wb").write(MAGIC + struct.pack("<HHId", 1, d, n, 0.0) + body)
    with pytest.raises(SnapshotError, match="invalid layout d=1"):
        load_snapshot(path)


def test_asymmetric_coefficients_need_flag(tmp_path):
    state = random_state(cutoff=3)
    state.omega.coeffs[0, 0] += 0.5j  # breaks f(-k) = conj(f(k))
    path = str(tmp_path / "asym.kolm")
    save_snapshot(state, path)
    with pytest.raises(SnapshotError, match="conjugate-symmetric"):
        load_snapshot(path)


@pytest.mark.parametrize("where", ["omega", "t"])
def test_non_finite_snapshot_rejected(tmp_path, where):
    state = random_state(cutoff=3)
    if where == "t":
        state = SimState(state.v, state.omega, state.b, math.inf)
    else:
        state.omega.coeffs[2, 2] = np.nan
    path = str(tmp_path / "nan.kolm")
    save_snapshot(state, path)
    with pytest.raises(SnapshotError, match="non-finite"):
        load_snapshot(path)


def test_negative_time_snapshot_rejected(tmp_path):
    state = random_state(cutoff=3, t=-1.0)
    path = str(tmp_path / "past.kolm")
    save_snapshot(state, path)
    with pytest.raises(SnapshotError, match="negative time t = -1.0"):
        load_snapshot(path)


def test_non_solenoidal_snapshot_rejected(tmp_path):
    state = random_state(cutoff=3)
    state.v.components[0].coeffs[1, 2] += 0.25     # v_1 += cos(2 pi x_1) / 2
    state.v.components[0].coeffs[3, 2] += 0.25
    path = str(tmp_path / "div.kolm")
    save_snapshot(state, path)
    with pytest.raises(SnapshotError, match="div v != 0: residual"):
        load_snapshot(path)


# -- diagnostics CSV ----------------------------------------------------------------


def make_row(fill):
    return {c: fill for c in CSV_COLUMNS}


def test_csv_roundtrip_lossless(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(20):
        rows.append({c: float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
                     for c in CSV_COLUMNS})
    rows.append(make_row(1 / 3))
    rows.append(make_row(5e-324))
    rows.append(make_row(-0.0))
    rows.append(make_row(math.inf))
    path = str(tmp_path / "diag.csv")
    write_diagnostics_csv(path, rows)
    back = read_diagnostics_csv(path)
    assert len(back) == len(rows)
    for row, got in zip(rows, back):
        for c in CSV_COLUMNS:
            assert got[c] == row[c] and math.copysign(1, got[c]) == math.copysign(1, row[c])


def test_csv_nan_roundtrip(tmp_path):
    path = str(tmp_path / "nan.csv")
    write_diagnostics_csv(path, [make_row(math.nan)])
    back = read_diagnostics_csv(path)
    assert all(math.isnan(back[0][c]) for c in CSV_COLUMNS)


def test_csv_schema_enforced(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("t,hs_v\n0.0,1.0\n")
    with pytest.raises(ValueError, match="schema"):
        read_diagnostics_csv(path)


def test_csv_header_exact(tmp_path):
    path = str(tmp_path / "h.csv")
    write_diagnostics_csv(path, [make_row(0.0)])
    header = open(path).readline().strip()
    assert header == ",".join(CSV_COLUMNS)


# -- run configuration --------------------------------------------------------------

SAMPLE_CONFIG = """
# comment line
[model]
d = 2
n = 8
s = 2.5

[integrator]
t_end = 0.25
method = rk4

[output]
directory = /tmp/somewhere
"""


def test_config_parse_and_defaults():
    config = parse_config(SAMPLE_CONFIG)
    assert config["d"] == 2 and config["n"] == 8
    assert config["s"] == 2.5
    assert config["method"] == "rk4"
    assert config["directory"] == "/tmp/somewhere"
    assert config["alpha"] == 1.0  # untouched default
    config.validate()


def test_config_print_parse_fixpoint():
    text = print_config(parse_config(SAMPLE_CONFIG))
    assert print_config(parse_config(text)) == text
    # floats keep full precision through the canonical form
    config = RunConfig()
    config["dt"] = 1 / 3
    again = parse_config(print_config(config))
    assert again["dt"] == 1 / 3


def test_config_sectionless_keys_allowed():
    config = parse_config("n = 4\ns = 3.0\n")
    assert config["n"] == 4 and config["s"] == 3.0


def test_config_unknown_key_has_line_number():
    with pytest.raises(ValueError, match="line 2.*unknown key"):
        parse_config("[model]\nbogus = 1\n")


def test_config_unknown_section():
    with pytest.raises(ValueError, match="unknown section"):
        parse_config("[turbo]\n")


def test_config_removed_key_is_unknown():
    # the fix-up runs after every accepted step, so there is no cadence key
    with pytest.raises(ValueError, match="line 2.*unknown key 'reproject_every'"):
        parse_config("[integrator]\nreproject_every = 1\n")


def test_config_key_in_wrong_section():
    with pytest.raises(ValueError, match="not in section"):
        parse_config("[model]\ndt = 0.1\n")


def test_config_malformed_line():
    with pytest.raises(ValueError, match="line 1.*key = value"):
        parse_config("just some words\n")


def test_config_unparsable_value_names_line_and_key():
    with pytest.raises(ValueError, match="line 3: config key 'n' takes int, got '2.5'"):
        parse_config("[model]\nd = 2\nn = 2.5\n")
    with pytest.raises(ValueError, match="config key 'dt' takes float, got 'x'"):
        RunConfig()["dt"] = "x"


@pytest.mark.parametrize("key, value, kind", [
    ("n", 2.5, "int"), ("seed", 7.9, "int"), ("kind", 3, "str"), ("t_end", True, "float"),
    ("n", True, "int"), ("dt", None, "float")])
def test_config_non_string_value_of_another_type_refused(key, value, kind):
    # a float was truncated to an int, and a number or bool coerced, silently
    config = RunConfig()
    with pytest.raises(ValueError, match=f"config key '{key}' takes {kind}, got {value!r}"):
        config[key] = value
    assert config[key] == RunConfig()[key]


def test_config_value_of_the_keys_type_stored():
    config = RunConfig()
    config["n"], config["t_end"], config["dt"], config["kind"] = 8, 2, 0.5, "preset"
    assert (config["n"], config["t_end"], config["dt"], config["kind"]) == (8, 2.0, 0.5, "preset")
    assert isinstance(config["t_end"], float)       # an int stands for a float


def test_config_setitem_coerces_and_rejects():
    config = RunConfig()
    config["n"] = "32"
    assert config["n"] == 32 and isinstance(config["n"], int)
    config["dt"] = "0.5"
    assert config["dt"] == 0.5
    with pytest.raises(KeyError, match="unknown config key"):
        config["flux_capacitor"] = 1


def test_config_validate_catches_hypothesis_violations():
    config = RunConfig()
    config["s"] = 1.0
    with pytest.raises(ValueError, match="hypothesis violated.*s > d/2"):
        config.validate()
    config = RunConfig()
    config["omega_min0"] = 3.0  # above omega_max0
    with pytest.raises(ValueError, match="omega_min0"):
        config.validate()
    config = RunConfig()
    config["b_min0"] = 0.0
    with pytest.raises(ValueError, match="b_min0"):
        config.validate()


# -- output lock --------------------------------------------------------------------


def test_output_lock_exclusive_and_released(tmp_path):
    target = str(tmp_path / "out")
    with OutputLock(target):
        assert os.path.exists(os.path.join(target, ".kolmosim-lock"))
        with pytest.raises(RuntimeError, match="owned by another"):
            with OutputLock(target):
                pass
    assert not os.path.exists(os.path.join(target, ".kolmosim-lock"))
    with OutputLock(target):  # reacquire after release
        pass
