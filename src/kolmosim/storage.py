"""Persistence: binary state snapshots, the diagnostics CSV, and the flat
key = value run configuration with sectioned canonical form.

Snapshot layout (little-endian): magic "KOLM", version u16, d u16, n u32,
t f64, then for each of the d+2 fields (v_1..v_d, omega, b) a u64 mode count
followed by (k: d x i32, re: f64, im: f64) records in lexicographic k order.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .spectral import REAL_TOL, SpectralField, VectorSpectralField, _geometry
from .system import SimState

MAGIC = b"KOLM"
VERSION = 1

CSV_COLUMNS = ["t", "hs_v", "hs_omega", "hs_b", "triple_sq", "min_omega",
               "max_omega", "min_b", "nu_min", "energy_lhs",
               "energy_rhs_bound", "div_residual", "realness_residual"]


class SnapshotError(Exception):
    pass


def _field_records(f: SpectralField) -> Tuple[np.ndarray, np.ndarray]:
    """All ball modes in lexicographic k order (C-order of the cube)."""
    geo = _geometry(f.dim, f.cutoff)
    ks = geo.k[:, geo.ball].T          # (m, d), C-order = lexicographic
    return ks.astype(np.int32), f.coeffs[geo.ball]


def save_snapshot(state: SimState, path: str) -> None:
    d, n = state.dim, state.cutoff
    chunks = [MAGIC, struct.pack("<HHId", VERSION, d, n, state.t)]
    for f in state.fields():
        ks, cs = _field_records(f)
        chunks.append(struct.pack("<Q", len(cs)))
        rec = np.zeros(len(cs), dtype=_record_dtype(d))
        rec["k"] = ks
        rec["re"] = cs.real
        rec["im"] = cs.imag
        chunks.append(rec.tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(chunks))
    os.replace(tmp, path)


def _record_dtype(d: int) -> np.dtype:
    return np.dtype([("k", "<i4", (d,)), ("re", "<f8"), ("im", "<f8")])


def load_snapshot(path: str, expect_dim: Optional[int] = None,
                  allow_asymmetric: bool = False) -> SimState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise SnapshotError(f"bad magic at offset 0: {raw[:4]!r}")
    off = 4
    try:
        version, d, n, t = struct.unpack_from("<HHId", raw, off)
    except struct.error as exc:
        raise SnapshotError(f"truncated header at offset {off}") from exc
    off += struct.calcsize("<HHId")
    if version != VERSION:
        raise SnapshotError(f"unsupported version {version} at offset 4")
    if expect_dim is not None and d != expect_dim:
        raise SnapshotError(f"dimension mismatch: snapshot d={d}, run d={expect_dim}")
    if d < 1 or n < 1:
        raise SnapshotError(f"invalid layout d={d}, n={n}")

    dtype = _record_dtype(d)
    fields = []
    for _ in range(d + 2):
        if off + 8 > len(raw):
            raise SnapshotError(f"truncated field header at offset {off}")
        (count,) = struct.unpack_from("<Q", raw, off)
        off += 8
        nbytes = count * dtype.itemsize
        if off + nbytes > len(raw):
            raise SnapshotError(f"truncated records at offset {off}")
        rec = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        off += nbytes
        f = SpectralField.zeros(d, n)
        if count:
            idx = tuple(rec["k"][:, a] + (n - 1) for a in range(d))
            if np.any(np.sum(rec["k"].astype(np.int64) ** 2, axis=1) >= n * n):
                raise SnapshotError("mode outside the cutoff ball")
            f.coeffs[idx] = rec["re"] + 1j * rec["im"]
        fields.append(f)
    if off != len(raw):
        raise SnapshotError(f"{len(raw) - off} trailing bytes at offset {off}")

    state = SimState(VectorSpectralField(tuple(fields[:d])),
                     fields[d], fields[d + 1], t)
    if not allow_asymmetric and state.realness_residual() > REAL_TOL:
        raise SnapshotError("coefficients are not conjugate-symmetric "
                            "(pass allow_asymmetric to load anyway)")
    return state


# -- diagnostics CSV ---------------------------------------------------------------


def write_diagnostics_csv(path: str, rows: List[Dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: repr(float(row[c])) for c in CSV_COLUMNS})


def read_diagnostics_csv(path: str) -> List[Dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema: {reader.fieldnames}")
        return [{c: float(row[c]) for c in CSV_COLUMNS} for row in reader]


# -- run configuration -------------------------------------------------------------


_CONFIG_SECTIONS = {
    "model": ["d", "n", "s", "alpha", "oversample", "omega_min0", "omega_max0",
              "b_min0"],
    "initial": ["kind", "preset", "snapshot", "seed", "rho", "v_scale"],
    "integrator": ["method", "dt", "abs_tol", "rel_tol", "t_end",
                   "monitor_every", "reproject_every", "blowup_factor"],
    "constants": ["c_tilde", "gamma"],
    "output": ["directory"],
}

_DEFAULTS = {
    "d": 2, "n": 16, "s": 2.0, "alpha": 1.0, "oversample": 4,
    "omega_min0": 0.5, "omega_max0": 2.0, "b_min0": 0.5,
    "kind": "random", "preset": "", "snapshot": "", "seed": 0, "rho": 2.0,
    "v_scale": 0.25,
    "method": "rk45", "dt": 1e-3, "abs_tol": 1e-8, "rel_tol": 1e-8,
    "t_end": 1.0, "monitor_every": 10, "reproject_every": 1,
    "blowup_factor": 10.0,
    "c_tilde": 1.0, "gamma": 0.0,
    "directory": "out",
}

_INT_KEYS = {"d", "n", "oversample", "seed", "monitor_every", "reproject_every"}
_STR_KEYS = {"kind", "preset", "snapshot", "method", "directory"}


@dataclass
class RunConfig:
    values: Dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    def __setitem__(self, key, value):
        if key not in _DEFAULTS:
            raise KeyError(f"unknown config key: {key}")
        self.values[key] = _coerce(key, value)

    def validate(self) -> None:
        v = self.values
        if v["d"] < 2:
            raise ValueError("hypothesis violated: d >= 2 required")
        if v["s"] <= v["d"] / 2:
            raise ValueError(f"hypothesis violated: s > d/2 required "
                             f"(s={v['s']}, d={v['d']})")
        if v["n"] < 1:
            raise ValueError("n must be >= 1")
        if not (0 < v["omega_min0"] <= v["omega_max0"]):
            raise ValueError("hypothesis violated: 0 < omega_min0 <= omega_max0")
        if v["b_min0"] <= 0:
            raise ValueError("hypothesis violated: b_min0 > 0")
        if v["alpha"] <= 0:
            raise ValueError("alpha must be positive")
        if v["kind"] not in ("random", "preset", "snapshot"):
            raise ValueError(f"unknown initial-data kind {v['kind']!r}")
        if v["c_tilde"] <= 0:
            raise ValueError("c_tilde must be positive")


def _coerce(key: str, value):
    if key in _STR_KEYS:
        return str(value)
    if key in _INT_KEYS:
        return int(value)
    return float(value)


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    section = None
    known = {k for keys in _CONFIG_SECTIONS.values() for k in keys}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _CONFIG_SECTIONS:
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if section is not None and key not in _CONFIG_SECTIONS[section]:
            raise ValueError(f"line {lineno}: key {key!r} not in section "
                             f"[{section}]")
        config[key] = raw.strip()
    return config


def print_config(config: RunConfig) -> str:
    """Canonical text form; parse(print(parse(x))) is a fixpoint."""
    lines = []
    for section, keys in _CONFIG_SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = config[key]
            if key in _STR_KEYS:
                lines.append(f"{key} = {value}")
            elif key in _INT_KEYS:
                lines.append(f"{key} = {value:d}")
            else:
                lines.append(f"{key} = {value!r}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def save_config(config: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(print_config(config))


# -- output directory ownership ----------------------------------------------------


class OutputLock:
    """A lock file marking single-command ownership of an output directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, ".kolmosim-lock")
        self._fd = None

    def __enter__(self):
        os.makedirs(self.directory, exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory {self.directory!r} is owned by another "
                f"run (lock file {self.path} exists)") from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.unlink(self.path)
        return False
