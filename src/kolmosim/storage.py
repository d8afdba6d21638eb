"""Persistence: binary state snapshots, the diagnostics CSV, and the flat
key = value run configuration with sectioned canonical form.

The run configuration is declared once, in CONFIG_SCHEMA: each key's
section, default and (by the default's type) type.  RunConfig.validate
checks what no run object owns and builds the objects that own the rest
(InitialBounds, ModelParams, IntegratorConfig, ConstantModel), so every key
is checked before a run writes anything.

Snapshot layout (little-endian): magic "KOLM", version u16, d u16, n u32,
t f64, then for each of the d+2 fields (v_1..v_d, omega, b) a u64 mode count
followed by (k: d x i32, re: f64, im: f64) records in lexicographic k order.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field, fields
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .cutoffs import InitialBounds
from .diagnostics import ConstantModel
from .integrators import IntegratorConfig
from .spectral import SpectralField, VectorSpectralField, _geometry
from .system import ModelParams, SimState, state_problems

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


def load_snapshot(path: str, expect_dim: Optional[int] = None) -> SimState:
    """The state a snapshot holds; SnapshotError if malformed (a field's modes
    repeated or out of lexicographic order included) or state_problems finds
    any."""
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
    if d < 2 or n < 1:
        raise SnapshotError(f"invalid layout d={d}, n={n}")

    dtype = _record_dtype(d)
    names = [f"v_{a + 1}" for a in range(d)] + ["omega", "b"]
    fields = []
    for name in names:
        if off + 8 > len(raw):
            raise SnapshotError(f"truncated field header at offset {off}")
        (count,) = struct.unpack_from("<Q", raw, off)
        off += 8
        nbytes = count * dtype.itemsize
        if off + nbytes > len(raw):
            raise SnapshotError(f"truncated records at offset {off}")
        rec = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        start, off = off, off + nbytes
        f = SpectralField.zeros(d, n)
        if count:
            if np.any(np.sum(rec["k"].astype(np.int64) ** 2, axis=1) >= n * n):
                raise SnapshotError("mode outside the cutoff ball")
            # lexicographic k order is C order of the cube: a repeated or
            # out-of-order mode breaks the strict increase
            flat = np.ravel_multi_index(tuple(rec["k"].T + (n - 1)), f.coeffs.shape)
            bad = np.flatnonzero(np.diff(flat) <= 0) + 1
            if bad.size:
                raise SnapshotError(f"field {name}: mode {tuple(rec['k'][bad[0]].tolist())} "
                                    f"repeated or out of lexicographic order at offset "
                                    f"{start + bad[0] * dtype.itemsize}")
            f.coeffs.reshape(-1)[flat] = rec["re"] + 1j * rec["im"]    # coeffs is contiguous
        fields.append(f)
    if off != len(raw):
        raise SnapshotError(f"{len(raw) - off} trailing bytes at offset {off}")

    state = SimState(VectorSpectralField(tuple(fields[:d])),
                     fields[d], fields[d + 1], t)
    problems = state_problems(state)
    if problems:
        raise SnapshotError("; ".join(problems))
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


# section -> key -> default; a key's type is its default's type, and the
# [integrator] section is IntegratorConfig's fields.  oversample 2 is the
# smallest grid on which the quadratic fluxes are exact.  nubar's aliasing
# there (diagnostics.nu_bar_aliasing) is 1.6e-5 on the default datum at
# t = 0, a transient: the final state at t = 0.001 lies 2e-11 from the
# oversample-3 run's.  Data that need a finer grid still alias at their
# final sample, where simulate warns.
CONFIG_SCHEMA = {
    "model": {"d": 2, "n": 16, "s": 2.0, "alpha": 1.0, "oversample": 2,
              "omega_min0": 0.5, "omega_max0": 2.0, "b_min0": 0.5},
    "initial": {"kind": "random", "preset": "", "snapshot": "", "seed": 0,
                "rho": 2.0, "v_scale": 0.25},
    "integrator": {f.name: f.default for f in fields(IntegratorConfig)},
    "constants": {"c_tilde": 1.0, "gamma": 0.0},
    "output": {"directory": "out"},
}
_DEFAULTS = {key: default for keys in CONFIG_SCHEMA.values()
             for key, default in keys.items()}


class RunObjects(NamedTuple):
    """The objects a run configuration describes; each checks its own fields."""
    bounds: InitialBounds
    model: ModelParams
    integrator: IntegratorConfig
    constants: ConstantModel


@dataclass
class RunConfig:
    values: Dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    def __setitem__(self, key, value):
        """A string is parsed as the key's type; any other value must be of
        that type already (an int may stand for a float; a bool never does)."""
        if key not in _DEFAULTS:
            raise KeyError(f"unknown config key: {key}")
        kind = type(_DEFAULTS[key])
        accepted = (str, int, float) if kind is float else (str, kind)
        if isinstance(value, accepted) and not isinstance(value, bool):
            try:
                self.values[key] = kind(value)
                return
            except ValueError:
                pass
        raise ValueError(f"config key {key!r} takes {kind.__name__}, got {value!r}")

    def validate(self) -> RunObjects:
        """Check what no run object owns (d, s > d/2, n, kind, v_scale), then
        build the objects, which check every other key."""
        v = self.values
        if v["d"] < 2:
            raise ValueError("hypothesis violated: d >= 2 required")
        if not v["d"] / 2 < v["s"] < math.inf:
            raise ValueError(f"hypothesis violated: finite s > d/2 required "
                             f"(s={v['s']}, d={v['d']})")
        if v["n"] < 1:
            raise ValueError("n must be >= 1")
        if v["kind"] not in ("random", "preset", "snapshot"):
            raise ValueError(f"unknown initial-data kind {v['kind']!r}")
        if not math.isfinite(v["v_scale"]):
            raise ValueError(f"v_scale must be finite, got {v['v_scale']!r}")
        bounds = InitialBounds(b_min0=v["b_min0"], omega_min0=v["omega_min0"],
                               omega_max0=v["omega_max0"], alpha=v["alpha"])
        return RunObjects(
            bounds,
            ModelParams(alpha=v["alpha"], s=v["s"], bounds=bounds,
                        oversample=v["oversample"]),
            IntegratorConfig(**{key: v[key] for key in CONFIG_SCHEMA["integrator"]}),
            ConstantModel(v["c_tilde"], v["gamma"]))


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in CONFIG_SCHEMA:
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if section is not None and key not in CONFIG_SCHEMA[section]:
            raise ValueError(f"line {lineno}: key {key!r} not in section "
                             f"[{section}]")
        try:
            config[key] = raw.strip()
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return config


def print_config(config: RunConfig) -> str:
    """Canonical text form; parse(print(parse(x))) is a fixpoint."""
    lines = []
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = config[key]
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


# -- output directory ownership ----------------------------------------------------


class OutputLock:
    """A lock file marking single-command ownership of an output directory.

    It is removed on every exit a process survives; a process killed outright
    (SIGKILL) leaves it behind, and it must then be deleted by hand."""

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
                f"run (lock file {self.path} exists; if no run is using the "
                f"directory, one was killed: delete the lock file by hand)") from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.unlink(self.path)
        return False
