"""Config parsing, deterministic serialization and atomic file output."""

import csv
import hashlib
import io
import json
import os
import tempfile

from .errors import ParameterError
from .geometry import (EquidistributedSpec, ObservabilitySet, example_set,
                       make_equidistributed, periodic_band)
from .spectral import DomainSpec, PotentialSpec
from .uncertainty import UniversalConstants

CONFIG_SCHEMA = "heatctl-run/1"

EXPERIMENTS = {
    "spectral-ineq": {"domain", "set", "e_max", "e_grid", "potential", "bounds",
                      "n_max"},
    "synthesize": {"domain", "set", "control_scale", "e_max", "T", "u0", "mode",
                   "s", "t_points", "potential", "n_max"},
    "bounds": {"evaluations", "miller", "tenenbaum", "regime"},
    "homogenize": {"domain", "gamma", "period0", "halvings", "e_max", "t_grid",
                   "n_max"},
    "exhaust": {"t", "L", "L_ref", "R", "omega_cut", "control"},
    "calibrate": {"target", "domain", "set", "e_max", "e_grid", "t_grid",
                  "thick", "params", "n_max"},
}

COMMON_KEYS = {"schema", "experiment", "seed", "constants", "out"}


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-heatctl-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows):
    """RFC-4180 table (CRLF, minimal quoting) as a string."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def write_outputs(out_dir, files, meta):
    """Write all artifacts atomically, then the meta file with their hashes."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(out_dir, name), text)
    meta = dict(meta)
    meta["outputs"] = {name: sha256_of(os.path.join(out_dir, name)) for name in files}
    atomic_write_text(os.path.join(out_dir, "run_meta.json"),
                      json.dumps(meta, sort_keys=True, indent=2) + "\n")


def validate_config(config):
    if not isinstance(config, dict):
        raise ParameterError("config must be a JSON object")
    if config.get("schema") != CONFIG_SCHEMA:
        raise ParameterError(f"config schema must be {CONFIG_SCHEMA!r}")
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {exp!r}")
    allowed = EXPERIMENTS[exp] | COMMON_KEYS
    unknown = set(config) - allowed
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return exp


def load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config: {exc}") from exc
    validate_config(config)
    return config


def parse_domain(data):
    if "interval" in data:
        a, b = data["interval"]
        return DomainSpec.interval(a, b, data.get("boundary", "dirichlet"))
    if "torus" in data:
        return DomainSpec.torus(*data["torus"])
    return DomainSpec.from_json(data)


def parse_set(data, seed=None):
    if data == "full":
        return ObservabilitySet.full()
    if data == "empty":
        return ObservabilitySet.empty()
    if isinstance(data, str):
        # anything else is a path to a set-schema JSON file
        try:
            with open(data) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read set file {data!r}: {exc}") from exc
    if "example" in data:
        params = {k: v for k, v in data.items() if k != "example"}
        return example_set(data["example"], **params)
    if "band" in data:
        return periodic_band(**data["band"])
    if "equidistributed" in data:
        spec_data = dict(data["equidistributed"])
        if "seed" not in spec_data and seed is not None:
            spec_data["seed"] = seed
        spec = EquidistributedSpec(**spec_data)
        return make_equidistributed(spec, data["extent"])
    return ObservabilitySet.from_json(data)


def parse_potential(data):
    if data is None:
        return None
    kw = {}
    if "constant" in data:
        kw["constant"] = float(data["constant"])
    if "boxes" in data:
        kw["boxes"] = tuple((float(c), tuple(tuple(map(float, e)) for e in b))
                            for c, b in data["boxes"])
    if "cosines" in data:
        kw["cosines"] = tuple((float(c), tuple(int(k) for k in kv))
                              for c, kv in data["cosines"])
    if not kw:
        raise ParameterError("potential spec is empty")
    return PotentialSpec(**kw)


def parse_constants(data):
    if data is None:
        return UniversalConstants()
    return UniversalConstants.from_dict(data)
