"""Config reading, deterministic serialization and atomic file output.

Every config object reaches the library through :func:`call`, which binds
its keys to the parameters, and their defaults, of the function reading it,
and reads each value by the annotation of the parameter that takes it:
``float`` and ``int`` by :func:`number`, which takes finite JSON numbers only,
``list[float]`` and ``tuple[float, ...]`` by :func:`floats` and
``dict[str, float]`` (the parameter objects of bounds) by :func:`numeric`.
"""

import csv
import functools
import hashlib
import inspect
import io
import json
import math
import numbers
import os
import sys
import tempfile

from .errors import NumericError, ParameterError
from .geometry import (EquidistributedSpec, ObservabilitySet, example_constructor,
                       make_equidistributed, periodic_band)
from .spectral import DomainSpec, PotentialSpec

CONFIG_SCHEMA = "heatctl-run/1"


def call(fn, section, where, **given):
    """``fn(**section, **given)`` once the keys of ``section`` bind to ``fn``.

    A ``section`` that is not a JSON object, or that misses a required key
    or holds an unknown one, is refused naming ``where`` and the key.  Each
    value of ``section`` other than ``null`` is then read by the reader of
    ``_READERS`` for the annotation of its parameter, or taken as it is when
    there is none.  A ``TypeError`` raised inside ``fn`` propagates unchanged.
    """
    if not isinstance(section, dict):
        raise ParameterError(f"{where} must be a JSON object, not {json.dumps(section)}")
    signature = signature_of(fn)
    try:
        signature.bind(**section, **given)
    except TypeError as exc:
        reason = str(exc).replace("keyword argument", "key").replace("argument", "key")
        raise ParameterError(f"{where}: {reason}") from exc
    section = dict(section)
    for key, value in section.items():
        read = _READERS.get(signature.parameters[key].annotation)
        if read is not None and value is not None:
            section[key] = read(value, f"{where}: {key}")
    return fn(**section, **given)


# formed once per function: a bound formula is read at every point of a sweep
signature_of = functools.lru_cache(maxsize=None)(inspect.signature)


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    """Whether the number ``value`` is finite as a double: an integer beyond
    double range is not, where ``float`` would raise ``OverflowError``."""
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def number(value, where, kind=float):
    """``value`` as a ``kind`` (``float`` or ``int``); refused naming ``where`` unless
    it is a finite number (a numpy scalar too, but not a bool), a whole one for
    ``int``."""
    whole = isinstance(value, numbers.Integral) or _is_number(value) and float(value).is_integer()
    if not _is_number(value) or kind is int and not whole:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{where} must be {noun}, not {json.dumps(value)}")
    if not _is_finite(value):
        raise ParameterError(f"{where} must be finite, not {json.dumps(value)}")
    return kind(value)


def floats(values, where, size=None):
    """``values`` as a list of floats; refused naming ``where`` unless it is a
    JSON list of finite numbers (of length ``size`` when given)."""
    if (not isinstance(values, (list, tuple)) or not all(map(_is_number, values))
            or size not in (None, len(values))):
        count = "numbers" if size is None else f"{size} numbers"
        raise ParameterError(f"{where} must be a list of {count}, not {json.dumps(values)}")
    if not all(map(_is_finite, values)):
        raise ParameterError(f"{where} must hold finite numbers, not {json.dumps(values)}")
    return [float(x) for x in values]


def numeric(section, where):
    """``section`` as it is, once it is a JSON object whose values are numbers,
    lists of numbers or ``null`` (a missing value); refused naming ``where``
    and the key otherwise."""
    if not isinstance(section, dict):
        raise ParameterError(f"{where} must be a JSON object, not {json.dumps(section)}")
    for key, value in section.items():
        if isinstance(value, (list, tuple)):
            floats(value, f"{where}: {key}")
        elif value is not None:
            number(value, f"{where}: {key}")
    return section


_READERS = {float: number, int: functools.partial(number, kind=int), list[float]: floats,
            tuple[float, ...]: floats, dict[str, float]: numeric}


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def json_text(data):
    """``data`` as the text of a JSON report: keys sorted, indented by two,
    a final newline.  Strict JSON has no ``NaN`` or infinity, so a
    non-finite number is refused with :class:`NumericError`."""
    try:
        return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"a report is not strict JSON: {exc}") from exc


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
    """RFC-4180 table (CRLF, minimal quoting) as a string.  ``None`` is an empty
    cell and a number is written by ``str``, a float in its shortest round-trip
    form.  As in :func:`json_text`, a number that is not finite is refused with
    :class:`NumericError`, naming its column and the first cell of its row."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        for column, v in zip(header, row):
            if _is_number(v) and not _is_finite(v):
                raise NumericError(f"a table is not finite: {column} is {v} in row {row[0]}")
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def write_outputs(out_dir, files, meta):
    """Write all artifacts atomically, then the meta file with their hashes."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(out_dir, name), text)
    meta = dict(meta)
    meta["outputs"] = {name: sha256_of(os.path.join(out_dir, name)) for name in files}
    atomic_write_text(os.path.join(out_dir, "run_meta.json"), json_text(meta))


def read_json(path, what):
    """The JSON document at ``path``; an unreadable one is refused naming ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {what}: {exc}") from exc


def load_config(path, experiment):
    """The ``heatctl-run/1`` config object at ``path``; refused unless it is for ``experiment``."""
    config = read_json(path, "config")
    if not isinstance(config, dict) or config.get("schema") != CONFIG_SCHEMA:
        raise ParameterError(f"config must be a JSON object of schema {CONFIG_SCHEMA!r}")
    if config.get("experiment") != experiment:
        raise ParameterError(f"config is for {config.get('experiment')!r}, not {experiment!r}")
    return config


def _interval(interval, boundary="dirichlet"):
    return DomainSpec.interval(*floats(interval, "domain interval", size=2),
                               boundary=boundary)


def _torus(torus: list[float]):
    return DomainSpec.torus(*torus)


def parse_domain(data):
    """A ``domain``: ``interval`` (with ``boundary``), ``torus``, or the fields of ``DomainSpec``."""
    fn = next((fn for key, fn in (("interval", _interval), ("torus", _torus))
               if isinstance(data, dict) and key in data), DomainSpec)
    return call(fn, data, "domain")


def _band(band):
    return call(periodic_band, band, "set band")


def _equidistributed(equidistributed, extent, *, seed):
    if not _is_box(extent):
        raise ParameterError("set: extent must be a list of [lo, hi] edges, "
                             f"not {json.dumps(extent)}")
    if isinstance(equidistributed, dict):
        equidistributed = {"seed": seed, **equidistributed}
        centers = equidistributed.get("centers")
        if centers is not None and not (isinstance(centers, (list, tuple)) and all(
                isinstance(z, (list, tuple)) and all(map(_is_number, z)) for z in centers)):
            raise ParameterError("set equidistributed: centers must be a list of lists of "
                                 f"numbers, not {json.dumps(centers)}")
    return make_equidistributed(
        call(EquidistributedSpec, equidistributed, "set equidistributed"), extent)


def _is_box(box):
    return isinstance(box, (list, tuple)) and all(
        isinstance(edge, (list, tuple)) and len(edge) == 2 and all(map(_is_number, edge))
        for edge in box)


def _set_record(kind, cell: list[float] = None, boxes=(), meta=None, schema=None):
    """A set-schema record as ``ObservabilitySet.to_json`` writes it, ``schema`` tag included."""
    if not isinstance(boxes, (list, tuple)) or not all(map(_is_box, boxes)):
        raise ParameterError("set: boxes must be a list of boxes, each a list of "
                             f"[lo, hi] edges, not {json.dumps(boxes)}")
    return ObservabilitySet.from_json({"kind": kind, "cell": cell, "boxes": boxes,
                                       "meta": meta or {}})


def parse_set(data, seed=None):
    """A ``set``: ``full``, ``empty``, a set-file path, or an object read by its key.

    ``example`` takes the example's parameters beside it, ``band`` the
    arguments of ``periodic_band``, ``equidistributed`` those of
    ``EquidistributedSpec`` (the config ``seed`` unless it sets its own) and
    an ``extent``; any other object is a set-schema record.
    """
    if data in ("full", "empty"):
        return ObservabilitySet(kind=data)
    if isinstance(data, str):
        # anything else is a path to a set-schema JSON file
        data = read_json(data, f"set file {data!r}")
    form = data if isinstance(data, dict) else {}
    if "example" in form:
        params = dict(data)
        name = params.pop("example")
        return call(example_constructor(name), params, f"set example {name!r}")
    if "band" in form:
        return call(_band, data, "set")
    if "equidistributed" in form:
        return call(_equidistributed, data, "set", seed=seed)
    return call(_set_record, data, "set")


def potential_spec(constant: float = None, boxes=None, cosines=None):
    """A ``potential``: a ``constant`` plus ``[coeff, box]`` and ``[coeff, kvec]`` terms.

    Each coefficient is read by :func:`number`, each box must be a list of
    ``[lo, hi]`` edges and each ``kvec`` a list of integer frequencies.
    """
    if constant is None and boxes is None and cosines is None:
        raise ParameterError("potential spec is empty")
    boxes = _terms(boxes, "boxes", "box", _is_box)
    cosines = _terms(cosines, "cosines", "kvec", lambda kv: isinstance(kv, (list, tuple)))
    return PotentialSpec(
        0.0 if constant is None else constant,
        tuple((c, tuple(tuple(map(float, e)) for e in b)) for c, b in boxes),
        tuple((c, tuple(number(k, "potential: cosines: each frequency", kind=int) for k in kv))
              for c, kv in cosines))


def _terms(terms, key, what, is_x):
    """The ``[coeff, x]`` terms of ``potential: key`` (none for ``None``) as pairs
    with a float ``coeff``; refused naming the key unless each ``x`` passes ``is_x``."""
    if terms is None:
        return []
    where = f"potential: {key}"
    if not isinstance(terms, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 2 and is_x(t[1]) for t in terms):
        raise ParameterError(f"{where} must be a list of [coeff, {what}] terms, "
                             f"not {json.dumps(terms)}")
    return [(number(c, f"{where}: coeff"), x) for c, x in terms]
