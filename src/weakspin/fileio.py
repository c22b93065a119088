"""File formats: scenario configs, record files, result reports, CSV.

Everything is JSON with sorted keys and native float repr, which
round-trips IEEE doubles losslessly (well beyond the 12 significant
digits the solver tolerances require).  Unknown keys are rejected so a
typo in a config fails loudly instead of being ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import ParameterError
from .design import DENT_THRESHOLD_DEFAULT, GRID_DEFAULT, T_MAX_DEFAULT, grid_times
from .estimator import KAPPA_MAX_DEFAULT, EstimationResult, Records
from .protocol import OMEGA_LABELS, CouplingTensor, LocalHamiltonians, Runs, _field_of

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Config or record file is structurally invalid."""


@dataclass(frozen=True)
class ScenarioOptions:
    """Config options; a config that omits one gets the default here."""

    seed: int = 0
    noise: float = 0.0
    dent_threshold: float = DENT_THRESHOLD_DEFAULT
    grid: tuple[float, float, float] = GRID_DEFAULT  # start, stop, step
    kappa_max: float = KAPPA_MAX_DEFAULT

    def __post_init__(self):
        # grid is validated where it is parsed, by parse_grid_spec
        if not self.seed >= 0:
            raise ParameterError(f"option seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise < math.inf:
            raise ParameterError(f"option noise must be finite and >= 0, got {self.noise}")
        for name in ("dent_threshold", "kappa_max"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"option {name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    coupling: CouplingTensor
    runs: Runs
    locals_: LocalHamiltonians = field(default_factory=LocalHamiltonians.zero)
    options: ScenarioOptions = field(default_factory=ScenarioOptions)


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be an object, got {type(obj).__name__}")
    return obj


def _vector(obj, where: str) -> np.ndarray:
    try:
        v = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} is not a numeric 3-vector") from exc
    if v.shape != (3,):
        raise ConfigError(f"{where} must have exactly 3 components")
    return v


def _number(obj, where: str, kind=float):
    """obj as a kind (float or int), or ConfigError naming where it sits."""
    try:
        return kind(obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} is not a number: {obj!r}") from exc


def parse_grid_spec(spec) -> tuple[float, float, float]:
    """Parse "MIN:MAX:STEP" (or a 3-sequence) into a validated triple."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec {spec!r} is not MIN:MAX:STEP")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise ConfigError(f"grid spec {spec!r} has non-numeric parts") from exc
    else:
        try:
            start, stop, step = (float(x) for x in spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid spec {spec!r} is not a triple") from exc
    if not (0.0 < start < stop and step > 0.0):
        raise ConfigError(f"grid spec {spec!r} must satisfy 0 < MIN < MAX, STEP > 0")
    if stop > T_MAX_DEFAULT:
        raise ConfigError(f"grid spec {spec!r} has MAX above the {T_MAX_DEFAULT} us bound")
    try:
        grid_times((start, stop, step))
    except ParameterError as exc:
        raise ConfigError(f"grid spec {spec!r}: {exc}") from exc
    return start, stop, step


_NUMBER_KEYS = ("dt", "expectation")
_RUN_KEYS = ("r_i", "p", "q", "dt")
_RECORD_KEYS = ("r_i", "r_f", "p", "q", "dt", "expectation")


def _columns(docs: list, keys: tuple[str, ...], name: str) -> list[np.ndarray]:
    """One array per key from a list of row objects: (N, 3) vectors, (N,) numbers.

    Each row is parsed with _vector or _number, and a structural fault
    raises ConfigError naming the row as name[i].
    """
    columns = [[] for _ in keys]
    for i, row in enumerate(docs):
        where = f"{name}[{i}]"
        if not isinstance(row, dict):
            raise ConfigError(f"{where} must be an object")
        _reject_unknown(row, set(keys), where)
        for key in keys:
            if key not in row:
                raise ConfigError(f"{where} missing '{key}'")
        for key, column in zip(keys, columns):
            parse = _number if key in _NUMBER_KEYS else _vector
            column.append(parse(row[key], f"{where}.{key}"))
    return [
        np.array(column, dtype=float).reshape((-1,) if key in _NUMBER_KEYS else (-1, 3))
        for key, column in zip(keys, columns)
    ]


def _option(key: str, value):
    """A config option's value, parsed as its ScenarioOptions field."""
    if key == "grid":
        return parse_grid_spec(value)
    return _number(value, f"options.{key}", int if key == "seed" else float)


def parse_config(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, {"coupling_mhz", "local_fields", "runs", "options"}, "config")
    if "coupling_mhz" not in doc or "runs" not in doc:
        raise ConfigError("config requires 'coupling_mhz' and 'runs'")

    coupling_doc = doc["coupling_mhz"]
    if not isinstance(coupling_doc, dict):
        raise ConfigError("'coupling_mhz' must be an object of six components")
    _reject_unknown(coupling_doc, set(OMEGA_LABELS), "coupling_mhz")
    missing = set(OMEGA_LABELS) - set(coupling_doc)
    if missing:
        raise ConfigError(f"coupling_mhz missing component(s): {sorted(missing)}")
    coupling = CouplingTensor(
        np.array([_number(coupling_doc[k], f"coupling_mhz.{k}") for k in OMEGA_LABELS])
    )

    locals_doc = _object(doc.get("local_fields", {}), "local_fields")
    _reject_unknown(locals_doc, {"target", "probe"}, "local_fields")
    locals_ = LocalHamiltonians.from_fields(
        target=_vector(locals_doc.get("target", (0, 0, 0)), "local_fields.target"),
        probe=_vector(locals_doc.get("probe", (0, 0, 0)), "local_fields.probe"),
    )

    runs_doc = doc["runs"]
    if not isinstance(runs_doc, list) or not runs_doc:
        raise ConfigError("'runs' must be a non-empty list")
    r_i, p, q, dt = _columns(runs_doc, _RUN_KEYS, "runs")
    runs = Runs(r_i=r_i, p=p, q_tilde=q, dt=dt)

    options_doc = _object(doc.get("options", {}), "options")
    _reject_unknown(options_doc, {f.name for f in fields(ScenarioOptions)}, "options")
    options = ScenarioOptions(**{key: _option(key, value) for key, value in options_doc.items()})
    return ScenarioConfig(coupling=coupling, runs=runs, locals_=locals_, options=options)


def _load_json(path: str) -> tuple[object, str]:
    """JSON document and sha256 of a file, both from one read of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return json.loads(text), hashlib.sha256(data).hexdigest()


def load_config_file(path: str) -> tuple[ScenarioConfig, str]:
    """Config and sha256 of a config file, both from one read of its bytes."""
    doc, sha256 = _load_json(path)
    return parse_config(doc), sha256


def load_config(path: str) -> ScenarioConfig:
    return load_config_file(path)[0]


def config_to_doc(config: ScenarioConfig) -> dict:
    return {
        "coupling_mhz": dict(zip(OMEGA_LABELS, config.coupling.values.tolist())),
        "local_fields": {
            "target": _field_of(config.locals_.h_target).tolist(),
            "probe": _field_of(config.locals_.h_probe).tolist(),
        },
        "runs": runs_to_doc(config.runs),
        "options": asdict(config.options),
    }


def _rows_to_doc(keys: tuple[str, ...], arrays) -> list[dict]:
    return [dict(zip(keys, row)) for row in zip(*(a.tolist() for a in arrays))]


def runs_to_doc(runs: Runs) -> list[dict]:
    """The runs as config rows {"r_i", "p", "q", "dt"}."""
    return _rows_to_doc(_RUN_KEYS, (runs.r_i, runs.p, runs.q_tilde, runs.dt))


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_config(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(config_to_doc(config)))


def records_to_doc(records: Records, meta: dict | None = None) -> dict:
    doc = {"records": _rows_to_doc(_RECORD_KEYS, (getattr(records, k) for k in _RECORD_KEYS))}
    if meta is not None:
        doc["meta"] = meta
    return doc


def parse_records(doc: dict) -> Records:
    if not isinstance(doc, dict):
        raise ConfigError("record file root must be an object")
    _reject_unknown(doc, {"records", "meta"}, "record file")
    records_doc = doc.get("records")
    if not isinstance(records_doc, list):
        raise ConfigError("'records' must be a list")
    return Records(*_columns(records_doc, _RECORD_KEYS, "records"))


def load_records_file(path: str) -> tuple[Records, dict, str]:
    """Records, 'meta' block (empty when absent) and sha256 of a record file.

    All three come from one read, so the digest describes the bytes that
    were parsed.
    """
    doc, sha256 = _load_json(path)
    records = parse_records(doc)
    meta = doc.get("meta", {})
    return records, meta if isinstance(meta, dict) else {}, sha256


def load_records(path: str) -> Records:
    return load_records_file(path)[0]


def load_records_meta(path: str) -> dict:
    """The 'meta' block of a record file, empty when absent."""
    return load_records_file(path)[1]


def save_records(records, path: str, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(records_to_doc(records, meta)))


def report_doc(
    result: EstimationResult,
    *,
    per_record_residuals,
    provenance: dict,
    error_stats: tuple[float, float] | None = None,
) -> dict:
    """Estimate report; error_stats (mean, std in MHz) when a true tensor is known."""
    doc = {
        "coupling_mhz": dict(zip(OMEGA_LABELS, result.g_est.values.tolist())),
        "matrix_mhz": result.g_est.matrix.tolist(),
        "condition_number": result.condition_number,
        "residual_norm": result.residual_norm,
        "per_record_residuals": list(per_record_residuals),
        "provenance": provenance,
    }
    if error_stats is not None:
        doc["error_mean_mhz"], doc["error_std_mhz"] = error_stats
    return doc


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def curve_csv_lines(times, values, dent_flags) -> list[str]:
    """CSV rows: dt in us, Delta, dent flag; 12 significant digits."""
    lines = ["dt_us,delta,dent"]
    for t, v, flag in zip(times, values, dent_flags):
        lines.append(f"{t:.12g},{v:.12g},{int(flag)}")
    return lines
