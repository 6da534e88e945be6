"""Scenario files: one YAML document describing a model, an SCLV, the
checks to run, and the numeric configuration.

Each key is declared once, as a field of a config dataclass that carries
its converter; a field without a default is a required key.  One reader,
``_section``, reads every mapping of the tree against its dataclass.
Parsing is strict: a wrong type, an unknown key and a missing required
key are rejected with their full path ("<path> needs a, b, and c"), and
``Scenario.to_dict`` reproduces the parsed content losslessly (defaults
excluded), so parse -> dump -> parse is stable.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "ConfigError",
    "ModelConfig",
    "SCLVConfig",
    "BGConfig",
    "GuntherConfig",
    "BGInfConfig",
    "BallConfig",
    "ChecksConfig",
    "NumericsConfig",
    "Scenario",
    "load_scenario",
    "parse_scenario",
]


class ConfigError(ValueError):
    """A scenario file (or flag set) that cannot be interpreted."""


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _float(v, path):
    if not isinstance(v, bool):   # float(True) would read as 1.0
        try:
            return float(v)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{path}: expected a number, got {v!r}")


def _int(v, path):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _bool(v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {v!r}")
    return v


def _str(v, path):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _floats(v, path):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers")
    return [_float(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _pairs(v, path):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [r, R] pairs")
    out = []
    for i, item in enumerate(v):
        pair = _floats(item, f"{path}[{i}]")
        if len(pair) != 2:
            raise ConfigError(f"{path}[{i}]: expected exactly two numbers")
        out.append((pair[0], pair[1]))
    return out


def _weight_terms(v, path):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of [kind, param] terms")
    out = []
    for i, item in enumerate(v):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{path}[{i}]: expected [kind, param]")
        out.append((_str(item[0], f"{path}[{i}][0]"),
                    _float(item[1], f"{path}[{i}][1]")))
    return out


def _params(v, path):
    node = _require_mapping(v, path)
    return {str(k): (val if isinstance(val, str)
                     else _float(val, f"{path}.{k}"))
            for k, val in node.items()}


def _key(parse, **kw):
    """A scenario key: a config field with its converter; no default means required."""
    return field(metadata={"parse": parse}, **kw)


def _listing(names):
    return (" and ".join(names) if len(names) <= 2
            else ", ".join(names[:-1]) + ", and " + names[-1])


def _section(cls, node, path):
    """One scenario mapping read into the config dataclass cls.

    Each field declared with `_key` is a key, converted by its parser;
    the first wrong type, then any unknown key, then a missing required
    key is reported with its full path.  A field whose parser is itself
    a config dataclass is a nested section, read the same way once its
    parent's own keys are settled.
    """
    keys = [(f, f.metadata["parse"]) for f in fields(cls) if "parse" in f.metadata]
    node, kw = dict(_require_mapping(node, path)), {}
    for f, parse in keys:
        if f.name in node:
            kw[f.name] = (_require_mapping if is_dataclass(parse) else parse)(
                node.pop(f.name), f"{path}.{f.name}")
    if node:
        raise ConfigError("unknown key(s): " + ", ".join(f"{path}.{k}" for k in sorted(node)))
    required = [f.name for f, _ in keys if f.default is MISSING and f.default_factory is MISSING]
    if not kw.keys() >= set(required):
        raise ConfigError(f"{path} needs {_listing(required)}")
    for f, parse in keys:
        if f.name in kw and is_dataclass(parse):
            kw[f.name] = _section(parse, kw[f.name], f"{path}.{f.name}")
    return cls(**kw)


@dataclass
class ModelConfig:
    name: str = _key(_str)
    n: int = _key(_int)
    params: dict = _key(_params, default_factory=dict)
    weight: list = _key(_weight_terms, default_factory=list)
    _model: object = field(default=None, init=False, repr=False, compare=False)

    def build(self):
        """The model, built once: every stage of a run shares it, and with it
        the jet programs recorded on it."""
        if self._model is None:
            from .models import model_library
            kwargs = dict(self.params)
            if self.weight:
                kwargs["weight"] = [tuple(t) for t in self.weight]
            try:
                self._model = model_library(self.name, self.n, **kwargs)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"model: {exc}") from exc
        return self._model


@dataclass
class SCLVConfig:
    apex: list = _key(_floats)
    radius: float = _key(_float)
    cut: float = _key(_float)
    center: list | None = _key(_floats, default=None)

    def build(self):
        from .comparison import SCLVSpec
        try:
            return SCLVSpec(apex=np.asarray(self.apex, dtype=float),
                            radius=self.radius, cut=self.cut,
                            center=None if self.center is None
                            else np.asarray(self.center, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"sclv: {exc}") from exc


# Each check's field names are its comparison function's keyword names.


@dataclass
class BGConfig:
    N: float = _key(_float)
    pairs: list = _key(_pairs)
    c: float | None = _key(_float, default=None)


@dataclass
class GuntherConfig:
    c: float | None = _key(_float, default=None)
    k: float | None = _key(_float, default=None)


@dataclass
class BGInfConfig:
    pairs: list = _key(_pairs)
    c: float | None = _key(_float, default=None)
    a: float | None = _key(_float, default=None)


@dataclass
class BallConfig:
    eps: float = _key(_float)
    r_grid: list = _key(_floats)
    c: float | None = _key(_float, default=None)


@dataclass
class ChecksConfig:
    bg: BGConfig | None = _key(BGConfig, default=None)
    gunther: GuntherConfig | None = _key(GuntherConfig, default=None)
    bg_inf: BGInfConfig | None = _key(BGInfConfig, default=None)
    ball: BallConfig | None = _key(BallConfig, default=None)

    def requested(self):
        return [f.name for f in fields(self) if getattr(self, f.name) is not None]


@dataclass
class NumericsConfig:
    ode_rtol: float = _key(_float, default=1e-10)
    ode_atol: float = _key(_float, default=1e-10)
    quad_scale: float = _key(_float, default=1.0)
    t_scan: int = _key(_int, default=32)
    t_volume: int = _key(_int, default=48)
    oracle: bool = _key(_bool, default=False)


@dataclass
class Scenario:
    name: str = _key(_str)
    model: ModelConfig = _key(ModelConfig)
    sclv: SCLVConfig = _key(SCLVConfig)
    checks: ChecksConfig = _key(ChecksConfig, default_factory=ChecksConfig)
    numerics: NumericsConfig = _key(NumericsConfig, default_factory=NumericsConfig)
    _raw: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        """The parsed tree, losslessly (defaults omitted as in the file)."""
        return _deep_copy(self._raw)


def _deep_copy(node):
    if isinstance(node, dict):
        return {k: _deep_copy(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_deep_copy(v) for v in node]
    return node


def parse_scenario(doc: dict, origin="scenario") -> Scenario:
    scen = _section(Scenario, doc, origin)
    scen._raw = _deep_copy(doc)
    n = scen.model.n
    if len(scen.sclv.apex) != n + 1:
        raise ConfigError(f"{origin}.sclv.apex: expected {n + 1} components")
    if scen.sclv.center is not None and len(scen.sclv.center) != n:
        raise ConfigError(f"{origin}.sclv.center: expected {n} components")
    return scen


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if doc is None:
        raise ConfigError(f"{path}: empty scenario file")
    return parse_scenario(doc, origin=path.name)


def scenario_fields(cfg) -> dict:
    """Dataclass -> plain dict for report embedding (None fields dropped)."""
    out = {}
    for f in fields(cfg):
        if f.name.startswith("_"):
            continue
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if hasattr(v, "__dataclass_fields__"):
            v = scenario_fields(v)
        elif isinstance(v, tuple):
            v = list(v)
        elif isinstance(v, list):
            v = [list(t) if isinstance(t, tuple) else t for t in v]
        out[f.name] = v
    return out
