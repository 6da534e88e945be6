"""Scenario files: one YAML document describing a model, an SCLV, the
checks to run, and the numeric configuration.

Parsing is strict: unknown keys anywhere in the tree are rejected with
their full path, and ``Scenario.to_dict`` reproduces the parsed content
losslessly (defaults excluded), so parse -> dump -> parse is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


def _take(node: dict, path: str, known: dict):
    """Pop known keys; reject whatever is left, reporting full paths."""
    out = {}
    for key, conv in known.items():
        if key in node:
            out[key] = conv(node.pop(key), f"{path}.{key}")
    if node:
        extra = ", ".join(f"{path}.{k}" for k in sorted(node))
        raise ConfigError(f"unknown key(s): {extra}")
    return out


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


@dataclass
class ModelConfig:
    name: str
    n: int
    params: dict = field(default_factory=dict)
    weight: list = field(default_factory=list)
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
    apex: list
    radius: float
    cut: float
    center: list | None = None

    def build(self):
        from .comparison import SCLVSpec
        try:
            return SCLVSpec(apex=np.asarray(self.apex, dtype=float),
                            radius=self.radius, cut=self.cut,
                            center=None if self.center is None
                            else np.asarray(self.center, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"sclv: {exc}") from exc


@dataclass
class BGConfig:
    N: float
    pairs: list
    c: float | None = None


@dataclass
class GuntherConfig:
    c: float | None = None
    k: float | None = None


@dataclass
class BGInfConfig:
    pairs: list
    c: float | None = None
    a: float | None = None


@dataclass
class BallConfig:
    eps: float
    r_grid: list
    c: float | None = None


@dataclass
class ChecksConfig:
    bg: BGConfig | None = None
    gunther: GuntherConfig | None = None
    bg_inf: BGInfConfig | None = None
    ball: BallConfig | None = None

    def requested(self):
        return [name for name in ("bg", "gunther", "bg_inf", "ball")
                if getattr(self, name) is not None]


@dataclass
class NumericsConfig:
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-10
    quad_scale: float = 1.0
    t_scan: int = 32
    t_volume: int = 48
    oracle: bool = False


@dataclass
class Scenario:
    name: str
    model: ModelConfig
    sclv: SCLVConfig
    checks: ChecksConfig
    numerics: NumericsConfig
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
    raw = _deep_copy(_require_mapping(doc, origin))
    top = _take(dict(doc), origin, {
        "name": _str,
        "model": _require_mapping,
        "sclv": _require_mapping,
        "checks": _require_mapping,
        "numerics": _require_mapping,
    })
    for key in ("name", "model", "sclv"):
        if key not in top:
            raise ConfigError(f"{origin}.{key} is required")

    mk = _take(dict(top["model"]), f"{origin}.model", {
        "name": _str, "n": _int, "params": _params, "weight": _weight_terms,
    })
    if "name" not in mk or "n" not in mk:
        raise ConfigError(f"{origin}.model needs name and n")
    model = ModelConfig(**mk)

    sk = _take(dict(top["sclv"]), f"{origin}.sclv", {
        "apex": _floats, "radius": _float, "cut": _float, "center": _floats,
    })
    if not {"apex", "radius", "cut"} <= sk.keys():
        raise ConfigError(f"{origin}.sclv needs apex, radius, and cut")
    sclv = SCLVConfig(**sk)
    if len(sk["apex"]) != model.n + 1:
        raise ConfigError(f"{origin}.sclv.apex: expected {model.n + 1} components")
    if sclv.center is not None and len(sclv.center) != model.n:
        raise ConfigError(f"{origin}.sclv.center: expected {model.n} components")

    checks = ChecksConfig()
    if "checks" in top:
        ck = _take(dict(top["checks"]), f"{origin}.checks", {
            "bg": _require_mapping, "gunther": _require_mapping,
            "bg_inf": _require_mapping, "ball": _require_mapping,
        })
        if "bg" in ck:
            kw = _take(dict(ck["bg"]), f"{origin}.checks.bg",
                       {"N": _float, "pairs": _pairs, "c": _float})
            if not {"N", "pairs"} <= kw.keys():
                raise ConfigError(f"{origin}.checks.bg needs N and pairs")
            checks.bg = BGConfig(**kw)
        if "gunther" in ck:
            kw = _take(dict(ck["gunther"]), f"{origin}.checks.gunther",
                       {"c": _float, "k": _float})
            checks.gunther = GuntherConfig(**kw)
        if "bg_inf" in ck:
            kw = _take(dict(ck["bg_inf"]), f"{origin}.checks.bg_inf",
                       {"pairs": _pairs, "c": _float, "a": _float})
            if "pairs" not in kw:
                raise ConfigError(f"{origin}.checks.bg_inf needs pairs")
            checks.bg_inf = BGInfConfig(**kw)
        if "ball" in ck:
            kw = _take(dict(ck["ball"]), f"{origin}.checks.ball",
                       {"eps": _float, "r_grid": _floats, "c": _float})
            if not {"eps", "r_grid"} <= kw.keys():
                raise ConfigError(f"{origin}.checks.ball needs eps and r_grid")
            checks.ball = BallConfig(**kw)

    numerics = NumericsConfig()
    if "numerics" in top:
        nk = _take(dict(top["numerics"]), f"{origin}.numerics", {
            "ode_rtol": _float, "ode_atol": _float, "quad_scale": _float,
            "t_scan": _int, "t_volume": _int, "oracle": _bool,
        })
        numerics = NumericsConfig(**nk)

    return Scenario(name=top["name"], model=model, sclv=sclv,
                    checks=checks, numerics=numerics, _raw=raw)


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
