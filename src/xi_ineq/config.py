"""Evaluation configuration: every tolerance, cap and truncation rule in one place."""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and truncation choices shared by series and quadrature code.

    series_tol          relative tail tolerance for series summation
    series_max_terms    hard cap on any summation index
    quad_rel_tol        relative target for adaptive quadrature
    quad_abs_tol        absolute target for adaptive quadrature
    quad_max_depth      bisection depth cap per panel
    """

    series_tol: float = 1e-14
    series_max_terms: int = 100_000
    quad_rel_tol: float = 1e-11
    quad_abs_tol: float = 1e-13
    quad_max_depth: int = 48

    def __post_init__(self):
        for name in ("series_tol", "quad_rel_tol", "quad_abs_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        for name in ("series_max_terms", "quad_max_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # every cached series value is keyed on (y, cfg): hash the fields once,
        # not on each lookup; equality stays the dataclass's, field by field
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    def truncation_point(self, decay_rate: float, scale: float = 1.0) -> float:
        """Smallest X with scale*exp(-decay_rate*X)/decay_rate <= quad_abs_tol/10.

        Callers supply `decay_rate` (and optionally `scale`) such that the
        integrand is eventually bounded by scale*exp(-decay_rate*x).
        """
        if decay_rate <= 0.0:
            raise ValueError("decay_rate must be positive")
        target = self.quad_abs_tol / 10.0
        x = math.log(max(scale, target) / (decay_rate * target)) / decay_rate
        return max(x, 0.0)


DEFAULT_CONFIG = EvalConfig()


def config_cache(maxsize: int):
    """lru_cache whose key does not depend on how the arguments were passed.

    functools.lru_cache keys on the call form, so f(0.75),
    f(0.75, DEFAULT_CONFIG) and f(0.75, cfg=DEFAULT_CONFIG) would be three
    entries computing one value.  Here every call is bound to the full
    positional argument tuple, defaults filled in, before the lookup.
    `cache_info` and `cache_clear` are those of the underlying lru_cache.
    """
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        signature = inspect.signature(fn)
        n_params = len(signature.parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not kwargs and len(args) == n_params:
                return cached(*args)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return cached(*bound.args)

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper
    return decorate


# keys accepted in a flat "key = value" config file, mapped to field types
_FIELD_TYPES = {f.name: type(f.default) for f in fields(EvalConfig)}


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines (# comments, blank lines allowed)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def config_from_mapping(mapping: dict, base: EvalConfig | None = None) -> EvalConfig:
    """Build an EvalConfig from string values, starting from `base`.

    An unknown key raises ValueError: a misspelled tolerance would otherwise
    leave the default in force without a word.
    """
    base = base or DEFAULT_CONFIG
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}; known keys: {', '.join(_FIELD_TYPES)}")
        kwargs[key] = _FIELD_TYPES[key](value)
    return replace(base, **kwargs) if kwargs else base
