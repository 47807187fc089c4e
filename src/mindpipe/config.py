"""Pipeline configuration: YAML file, CLI overrides, validation, defaults.

Flags win over the file; the file wins over built-in defaults. The
credential itself is only ever read from the environment variable named
by ``backend.api_key_env``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

BACKEND_MOCK = "mock"
BACKEND_HTTP = "http"


def packaged_path(relative: str) -> Path:
    """Resolve a data file shipped inside the package."""
    return Path(__file__).parent / relative


@dataclass
class BackendSettings:
    kind: str = BACKEND_MOCK
    base_url: str = ""
    model: str = "mock-model"
    api_key_env: str = "MINDPIPE_API_KEY"


@dataclass
class LimitSettings:
    rps: float = 4.0
    concurrency: int = 1


@dataclass
class PathSettings:
    prompts_dir: str | None = None
    lexicon: str | None = None
    cache_dir: str | None = None


@dataclass
class PipelineKnobs:
    cohort_size: int = 200


def run_cache_dir(cache_dir: str | None, run_dir: Path) -> Path:
    """The cache a run uses: ``paths.cache_dir`` if set, else ``<run>/cache``."""
    return Path(cache_dir) if cache_dir else run_dir / "cache"


@dataclass
class PipelineConfig:
    backend: BackendSettings = field(default_factory=BackendSettings)
    limits: LimitSettings = field(default_factory=LimitSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    pipeline: PipelineKnobs = field(default_factory=PipelineKnobs)

    def validate(self) -> None:
        if self.backend.kind not in (BACKEND_MOCK, BACKEND_HTTP):
            raise ConfigError(f"backend.kind must be one of mock, http: {self.backend.kind!r}")
        if self.backend.kind == BACKEND_HTTP and not self.backend.base_url:
            raise ConfigError("backend.kind=http requires backend.base_url")
        if self.limits.rps <= 0:
            raise ConfigError("limits.rps must be > 0")
        if self.limits.concurrency < 1:
            raise ConfigError("limits.concurrency must be >= 1")
        if self.pipeline.cohort_size < 1:
            raise ConfigError("pipeline.cohort_size must be >= 1")

    def prompts_dir(self) -> Path:
        if self.paths.prompts_dir:
            return Path(self.paths.prompts_dir)
        return packaged_path("prompts")

    def lexicon_path(self) -> Path:
        if self.paths.lexicon:
            return Path(self.paths.lexicon)
        return packaged_path("data/safety_lexicon.txt")

    def cache_dir(self, run_dir: Path) -> Path:
        return run_cache_dir(self.paths.cache_dir, run_dir)

    def snapshot(self) -> dict:
        """Plain-dict copy recorded in the run manifest."""
        return asdict(self)

    def digest_source(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))


def require_utf8(name: str, text: str) -> None:
    """Refuse text that no UTF-8 file can hold, such as a path with an undecodable byte."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{name} is not UTF-8: {text!r}") from None


def _set(config: PipelineConfig, dotted: str, value: object) -> None:
    """Set one ``section.key``, refusing unknown keys and values whose type is
    not the default's: an int passes for a float, a bool never passes, and a
    key that defaults to ``None`` is a path and takes a non-empty string or
    ``None``. A float must be finite, and text must encode as UTF-8."""
    section_name, _, key = dotted.partition(".")
    if section_name not in PipelineConfig.__dataclass_fields__:
        raise ConfigError(f"unknown config key: {dotted}")
    section = getattr(config, section_name)
    known = type(section).__dataclass_fields__
    if key not in known:
        raise ConfigError(f"unknown config key: {dotted}")
    default = known[key].default
    expected = str if default is None else type(default)
    accepted = (int, float) if expected is float else expected
    wrong_type = isinstance(value, bool) or not isinstance(value, accepted)
    if wrong_type and not (value is None and default is None):
        raise ConfigError(f"{dotted} must be {expected.__name__}, not {value!r}")
    if value == "" and default is None:  # os.path.abspath("") is the working directory
        raise ConfigError(f"{dotted} is empty; leave it unset for the default")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{dotted} must be finite, not {value!r}")
    if isinstance(value, str):
        require_utf8(dotted, value)
    setattr(section, key, value)


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Build a validated config from defaults, an optional file, and overrides.

    ``overrides`` uses dotted keys (e.g. ``{"limits.rps": 2.0}``) as
    produced by CLI flags; a ``None`` value leaves the key as it is. Every
    ``paths.*`` value set is made absolute against the working directory,
    so the manifest records the files the run used.
    """
    config = PipelineConfig()
    if path is not None:
        import yaml  # only a config file needs it, and most runs have none

        # unreadable, not UTF-8, not YAML, nested too deep, or an int of too many digits
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping at the top level")
        for section_name, incoming in raw.items():
            if section_name not in PipelineConfig.__dataclass_fields__:
                raise ConfigError(f"unknown config section: {section_name}")
            if incoming is None:
                continue
            if not isinstance(incoming, dict):
                raise ConfigError(f"config section '{section_name}' must be a mapping")
            for key, value in incoming.items():
                _set(config, f"{section_name}.{key}", value)
    for dotted, value in (overrides or {}).items():
        if value is not None:
            _set(config, dotted, value)
    for key, value in vars(config.paths).items():
        if value is not None:
            setattr(config.paths, key, os.path.abspath(value))
    config.validate()
    return config
