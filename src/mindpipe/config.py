"""Pipeline configuration: YAML file, CLI overrides, validation, defaults.

Flags win over the file; the file wins over built-in defaults. The
credential itself is only ever read from the environment variable named
by ``backend.api_key_env``.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError

BACKEND_MOCK = "mock"
BACKEND_HTTP = "http"


def packaged_path(relative: str) -> Path:
    """Resolve a data file shipped inside the package."""
    return Path(importlib.resources.files("mindpipe") / relative)


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
class RetrySettings:
    max_attempts: int = 4


@dataclass
class PathSettings:
    prompts_dir: str | None = None
    lexicon: str | None = None
    cache_dir: str | None = None


@dataclass
class PipelineKnobs:
    cohort_size: int = 200
    event_content_budget: int = 500
    word_budget_slack: float = 1.1


def run_cache_dir(cache_dir: str | None, run_dir: Path) -> Path:
    """The cache a run uses: ``paths.cache_dir`` if set, else ``<run>/cache``."""
    return Path(cache_dir) if cache_dir else run_dir / "cache"


@dataclass
class PipelineConfig:
    backend: BackendSettings = field(default_factory=BackendSettings)
    limits: LimitSettings = field(default_factory=LimitSettings)
    retry: RetrySettings = field(default_factory=RetrySettings)
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
        if self.retry.max_attempts < 1:
            raise ConfigError("retry.max_attempts must be >= 1")
        if self.pipeline.cohort_size < 1:
            raise ConfigError("pipeline.cohort_size must be >= 1")
        if self.pipeline.event_content_budget < 1:
            raise ConfigError("pipeline.event_content_budget must be >= 1")
        if self.pipeline.word_budget_slack < 1.0:
            raise ConfigError("pipeline.word_budget_slack must be >= 1.0")

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


_SECTION_FIELDS = {
    "backend": BackendSettings,
    "limits": LimitSettings,
    "retry": RetrySettings,
    "paths": PathSettings,
    "pipeline": PipelineKnobs,
}


def _apply_mapping(config: PipelineConfig, data: dict) -> None:
    for section_name, section_cls in _SECTION_FIELDS.items():
        incoming = data.get(section_name)
        if incoming is None:
            continue
        if not isinstance(incoming, dict):
            raise ConfigError(f"config section '{section_name}' must be a mapping")
        section = getattr(config, section_name)
        valid = set(section_cls.__dataclass_fields__)
        for key, value in incoming.items():
            if key not in valid:
                raise ConfigError(f"unknown config key: {section_name}.{key}")
            setattr(section, key, value)
    unknown = set(data) - set(_SECTION_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Build a validated config from defaults, an optional file, and overrides.

    ``overrides`` uses dotted keys (e.g. ``{"limits.rps": 2.0}``) as
    produced by CLI flags.
    """
    config = PipelineConfig()
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from None
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping at the top level")
        _apply_mapping(config, raw)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        section_name, _, key = dotted.partition(".")
        if section_name not in _SECTION_FIELDS or not key:
            raise ConfigError(f"unknown override: {dotted}")
        section = getattr(config, section_name)
        if key not in type(section).__dataclass_fields__:
            raise ConfigError(f"unknown override: {dotted}")
        setattr(section, key, value)
    config.validate()
    return config
