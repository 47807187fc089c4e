from __future__ import annotations

import pytest
import yaml

from mindpipe.config import PipelineConfig, load_config
from mindpipe.errors import ConfigError


def test_defaults_validate():
    config = load_config()
    assert config.backend.kind == "mock"
    assert config.pipeline.cohort_size == 200
    assert config.limits.concurrency == 1
    assert config.pipeline.word_budget_slack == 1.1


def test_yaml_file_overrides_defaults(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "backend:\n  kind: mock\n  model: my-model\nlimits:\n  rps: 2.5\n"
        "pipeline:\n  cohort_size: 5\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.backend.model == "my-model"
    assert config.limits.rps == 2.5
    assert config.pipeline.cohort_size == 5


def test_flags_win_over_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("pipeline:\n  cohort_size: 5\n", encoding="utf-8")
    config = load_config(path, overrides={"pipeline.cohort_size": 7})
    assert config.pipeline.cohort_size == 7


def test_none_overrides_ignored(tmp_path):
    config = load_config(overrides={"pipeline.cohort_size": None})
    assert config.pipeline.cohort_size == 200


def test_unknown_section_and_key_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("mystery:\n  x: 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)
    path.write_text("backend:\n  modell: typo\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="backend.modell"):
        load_config(path)


def test_validation_bounds():
    with pytest.raises(ConfigError):
        load_config(overrides={"limits.rps": 0})
    with pytest.raises(ConfigError):
        load_config(overrides={"limits.concurrency": 0})
    with pytest.raises(ConfigError):
        load_config(overrides={"pipeline.cohort_size": 0})
    with pytest.raises(ConfigError):
        load_config(overrides={"pipeline.word_budget_slack": 0.9})
    with pytest.raises(ConfigError):
        load_config(overrides={"backend.kind": "carrier-pigeon"})


def test_http_backend_requires_base_url():
    with pytest.raises(ConfigError, match="base_url"):
        load_config(overrides={"backend.kind": "http"})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


def test_snapshot_roundtrips_through_digest():
    first = PipelineConfig()
    second = PipelineConfig()
    assert first.digest_source() == second.digest_source()
    second.pipeline.cohort_size = 5
    assert first.digest_source() != second.digest_source()


@pytest.mark.parametrize(
    "key, value",
    [
        ("limits.rps", "fast"),
        ("limits.concurrency", True),
        ("pipeline.cohort_size", 2.5),
        ("backend.model", 7),
        ("paths.cache_dir", 5),
    ],
)
def test_values_of_the_wrong_type_rejected(tmp_path, key, value):
    section, _, name = key.partition(".")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    with pytest.raises(ConfigError, match=key):
        load_config(overrides={key: value})


def test_int_for_float_and_null_path_accepted(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("limits:\n  rps: 2\npaths:\n  cache_dir: null\n", encoding="utf-8")
    config = load_config(path)
    assert config.limits.rps == 2
    assert config.paths.cache_dir is None


def test_paths_recorded_absolute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.yaml"
    path.write_text("paths:\n  lexicon: lex.txt\n", encoding="utf-8")
    config = load_config(path, overrides={"paths.cache_dir": "shared"})
    assert config.paths.lexicon == str(tmp_path / "lex.txt")
    assert config.paths.cache_dir == str(tmp_path / "shared")
    assert config.paths.prompts_dir is None
