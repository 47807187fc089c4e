from __future__ import annotations

import json
import os

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from mindpipe.config import PipelineConfig, load_config
from mindpipe.errors import ConfigError


def test_defaults_validate():
    config = load_config()
    assert config.backend.kind == "mock"
    assert config.pipeline.cohort_size == 200
    assert config.limits.concurrency == 1


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
        load_config(overrides={"backend.kind": "carrier-pigeon"})


def test_http_backend_requires_base_url():
    with pytest.raises(ConfigError, match="base_url"):
        load_config(overrides={"backend.kind": "http"})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"absent\.yaml"):
        load_config(tmp_path / "absent.yaml")


@pytest.mark.parametrize("key", ["prompts_dir", "lexicon", "cache_dir"])
def test_d26_an_empty_path_in_a_config_file_is_a_config_error(tmp_path, key):
    # it was once made absolute, which names the working directory
    config = tmp_path / "config.yaml"
    config.write_text(f'paths:\n  {key}: ""\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"paths\.{key} is empty; leave it unset"):
        load_config(config)


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


def test_text_that_is_not_utf8_rejected(tmp_path):
    # the manifest records the config, and no UTF-8 file can hold a lone surrogate
    path = tmp_path / "config.yaml"
    path.write_text('backend:\n  model: "m\\udcff"\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="backend.model is not UTF-8"):
        load_config(path)
    with pytest.raises(ConfigError, match="paths.cache_dir is not UTF-8"):
        load_config(overrides={"paths.cache_dir": os.fsdecode(b"c\xff")})


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


# YAML scalars as written in a file, among them every tag the safe loader
# knows and some it refuses
SCALARS = st.one_of(
    st.sampled_from([
        "~", "true", "no", ".nan", ".inf", "-.inf", "0x1F", "1_000", "1.0e+400", "''",
        '"\\ud800"', "!!binary aGk=", "!!timestamp 2001-12-14", "!!set {a, b}",
        "!!python/object/apply:os.getcwd []", "!custom x", "!!str 5", "!!int x",
        "9" * 5000, "- " * 1000 + "x", "[" * 100 + "]" * 100, "{a: [b, {c: d}]}", "*alias",
    ]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=8).map(json.dumps),
)
SECTIONS = st.sampled_from([*PipelineConfig.__dataclass_fields__, "mystery", "1"])
KEYS = st.sampled_from(
    ["kind", "base_url", "model", "rps", "concurrency", "cache_dir", "lexicon", "cohort_size", "x"]
)


@st.composite
def yaml_documents(draw) -> str:
    """A config file: one scalar, or sections that are each a scalar or keys with scalar values."""
    if draw(st.booleans()):
        return draw(SCALARS)
    lines = []
    for section, body in draw(
        st.lists(st.tuples(SECTIONS, st.one_of(SCALARS, st.lists(st.tuples(KEYS, SCALARS)))))
    ):
        if isinstance(body, str):
            lines.append(f"{section}: {body}")
        else:
            lines += [f"{section}:", *(f"  {key}: {value}" for key, value in body)]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@example(document="limits:\n  rps: " + "9" * 5000 + "\n")  # D21: PyYAML's int ValueError escaped
@given(document=yaml_documents())
def test_any_config_file_gives_a_config_or_a_config_error(document, tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.yaml"
    path.write_text(document, encoding="utf-8", errors="surrogatepass")
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert isinstance(config, PipelineConfig)
