from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable

import pytest

from mindpipe import pipeline
from mindpipe.config import load_config, packaged_path
from mindpipe.errors import BackendError, BackendExhaustedError
from mindpipe.llm.completion import CompletionRequest
from mindpipe.llm.mock_backend import MockBackend
from mindpipe.llm.session import REASK_REMINDER, LlmSession
from mindpipe.llm.templates import load_template

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus.jsonl"

SAFETY_USERS = {"kestrel_dun", "larch_fell"}
COHORT_SIZE = 12

# the templates whose answers are generated about a user, as opposed to screening them
GENERATIVE = {
    "diagnosis", "recommendation", "relation",
    "summary_non_temporal", "summary_temporal",
    "extract_features", "extract_temporal",
}

NON_RETRYABLE = "injected non-retryable failure"
EXHAUSTED = "injected exhaustion"


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def templates():
    loaded = map(load_template, sorted(packaged_path("prompts").glob("*.txt")))
    return {template.name: template for template in loaded}


@pytest.fixture()
def mock_session(templates) -> LlmSession:
    backend = MockBackend(packaged_path("data/mock_rules.json"))
    return LlmSession(backend, templates, model="mock-model")


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory) -> Path:
    """One completed mock run over the fixture corpus, shared read-only."""
    run_dir = tmp_path_factory.mktemp("fixture_run")
    config = load_config(overrides={"pipeline.cohort_size": COHORT_SIZE})
    pipeline.run_all(config, [CORPUS], run_dir)
    return run_dir


def degraded_config(concurrency: int = 1):
    return load_config(
        overrides={"pipeline.cohort_size": COHORT_SIZE, "limits.concurrency": concurrency}
    )


def _reask(request: CompletionRequest) -> bool:
    return request.messages[-1]["content"].endswith(REASK_REMINDER)


def odd_first_byte(key: str) -> bool:
    return int(key[:2], 16) % 2 == 1


def failing_complete(
    failed: set[str], reasks_failed: list[str], fails: Callable[[str], bool] = odd_first_byte
):
    """The mock backend's ``complete``, except that a request fails when ``fails``
    holds for its cache key (by default, when the key's first byte is odd), and
    every format-reminder re-ask fails. Which exception is raised (non-retryable
    or exhausted retries) follows the key's first byte, so both kinds occur.
    Failed keys go to ``failed``, failed re-asks to ``reasks_failed``."""
    complete = MockBackend.complete

    def flaky(self, request: CompletionRequest):
        key = request.cache_key()
        byte = int(key[:2], 16)
        if fails(key) or _reask(request):
            failed.add(key)
            if _reask(request):
                reasks_failed.append(key)
            if byte % 4 < 2:
                raise BackendError(NON_RETRYABLE, status=400)
            raise BackendExhaustedError(EXHAUSTED)
        return complete(self, request)

    return flaky


def run_degraded(
    run_dir: Path, concurrency: int = 1, fails: Callable[[str], bool] = odd_first_byte
) -> tuple[dict, set[str], list[str]]:
    """Run the fixture corpus on the failing backend: (manifest, failed request
    keys, failed re-ask keys)."""
    failed: set[str] = set()
    reasks_failed: list[str] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MockBackend, "complete", failing_complete(failed, reasks_failed, fails))
        manifest = pipeline.run_all(degraded_config(concurrency), [CORPUS], run_dir)
    return manifest, failed, reasks_failed


@pytest.fixture(scope="session")
def degraded(tmp_path_factory):
    """(run dir, manifest, failed request keys, failed re-ask keys) of one serial
    degraded run, shared read-only."""
    run_dir = tmp_path_factory.mktemp("degraded")
    return (run_dir, *run_degraded(run_dir))


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def run_outputs(run_dir: Path) -> dict[str, bytes]:
    """{path relative to the run dir: bytes} of every stage output of a run: the
    stage files and each file under ``reports/``. Two runs made the same outputs
    exactly when their ``run_outputs`` are equal."""
    paths: list[Path] = []
    for stage in pipeline.STAGES:
        for name in stage.outputs:
            path = run_dir / name
            paths += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    return {path.relative_to(run_dir).as_posix(): path.read_bytes() for path in paths}


def read_backend_log(run_dir: Path) -> list[dict]:
    records = []
    for log in sorted((run_dir / "logs").glob("backend_*.jsonl")):
        records.extend(read_jsonl(log))
    return records


def generative_records(run_dir: Path, authors: set[str]) -> list[dict]:
    """The run's backend log records of generative templates that concern one of
    ``authors``: as the author, the post author or the comment author."""
    found = []
    for record in read_backend_log(run_dir):
        tags = record["tags"]
        involved = {tags.get("author"), tags.get("post_author"), tags.get("comment_author")}
        if record["template"] in GENERATIVE and involved & authors:
            found.append(record)
    return found


class ScriptedSession:
    """Session stand-in returning scripted responses per template."""

    ask_parsed = LlmSession.ask_parsed

    def __init__(self, responses: dict[str, list[str]]):
        self.responses = {name: list(items) for name, items in responses.items()}
        self.calls: list[tuple[str, dict, bool]] = []
        self.failed_calls = 0
        self._lock = threading.Lock()

    def ask(self, template_name, bindings, *, tags, reask=False):
        self.calls.append((template_name, dict(bindings), reask))
        queue = self.responses[template_name]
        if not queue:
            raise AssertionError(f"no scripted response left for {template_name}")
        if len(queue) == 1:
            return queue[0]
        return queue.pop(0)
