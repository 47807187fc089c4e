"""Exception types shared across the pipeline."""

from __future__ import annotations


class MindpipeError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(MindpipeError):
    """Invalid or incomplete configuration (CLI exit code 2)."""


class TemplateError(MindpipeError):
    """Prompt template could not be loaded or rendered."""


class ResponseFormatError(MindpipeError):
    """A backend response did not match the documented output grammar."""


class BackendError(MindpipeError):
    """Non-retryable backend failure (e.g. HTTP 4xx other than 429)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class BackendExhaustedError(MindpipeError):
    """Retryable failures persisted past the configured attempt cap."""


class MissingStageFileError(MindpipeError):
    """A stage input file is absent from the run directory."""

    def __init__(self, stage: str, path: str):
        super().__init__(f"stage '{stage}' requires missing file: {path}")
        self.stage = stage
        self.path = path


class StageError(MindpipeError):
    """A pipeline stage failed (CLI exit code 1)."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


class RunLockedError(MindpipeError):
    """Another process owns the run directory."""
