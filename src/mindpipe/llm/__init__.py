"""Completion backend abstraction: templates, HTTP client, mock backend, cache."""
