"""mindpipe: social-media dumps in, per-user mental-health profiles out.

Stage-based pipeline with a pluggable chat-completion backend, a
deterministic offline mock backend, a safety quarantine, and corpus-level
statistics over the run outputs.
"""

__version__ = "0.3.0"
