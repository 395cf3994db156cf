"""Structured logging for the repro engine.

Thin veneer over stdlib ``logging`` (and *only* stdlib -- this module
must stay import-cycle-free because ``repro.kernels`` loads it during
backend resolution, before the rest of the package exists).

All engine diagnostics flow through loggers under the ``repro`` root;
:func:`configure_logging` maps the CLI ``-v/--verbose`` count onto
levels (0 = WARNING, 1 = INFO, 2+ = DEBUG) with a single structured
``key=value`` line format.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["configure_logging", "get_logger"]

_ROOT = "repro"
_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"
_configured = False


def get_logger(name: str) -> logging.Logger:
    """Logger under the ``repro`` hierarchy; ``name`` may already start
    with ``repro`` (e.g. ``__name__`` inside the package)."""
    if name != _ROOT and not name.startswith(_ROOT + "."):
        name = f"{_ROOT}.{name}"
    return logging.getLogger(name)


def configure_logging(verbosity: int = 0, stream=None) -> None:
    """Attach one stderr handler to the ``repro`` root logger.

    Idempotent: calling again only adjusts the level, so repeated CLI
    invocations in one process (tests) don't stack handlers.
    """
    global _configured
    root = logging.getLogger(_ROOT)
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    if not _configured:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
        root.addHandler(handler)
        root.propagate = False
        _configured = True
    root.setLevel(level)

