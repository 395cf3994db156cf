"""Kernel providers: the one interface the engine's hot kernels sit behind.

A provider is an object with one contract: the in-RAM pool folds
``fold_pool`` and ``fold_pool_edges``, the paged pool's ``fold_page``,
the per-node ``fold_bundle``, the checked edge-row ``ingest_edges``, the
Boruvka query ``bind_query`` (bound once per pool by the compiled
provider: a whole query over an in-RAM pool is one call, a round over a
paged pool is one) and the storage ``block_digests``.  Pools, node
sketches, the query driver and the block device call it whatever they
hold; where the two providers really differ they read a named attribute
(``hoists_hash``: the sharded producer hashes for the workers;
``memoises_rounds``: a pool keeps per-node write stamps for the round
memo).  ``config.kernel_backend`` selects one:

``"numpy"``
    The default: :data:`~repro.kernels.numpy_kernels.NUMPY_KERNELS`,
    no compiled code anywhere.
``"native"``
    Require the compiled provider, :mod:`repro.kernels.native_cc` (a
    small C library compiled at first use with the host toolchain and
    driven through :mod:`ctypes`); raise
    :class:`~repro.exceptions.ConfigurationError` when it is not usable.
``"auto"``
    Use the compiled provider when it is available, fall back to numpy
    otherwise (the selection is logged once per process, the reason
    kept, and ``kernels.provider_unavailable`` counted).

The compiled provider is property-tested **bit-identical** to the numpy
one, method by method (``tests/test_native_kernels.py``;
``tests/test_integrity.py`` for the digests, which are an on-disk
format): same seed in, same tensors, forests, and stats out, across
packed/wide bucket modes, flat/paged pools, and
serial/sharded/distributed ingest.  ``kernel_backend`` therefore stays
out of :meth:`~repro.core.config.GraphZeppelinConfig.sketch_fingerprint`
-- snapshots interchange freely across backends.  Its ``segment_xor``
and ``decode_column`` are outside the contract: only tests and the
benchmark tracer call them.
"""

from __future__ import annotations

import subprocess
import threading
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.kernels.numpy_kernels import NUMPY_KERNELS
from repro.observability.log import get_logger
from repro.observability.metrics import default_registry

logger = get_logger(__name__)

#: Valid values of ``config.kernel_backend``.
KERNEL_BACKENDS = ("numpy", "native", "auto")

_lock = threading.Lock()
_resolved = False
_provider = None
_unavailable_reason: Optional[str] = None
_logged_choice = False


def native_kernels():
    """The process-wide compiled kernel provider, or ``None`` where it cannot be built.

    Resolution happens once per process: the C library is built (or
    loaded from its cache) on the first call.  Both the provider
    instance and a failure are cached, so repeated calls are cheap and
    every pool in the process shares one compiled library.  Only what
    "cannot be used here" raises (missing or failing compiler,
    unloadable library) makes the provider unavailable -- anything else
    is a bug and propagates; the reason is kept and
    ``kernels.provider_unavailable`` is bumped.
    """
    global _resolved, _provider, _unavailable_reason
    if _resolved:
        return _provider
    with _lock:
        if _resolved:
            return _provider
        try:
            from repro.kernels import native_cc

            _provider = native_cc.CcKernels()
        except (ImportError, OSError, subprocess.CalledProcessError, RuntimeError) as exc:
            _unavailable_reason = f"cc: {exc}"
            if default_registry().enabled:
                default_registry().counter("kernels.provider_unavailable").inc()
        _resolved = True
    return _provider


def native_unavailable_reason() -> Optional[str]:
    """Why the native provider did not load (``None`` when it did)."""
    native_kernels()
    return _unavailable_reason


def resolve_kernels(backend: str):
    """Resolve a ``kernel_backend`` config value to a provider.

    ``"numpy"`` is :data:`~repro.kernels.numpy_kernels.NUMPY_KERNELS`;
    ``"native"`` is the compiled provider, and raises
    :class:`~repro.exceptions.ConfigurationError` when it is not usable;
    ``"auto"`` is the compiled provider when it is usable and numpy
    otherwise, and logs the choice once per process.
    """
    global _logged_choice
    if backend == "numpy":
        return NUMPY_KERNELS
    if backend not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel_backend {backend!r} (use 'numpy', 'native', or 'auto')"
        )
    provider = native_kernels()
    if provider is None and backend == "native":
        raise ConfigurationError(
            "kernel_backend='native' but the native provider is not usable "
            f"({_unavailable_reason}); install a C compiler or use 'auto'"
        )
    if not _logged_choice:
        _logged_choice = True
        if provider is None:
            logger.info(
                "kernel_backend=auto: no native provider (%s); using numpy kernels",
                _unavailable_reason,
            )
        else:
            logger.info(
                "kernel_backend=%s: using native '%s' kernels", backend, provider.name
            )
    return NUMPY_KERNELS if provider is None else provider
