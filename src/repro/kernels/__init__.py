"""Native-speed kernel backends for the columnar sketch engine.

The six hot kernels of the engine -- the ingest fold
(:func:`~repro.sketch.flat_node_sketch.hash_depths_checksums` +
``fold_hashed``), the whole-round query reduce
(:func:`~repro.sketch.flat_node_sketch.segmented_xor`), the batched
bucket decoder
(:func:`~repro.sketch.flat_node_sketch.decode_column_batch`), the
storage-integrity block digest
(:func:`~repro.integrity.digest.block_digests`, which an out-of-core
engine's hybrid memory runs over every byte that crosses the device),
and the two halves of a Boruvka round: the group -> reduce -> decode
sample of
:meth:`~repro.sketch.tensor_pool.NodeTensorPool.query_components`,
fused, and the validate/decode/union-find/relabel round tail
(:func:`~repro.core.boruvka.round_tail`), looped over a query's rounds
by the provider's ``bind_query`` (bound once per pool: a whole query
over an in-RAM pool is one call, a round over a paged pool is one) --
have compiled twins selected through ``config.kernel_backend``.  The segmented-XOR and
decode twins are on no engine path any more (the fused sample replaced
them; the pool's composed query path is numpy): only tests and the
benchmark tracer call them.

``"numpy"``
    The default: the pure-numpy kernels, no compiled code anywhere.
``"native"``
    Require the compiled provider; raise
    :class:`~repro.exceptions.ConfigurationError` when it is not usable.
``"auto"``
    Use the compiled provider when it is available, fall back to numpy
    otherwise (the selection is logged once per process, the reason
    kept, and ``kernels.provider_unavailable`` counted).

There is one provider, :mod:`repro.kernels.native_cc`: a small C
library compiled at first use with the host toolchain and driven
through :mod:`ctypes`.

It is property-tested **bit-identical** to the numpy path
(``tests/test_native_kernels.py``; ``tests/test_integrity.py`` for the
digests, which are an on-disk format): same seed in, same tensors,
forests, and stats out, across packed/wide bucket modes, flat/paged
pools, and serial/sharded/distributed ingest.  ``kernel_backend``
therefore stays out of
:meth:`~repro.core.config.GraphZeppelinConfig.sketch_fingerprint` --
snapshots interchange freely across backends.
"""

from __future__ import annotations

import subprocess
import threading
from typing import Optional

from repro.exceptions import ConfigurationError
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
    """The process-wide native kernel provider, or ``None``.

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

    Returns the provider instance for native execution or ``None`` for
    the numpy kernels.  ``"native"`` raises
    :class:`~repro.exceptions.ConfigurationError` when the provider is
    not usable; ``"auto"`` falls back to numpy and logs the choice once per
    process.
    """
    global _logged_choice
    if backend == "numpy":
        return None
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
    return provider
