"""Online serving: timed arrivals, windowed batching, caches, union passes.

The paper's obfuscator is an online middle tier: requests arrive over
time, and shared obfuscated path queries only exist if several requests
are *in hand* simultaneously (Section IV's clustering step).  This
subpackage models that dimension twice over:

* :mod:`repro.service.simulator` — discrete-time windowed batching, the
  latency/privacy/cost knob of experiment E10;
* :mod:`repro.service.serving` + :mod:`repro.service.cache` — the
  production serving layer: a thread-safe :class:`ServingStack` fronting
  the directions server with a preprocessing-artifact cache, a
  many-to-many result cache, and one shared union kernel pass over a
  batch's distinct misses — so repeated traffic stops paying preprocessing,
  repeated obfuscated queries stop paying search, and overlapping
  queries of one batch share one pass.  Traffic re-weights install as
  atomic copy-on-write network epochs through
  :meth:`ServingStack.reweight`, the one epoch writer, while queries
  keep serving;
* :mod:`repro.service.gateway` + :mod:`repro.service.wire` — the HTTP
  network boundary: an asyncio gateway speaking a versioned canonical
  JSON wire schema over one in-process stack, with admission control,
  micro-batching and redaction-enforced access logging (``repro serve``).
"""

from repro.service.blob import (
    Blob,
    read_blob,
    read_csr_blob,
    write_blob,
    write_csr_blob,
)
from repro.service.cache import (
    CacheSnapshot,
    PreprocessingCache,
    ResultCache,
    network_fingerprint,
)
from repro.service.serving import (
    ConcurrentDispatcher,
    ReplayReport,
    ReweightOutcome,
    ServingConfig,
    ServingStack,
    replay,
)
from repro.service.simulator import (
    BatchingObfuscationService,
    ServiceReport,
    TimedRequest,
    poisson_arrivals,
)

__all__ = [
    "TimedRequest",
    "BatchingObfuscationService",
    "ServiceReport",
    "poisson_arrivals",
    "network_fingerprint",
    "CacheSnapshot",
    "PreprocessingCache",
    "ResultCache",
    "ConcurrentDispatcher",
    "ReweightOutcome",
    "ServingConfig",
    "ServingStack",
    "ReplayReport",
    "replay",
    "Blob",
    "read_blob",
    "write_blob",
    "read_csr_blob",
    "write_csr_blob",
]
