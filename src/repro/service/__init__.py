"""Online serving: timed arrivals, windowed batching, caches, concurrency.

The paper's obfuscator is an online middle tier: requests arrive over
time, and shared obfuscated path queries only exist if several requests
are *in hand* simultaneously (Section IV's clustering step).  This
subpackage models that dimension twice over:

* :mod:`repro.service.simulator` — discrete-time windowed batching, the
  latency/privacy/cost knob of experiment E10;
* :mod:`repro.service.serving` + :mod:`repro.service.cache` — the
  production serving layer: a thread-safe :class:`ServingStack` fronting
  the directions server with a preprocessing-artifact cache, a
  many-to-many result cache, a concurrent dispatcher, and optional
  coalescing of a batch's obfuscated queries into one shared union
  kernel pass — so repeated traffic stops paying preprocessing,
  repeated obfuscated queries stop paying search, and overlapping
  queries of one batch share one pass;
* :mod:`repro.service.pipeline` — the live traffic pipeline: an
  in-process event stream feeding a debounced :class:`DeltaBatcher`
  and a background :class:`RecustomizeWorker` that installs re-weights
  as atomic network epochs while queries keep serving;
* :mod:`repro.service.gateway` + :mod:`repro.service.wire` — the HTTP
  network boundary: an asyncio gateway speaking a versioned canonical
  JSON wire schema, with shard worker processes, admission control and
  redaction-enforced access logging (``repro serve``).
"""

from repro.service.blob import (
    Blob,
    read_blob,
    read_csr_blob,
    read_overlay_blob,
    write_blob,
    write_csr_blob,
    write_overlay_blob,
)
from repro.service.cache import (
    CacheSnapshot,
    PreprocessingCache,
    ResultCache,
    network_fingerprint,
)
from repro.service.pipeline import (
    DeltaBatch,
    DeltaBatcher,
    PipelineSnapshot,
    RecustomizeWorker,
    TrafficEventStream,
    TrafficPipeline,
)
from repro.service.serving import (
    CoalesceSnapshot,
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
    "CoalesceSnapshot",
    "ReweightOutcome",
    "ServingConfig",
    "ServingStack",
    "ReplayReport",
    "replay",
    "TrafficEventStream",
    "DeltaBatch",
    "DeltaBatcher",
    "RecustomizeWorker",
    "TrafficPipeline",
    "PipelineSnapshot",
    "Blob",
    "read_blob",
    "write_blob",
    "read_csr_blob",
    "write_csr_blob",
    "read_overlay_blob",
    "write_overlay_blob",
]
