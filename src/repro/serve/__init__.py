"""Sampling-as-a-service: a long-lived daemon over the warm runtime.

``repro serve`` turns the deterministic engines, the resilient worker
pool, and the observability layer into a multi-tenant service:
concurrent sampling requests arrive over local HTTP, pass a bounded
admission gate with explicit backpressure, run on a shared warm
engine + worker pool under per-request deadlines, and return samples
that are **bitwise-identical** to a direct ``repro sample`` run with
the same ``(app, graph, seed)`` — asserted by
``repro verify --suite serve``.  See ``docs/SERVING.md``.
"""

from repro.serve.admission import AdmissionGate, GateClosed, QueueFull
from repro.serve.cache import GraphCache
from repro.serve.client import ClientResult, RetryPolicy, ServeClient
from repro.serve.protocol import (SampleRequest, batch_digest,
                                  decode_arrays, encode_batch)
from repro.serve.server import SamplingServer, ServerConfig

__all__ = [
    "AdmissionGate", "GateClosed", "QueueFull", "GraphCache", "SampleRequest", "batch_digest", "encode_batch",
    "decode_arrays", "SamplingServer", "ServerConfig", "ServeClient",
    "ClientResult", "RetryPolicy",
]
