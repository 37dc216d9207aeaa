"""Sampling-as-a-service: a long-lived daemon over the warm runtime.

``repro serve`` turns the deterministic engines, the chunk-thread
runtime, and the observability layer into a multi-tenant service:
concurrent sampling requests arrive over local HTTP, pass a bounded
admission gate with explicit backpressure, run on warm graphs under
per-request deadlines, and return samples
that are **bitwise-identical** to a direct ``repro sample`` run with
the same ``(app, graph, seed)`` — the identity lattice's served cells
(``repro verify --suite identity``).  See ``docs/SERVING.md``.
"""
