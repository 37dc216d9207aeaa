"""Wire protocol of the sampling service.

JSON over local HTTP, one round trip per request:

``POST /v1/sample`` with a body like::

    {"app": "DeepWalk", "graph": "ppi", "samples": 256, "seed": 7,
     "tenant": "trainer-a", "deadline_ms": 5000}

and a response like::

    {"status": "ok", "request_id": 12, "digest": "9f2c...",
     "queue_wait_ms": 1.8, "wall_ms": 143.0,
     "arrays": {"roots": "<b64 npy>", ...}, "cache_hit": true}

Other endpoints: ``GET /healthz`` (liveness + drain state),
``GET /metrics`` (OpenMetrics text exposition, scrapeable).

Statuses map onto HTTP codes so generic clients behave correctly:

==================  ====  ============================================
``ok``              200   samples attached (unless ``return_samples``
                          was false — then digest only)
``bad_request``     400   malformed request; never retry
``rejected``        429   admission queue full — backpressure; retry
                          after ``retry_after_ms`` (also sent as a
                          ``Retry-After`` header, in seconds)
``deadline_exceeded`` 504 the request's deadline passed (at enqueue,
                          at dequeue, or between chunks mid-run);
                          partial work was discarded
``draining``        503   the daemon is shutting down gracefully and
                          admits nothing new
``error``           500   the run failed for another reason
==================  ====  ============================================

Samples travel as base64-encoded ``.npy`` blobs per array — exactly
the arrays ``repro sample --out`` would save — so the client can
assert bitwise identity against a direct run; each is encoded once and
spliced unscanned into the ``json.dumps`` bytes (:func:`response_body`).
The ``digest`` field is a SHA-256 over every array's shape/dtype/bytes
(:func:`batch_digest`), the same digest the chaos/serve suites use.
"""

from __future__ import annotations

import binascii
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np
from numpy.lib import format as npf

__all__ = ["SampleRequest", "batch_digest", "encode_batch",
           "decode_arrays", "encode_array", "decode_array",
           "response_body", "STATUS_HTTP"]

#: status string -> HTTP code (the table in the module docstring).
STATUS_HTTP = {
    "ok": 200,
    "bad_request": 400,
    "rejected": 429,
    "deadline_exceeded": 504,
    "draining": 503,
    "error": 500,
}

#: Test-only request knobs, accepted only when the daemon runs with
#: ``--test-hooks`` (the serve verify suite and the CI smoke job);
#: rejected as a bad request otherwise so production tenants cannot
#: inject faults into a shared daemon.
TEST_HOOK_FIELDS = ("fault_plan", "cancel_after_checks",
                    "sleep_before_ms")


@dataclass
class SampleRequest:
    """One validated sampling request."""

    app: str
    graph: str
    samples: Optional[int] = None
    seed: int = 0
    tenant: str = "default"
    #: Relative deadline in milliseconds (None = no deadline).  The
    #: server enforces it at enqueue, at dequeue, and between chunks.
    deadline_ms: Optional[float] = None
    #: Attach the sampled arrays to the response (digest is always
    #: returned; benches turn the payload off).
    return_samples: bool = True
    #: Test hooks (``--test-hooks`` daemons only), see
    #: :data:`TEST_HOOK_FIELDS`.
    hooks: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_json(cls, body: bytes, *,
                  allow_test_hooks: bool = False) -> "SampleRequest":
        """Parse + validate a request body; raises ``ValueError`` with
        a readable message on any problem."""
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("body must be a JSON object")
        known = {"app", "graph", "samples", "seed", "tenant",
                 "deadline_ms", "return_samples", *TEST_HOOK_FIELDS}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown field(s) {', '.join(unknown)}")
        app = data.get("app")
        if not isinstance(app, str) or not app:
            raise ValueError("'app' must be a non-empty string")
        graph = data.get("graph", "ppi")
        if not isinstance(graph, str) or not graph:
            raise ValueError("'graph' must be a non-empty string")
        samples = data.get("samples")
        if samples is not None and (not isinstance(samples, int)
                                    or isinstance(samples, bool)
                                    or samples < 1):
            raise ValueError("'samples' must be an integer >= 1")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError("'seed' must be an integer >= 0")
        tenant = data.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("'tenant' must be a non-empty string")
        deadline_ms = data.get("deadline_ms")
        if deadline_ms is not None:
            # json.loads accepts NaN (never trips) and Infinity (unwaitable).
            if type(deadline_ms) not in (int, float) \
                    or not 0 <= deadline_ms <= sys.float_info.max:
                raise ValueError("'deadline_ms' must be a finite number >= 0")
            deadline_ms = float(deadline_ms)
        return_samples = data.get("return_samples", True)
        if not isinstance(return_samples, bool):
            raise ValueError("'return_samples' must be a boolean")
        hooks = {k: data[k] for k in TEST_HOOK_FIELDS if k in data}
        if hooks and not allow_test_hooks:
            raise ValueError(
                f"test hook(s) {', '.join(sorted(hooks))} require a "
                "daemon started with --test-hooks")
        return cls(app=app, graph=graph, samples=samples, seed=seed,
                   tenant=tenant, deadline_ms=deadline_ms,
                   return_samples=return_samples, hooks=hooks)

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"app": self.app, "graph": self.graph,
                                "seed": self.seed, "tenant": self.tenant,
                                "return_samples": self.return_samples}
        if self.samples is not None:
            data["samples"] = self.samples
        if self.deadline_ms is not None:
            data["deadline_ms"] = self.deadline_ms
        data.update(self.hooks)
        return data


# ----------------------------------------------------------------------
# Sample payload encoding: the same arrays ``SamplingResult.save``
# persists, shipped as base64 ``.npy`` blobs so dtype/shape round-trip
# exactly.
# ----------------------------------------------------------------------

def encode_array(arr: np.ndarray) -> str:
    """``base64(np.save(arr))``: a ``.npy`` v1.0 header, then its bytes."""
    arr = np.ascontiguousarray(arr)
    header = io.BytesIO()
    npf.write_array_header_1_0(header, npf.header_data_from_array_1_0(arr))
    npy = b"".join((header.getvalue(), arr.data))
    return binascii.b2a_base64(npy, newline=False).decode("ascii")


def decode_array(blob: str, name: str = "array") -> np.ndarray:
    """Inverse of :func:`encode_array` (writable; object dtypes refused)."""
    raw = binascii.a2b_base64(blob)
    header = io.BytesIO(raw)
    read = (npf.read_array_header_1_0 if npf.read_magic(header) == (1, 0)
            else npf.read_array_header_2_0)
    shape, fortran_order, dtype = read(header)
    data = memoryview(raw)[header.tell():]
    if dtype.hasobject or len(data) != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"array {name!r} refused: {len(data)} data "
                         f"bytes for a {shape} {dtype} array")
    arr = np.frombuffer(bytearray(data), dtype=dtype)
    return arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape)


def response_body(response: Dict[str, Any]) -> bytes:
    """``json.dumps(response).encode()``; base64 blobs go in unescaped."""
    parts = []
    for key, value in response.items():
        if key != "arrays":
            parts += [b", ", json.dumps({key: value})[1:-1].encode("utf-8")]
            continue
        blobs = []
        for name, blob in value.items():
            blobs += [b", ", json.dumps(name).encode("utf-8"), b': "',
                      blob.encode("ascii"), b'"']
        parts += [b", ", b'"arrays": {', *blobs[1:], b"}"]
    return b"".join([b"{", *parts[1:], b"}"])


def batch_digest(batch) -> str:
    """SHA-256 over every array a batch exposes (shape + dtype +
    bytes); the identity the serve/chaos verify suites assert."""
    h = hashlib.sha256()
    for arr in [batch.roots, *batch.step_vertices, *batch.edges]:
        a = np.ascontiguousarray(arr)
        h.update(str(a.shape).encode())
        h.update(a.dtype.str.encode())
        h.update(a)
    return h.hexdigest()[:32]


def encode_batch(result) -> Dict[str, str]:
    """The response ``arrays`` payload for one
    :class:`~repro.core.engine.SamplingResult`: its ``arrays()``."""
    return {name: encode_array(a) for name, a in result.arrays().items()}


def decode_arrays(payload: Dict[str, str]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_batch`."""
    return {name: decode_array(blob, name) for name, blob in payload.items()}
