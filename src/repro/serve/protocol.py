"""The newline-delimited JSON wire protocol of the serving front door.

One frame per line, UTF-8 JSON, ``\\n``-terminated.  Three frame
shapes flow over a connection:

- **request** (client → server)::

      {"id": 7, "verb": "lookup", "tenant": "default",
       "query": "a(b,c)", "tau": 0.5}

  ``id`` is an opaque client token echoed back in the reply (replies
  may arrive out of request order — the server executes admitted
  requests concurrently).  ``tenant`` defaults to ``"default"``.

- **reply** (server → client)::

      {"id": 7, "ok": true, "result": {...}}
      {"id": 7, "ok": false, "shed": true,
       "error": {"code": "overloaded", "status": 429,
                 "reason": "rate", "message": "..."}}

  ``shed: true`` marks an admission-control rejection: the request
  was **never executed** (a shed ``apply_edits`` has not touched the
  store).  ``status`` carries the HTTP-flavored class of the error —
  429 for overload, 503 while draining or once the tenant's store
  failed a durable write (``store_failed``: the write's outcome is
  unknown and no later write is taken until the store is reopened),
  400/404/500 for bad requests, unknown documents/tenants, and
  handler failures.

- **event** (server → client, only on connections that issued a
  ``subscribe``)::

      {"event": "notification", "tenant": "default", "query_id": "q1",
       "kind": "enter", "doc": 3, "distance": 0.25, "seq": 41}

Trees travel in bracket notation (:func:`repro.tree.builder`
``tree_to_brackets``/``tree_from_brackets`` — node ids are assigned
deterministically in preorder, so client and server mirrors of the
same brackets agree on ids) and edit batches in the WAL's own text
format (:mod:`repro.edits.serialize`), so the wire never invents a
second serialization of either.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.errors import ProtocolError

#: bump when a frame field changes meaning; ``hello`` replies carry it
PROTOCOL_VERSION = 1

#: one frame must fit comfortably in memory; documents beyond this
#: should be ingested out of band (the bound exists so a corrupt or
#: hostile client cannot balloon the server with one unbounded line)
MAX_FRAME_BYTES = 8 * 1024 * 1024

# error codes + their HTTP-flavored status class
OVERLOADED = "overloaded"
DRAINING = "draining"
BAD_REQUEST = "bad_request"
NOT_FOUND = "not_found"
INTERNAL = "internal"
STORE_FAILED = "store_failed"

STATUS: Dict[str, int] = {
    OVERLOADED: 429,
    DRAINING: 503,
    BAD_REQUEST: 400,
    NOT_FOUND: 404,
    INTERNAL: 500,
    STORE_FAILED: 503,
}

# admission-control shed reasons (``error.reason`` of a shed reply)
SHED_RATE = "rate"
SHED_QUEUE = "queue"
SHED_WAIT = "wait"
SHED_DRAINING = "draining"


def encode_frame(payload: Dict[str, object]) -> bytes:
    """One wire line for one frame (compact JSON + newline)."""
    return (
        json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


def result_frame(
    request_id: object, result: Dict[str, object]
) -> Dict[str, object]:
    """A successful reply."""
    return {"id": request_id, "ok": True, "result": result}


def error_frame(
    request_id: object,
    code: str,
    message: str,
    reason: Optional[str] = None,
    shed: bool = False,
) -> Dict[str, object]:
    """A failure reply; ``shed=True`` marks an admission rejection."""
    error: Dict[str, object] = {
        "code": code,
        "status": STATUS.get(code, 500),
        "message": message,
    }
    if reason is not None:
        error["reason"] = reason
    frame: Dict[str, object] = {"id": request_id, "ok": False, "error": error}
    if shed:
        frame["shed"] = True
    return frame


def shed_frame(request_id: object, reason: str) -> Dict[str, object]:
    """The 429/503-style overload reply for one shed request."""
    code = DRAINING if reason == SHED_DRAINING else OVERLOADED
    return error_frame(
        request_id,
        code,
        f"request shed ({reason}); not executed",
        reason=reason,
        shed=True,
    )


def event_frame(
    tenant: str,
    query_id: str,
    kind: str,
    document_id: int,
    distance: float,
    seq: int,
) -> Dict[str, object]:
    """One streamed standing-query notification."""
    return {
        "event": "notification",
        "tenant": tenant,
        "query_id": query_id,
        "kind": kind,
        "doc": document_id,
        "distance": distance,
        "seq": seq,
    }
