"""repro.server — a multi-session database server over the persistent image.

The paper's premise is an *open database environment*: persistent TML/PTML
code in a shared store, executed by many clients and reoptimized
reflectively behind their backs (§2.1, §4).  This package makes that an
actual service:

* :mod:`repro.server.daemon` — :class:`ReproServer`: one persistent image,
  many concurrent sessions over a length-prefixed JSON protocol on TCP,
  per-session transactions (single-writer / snapshot-reader), a bounded
  worker pool with backpressure, and code resolved through the system's
  live links, with one record per PTML content hash in the image;
* :mod:`repro.server.ops` — the op table: every wire operation declared
  once as ``Op(handler, txn, lane)``;
* :mod:`repro.server.pgo` — the background profile-guided optimization
  worker: aggregates per-request VM profiles and periodically re-optimizes
  the measured-hot stored functions in the live image;
* :mod:`repro.server.client` — a small blocking client library;
* :mod:`repro.server.protocol` — framing and value conversion.

``python -m repro serve IMAGE`` boots the daemon; ``python -m repro
client`` talks to it.  Protocol and lifecycle are specified in
``docs/server.md``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".client": [
            "BackpressureError", "BusyError", "Client", "ClientError", "ConnectionLost",
            "RetryPolicy", "ServerError", "ShuttingDownError", "connect",
        ],
        ".config": ["ServerConfig"],
        ".daemon": ["ReproServer"],
        ".pgo": ["PgoWorker"],
        ".pool": ["Backpressure", "WorkerPool"],
        ".protocol": ["ProtocolError", "from_jsonable", "recv_frame", "send_frame", "to_jsonable"],
    },
)
