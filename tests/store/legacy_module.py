"""An image written in the layout before PTML became the only stored code.

Each ``tl-module`` function entry of that layout held a whole serialized
TAM code object (tag 15) whose ``ptml_ref`` named the function's PTML
blob.  These are the raw committed payloads of an image holding one such
module, ``calc``, exactly as ``store_module`` wrote them at commit
d3b2f6c; nothing in the current tree can produce them.  The module's
source is :data:`SOURCE`.
"""

import base64

SOURCE = """
module calc export inc fact
let inc(x: Int): Int = x + 1
let fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1) end
end
"""

#: OID -> committed payload; 1 and 2 are the PTML blobs of ``inc`` and
#: ``fact``, 3 is the module record that references them
PAYLOADS = {
    1: base64.b64decode(
        "DTIEAXgCY2UCY2MHaW50LmFkZAQAAAABAQECAgEDAwABAwIDAAECAwQBAwEAAAMCAQEB"
        "Ag=="
    ),
    2: base64.b64decode(
        "DZgBCQFuAmNlAmNjBmludC5sZQF0Aj09B2ludC5zdWIEZmFjdAdpbnQubXVsCgAEAAEF"
        "AQIGAQMNAAQMAAYLAAQKAAcJAAQIAAgHAAQJBwUDAgMAAQIDBAEDAQAAAwIBAQIBBAQF"
        "BAEEAAECAAMBAQIAAwICAAMEAQUBAAADAgEBAgEGAwMBBwEGAQECAQgDBAEJAQABCAEB"
        "AQI="
    ),
    3: base64.b64decode(
        "EAl0bC1tb2R1bGUEBGNhbGMLAgQDaW5jBARmYWN0DAACBANpbmMPCGNhbGMuaW5jCwMO"
        "AXgAAA4CY2UBAQ4CY2MCAQULAwsDBARmcmVlAwYDAAsDBAVjb25zdAMIAwALAwQIdGFp"
        "bGNhbGwDBgsEAwADCAMCAwQLAQMCAAsBDgdpbnQuYWRkAwABBgEBDgdpbnQuYWRkAwAE"
        "BmltcG9ydAQDaW50BANhZGQEBGZhY3QPCWNhbGMuZmFjdAsDDgFuBAAOAmNlBQEOAmNj"
        "BgEGCwQLAwQEZnJlZQMGAwALAwQFY29uc3QDCAMACwQEB2Nsb3N1cmUDCgMACwYLAgQB"
        "ZgMCCwIEAXIDAAsCBAFyAwILAgQBZgMECwIEAWYDBgsCBAFyAwQLAwQIdGFpbGNhbGwD"
        "BgsEAwADCAMCAwoLAQMCAQRhbm9uCwEOAXQMAAkLCwsDBAVjb25zdAMCAwALBQQEY2Fz"
        "ZQMACwEDAgsBAxADBAsDBARmcmVlAwQDAAsDBARmcmVlAwYDAgsDBAVjb25zdAMIAwIL"
        "AwQEZnJlZQMKAwQLBAQHY2xvc3VyZQMMAwALBQsCBAFmAwYLAgQBZgMECwIEAWYDCAsC"
        "BAFmAwILAgQBZgMKCwMECHRhaWxjYWxsAwQLBAMGAwgDCgMMCwMEBGZyZWUDDgMKCwME"
        "BWNvbnN0AxADAgsDBAh0YWlsY2FsbAMOCwEDEAsCAQMCAQRhbm9uCwEOAXQKAAQLBAsD"
        "BARmcmVlAwIDAAsDBARmcmVlAwQDAgsEBAdjbG9zdXJlAwYDAAsECwIEAWYDBAsCBAFm"
        "AwYLAgQBZgMCCwIEAWYDCAsDBAh0YWlsY2FsbAMCCwMDAAMEAwYLAAEEYW5vbgsBDgF0"
        "CAAFCwULAwQEZnJlZQMCAwALAwQEZnJlZQMEAwILAwQEZnJlZQMGAwQLAwQEZnJlZQMI"
        "AwYLAwQIdGFpbGNhbGwDAgsEAwQDAAMGAwgLAAALBA4HaW50Lm11bAcADgFuBAAOAmNl"
        "BQEOAmNjBgEACgsFDgRmYWN0CQAOAmNlBQEOB2ludC5tdWwHAA4BbgQADgJjYwYBAAoL"
        "Bg4HaW50LnN1YgsADgFuBAAOAmNlBQEOBGZhY3QJAA4HaW50Lm11bAcADgJjYwYBAAoL"
        "BA4GaW50LmxlDQAOB2ludC5zdWILAA4EZmFjdAkADgdpbnQubXVsBwABBgIEDgdpbnQu"
        "bXVsBwAEBmltcG9ydAQDaW50BANtdWwOBGZhY3QJAAQHc2libGluZwoEBGZhY3QOB2lu"
        "dC5zdWILAAQGaW1wb3J0BANpbnQEA3N1Yg4GaW50LmxlDQAEBmltcG9ydAQDaW50BAJs"
        "ZQ=="
    ),
}
ROOTS = {"module:calc": 3}
OID_COUNTER = 4
PTML_OIDS = {"inc": 1, "fact": 2}


def install(heap):
    """Write the legacy image's state into an empty file-backed ``heap``
    and commit it."""
    heap.apply_changes(list(PAYLOADS.items()), ROOTS, [], OID_COUNTER)
