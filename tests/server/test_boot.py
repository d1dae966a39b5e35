"""Booting over an image whose stored PTML is refused.

Stored PTML is input from outside the daemon: a module whose code cannot
be regenerated from it is skipped at boot like one that cannot be decoded,
and the other modules are served.  Whether the image was audited first (so
its fact store has records for the module's functions) changes nothing.
"""

import pytest

from repro.analysis.audit import audit_image
from repro.lang import TycoonSystem
from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import ServerError
from repro.store.heap import ObjectHeap
from scripts.audit_negative_control import flip_one_bit

CTRL = """
module ctrl
export fact main
let fact(n: Int): Int = if n < 2 then 1 else n * fact(n - 1) end
let main(): Int = fact(12)
end
"""

OTHER = "module other export inc let inc(n: Int): Int = n + 1 end"


def _tampered_image(path, audited):
    system = TycoonSystem(heap=ObjectHeap(path))
    for source in (CTRL, OTHER):
        system.persist(system.compile(source).name)
    system.heap.commit()
    system.heap.close()
    if audited:
        assert audit_image(path).ok
    flip_one_bit(path, "ctrl", "fact")  # ctrl.fact's PTML is no longer well-formed


@pytest.mark.parametrize("audited", [False, True], ids=["cold", "audited"])
def test_boot_skips_a_module_that_fails_verification(tmp_path, capsys, audited):
    path = str(tmp_path / "img.tyc")
    _tampered_image(path, audited)
    server = ReproServer(path, ServerConfig(workers=2, lock_timeout=30.0, pgo_interval=None))
    server.start()
    try:
        assert "skipping module 'ctrl'" in capsys.readouterr().err
        with connect(server.port) as db:
            with pytest.raises(ServerError) as caught:
                db.call("ctrl", "main")
            assert caught.value.code == "not_found"
            assert db.call("other", "inc", [41]) == 42
    finally:
        server.stop()
