"""Tests for ``python -m repro lint`` exit codes and target resolution."""

import pytest

from repro.cli import main
from repro.core.names import NameSupply
from repro.core.syntax import Abs, PrimApp, Var
from repro.lang.modules import CompileOptions, compile_module, store_module
from repro.store.heap import ObjectHeap
from repro.store.ptml import encode_ptml


def test_lint_clean_file_exits_zero(capsys):
    assert main(["lint", "examples/sumto.tl"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_sieve_exits_zero(capsys):
    assert main(["lint", "examples/sieve.tl"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_stdlib_exits_zero(capsys):
    assert main(["lint", "--stdlib"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_verbose_shows_info(capsys):
    main(["lint", "--stdlib", "-v"])
    assert "info" in capsys.readouterr().out


def test_lint_no_target_refused():
    with pytest.raises(SystemExit):
        main(["lint"])


def test_lint_oid_without_store_refused():
    with pytest.raises(SystemExit):
        main(["lint", "--oid", "1"])


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warn.tl"
    path.write_text(
        "module w export f let f(x: Int, y: Int): Int = x end"
    )
    return str(path)


class TestExitCodeDiscipline:
    """Pinned contract: errors exit 1, warnings exit 0 unless --strict."""

    def test_warnings_exit_zero_by_default(self, warn_file, capsys):
        assert main(["lint", warn_file]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "1 warning(s)" in out

    def test_strict_promotes_warnings_to_failure(self, warn_file, capsys):
        assert main(["lint", warn_file, "--strict"]) == 1
        assert "warning" in capsys.readouterr().out

    def test_strict_on_clean_target_still_exits_zero(self, capsys):
        assert main(["lint", "examples/sumto.tl", "--strict"]) == 0
        assert "0 warning(s)" in capsys.readouterr().out

    def test_info_never_fails_even_strict(self, capsys):
        # the stdlib lint reports info findings only
        assert main(["lint", "--stdlib", "--strict"]) == 0
        capsys.readouterr()


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "lint.heap")


def test_lint_stored_module(store, capsys):
    compiled = compile_module(
        "module m export f let f(x: Int): Int = x + 1 end",
        options=CompileOptions(),
    )
    heap = ObjectHeap(store)
    oid = store_module(heap, compiled)
    heap.commit()
    heap.close()
    assert main(["lint", "--store", store, "--oid", str(int(oid))]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_stored_module_lints_the_code_a_load_regenerates(store, capsys):
    source = "module m export f let f(x: Int): Int = x + {} end"
    heap = ObjectHeap(store)
    replaced = store_module(heap, compile_module(source.format(1)))
    current = store_module(heap, compile_module(source.format(2)))
    heap.commit()
    heap.close()
    assert main(["lint", "--store", store, "--oid", str(int(current))]) == 0
    assert "linted 1 object(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="replaced record of module 'm'"):
        main(["lint", "--store", store, "--oid", str(int(replaced))])


def test_lint_stored_ill_formed_ptml_exits_one(store, capsys):
    supply = NameSupply()
    x = supply.fresh_val("x")
    # value-sorted binder used in continuation position: constraint 1 breaks
    bad = Abs((x,), PrimApp("halt", (Var(x), Var(x))))
    heap = ObjectHeap(store)
    oid = heap.store(encode_ptml(bad))
    heap.commit()
    heap.close()
    assert main(["lint", "--store", store, "--oid", str(int(oid))]) == 1
    out = capsys.readouterr().out
    assert "error" in out
