"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import main

DEMO = """
module util export triple
let triple(x: Int): Int = x * 3
end

module app export main
import util
let main(n: Int): Int =
  begin
    print("computing...");
    util.triple(n) + 1
  end
end
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.tl"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_default_entry_is_main(self, demo_file, capsys):
        assert main(["run", demo_file, "--args", "13"]) == 0
        out = capsys.readouterr().out
        assert "computing..." in out
        assert "=> 40" in out

    def test_explicit_entry(self, demo_file, capsys):
        assert main(["run", demo_file, "--entry", "util.triple", "--args", "5"]) == 0
        assert "=> 15" in capsys.readouterr().out

    def test_bare_function_entry(self, demo_file, capsys):
        assert main(["run", demo_file, "--entry", "triple", "--args", "2"]) == 0
        assert "=> 6" in capsys.readouterr().out

    def test_dynamic_optimization(self, demo_file, capsys):
        assert main(
            ["run", demo_file, "--entry", "app.main", "--args", "13",
             "--opt", "dynamic"]
        ) == 0
        assert "=> 40" in capsys.readouterr().out

    def test_unoptimized(self, demo_file, capsys):
        assert main(["run", demo_file, "--args", "13", "--opt", "none"]) == 0
        assert "=> 40" in capsys.readouterr().out

    def test_uncaught_exception_exit_code(self, tmp_path, capsys):
        path = tmp_path / "boom.tl"
        path.write_text(
            "module b export main let main(x: Int): Int = 1 / x end"
        )
        assert main(["run", str(path), "--args", "0"]) == 1
        assert "uncaught exception" in capsys.readouterr().err

    def test_bool_and_string_args(self, tmp_path, capsys):
        path = tmp_path / "args.tl"
        path.write_text(
            'module a export main\n'
            'let main(flag: Bool, s: String): Int =\n'
            '  if flag and s == "go" then 1 else 0 end\n'
            'end'
        )
        assert main(["run", str(path), "--args", "true", "go"]) == 0
        assert "=> 1" in capsys.readouterr().out

    def test_unknown_entry(self, demo_file):
        with pytest.raises(SystemExit):
            main(["run", demo_file, "--entry", "nonexistent"])


class TestTml:
    def test_static_tml(self, demo_file, capsys):
        assert main(["tml", demo_file, "--function", "app.main"]) == 0
        out = capsys.readouterr().out
        assert "proc(" in out
        assert "print" in out

    def test_dynamic_tml_inlines_imports(self, demo_file, capsys):
        assert main(["tml", demo_file, "--function", "app.main", "--dynamic"]) == 0
        out = capsys.readouterr().out
        # the library and util calls dissolved into primitives
        assert "(*" in out and "(+" in out
        assert "util.triple" not in out

    def test_plain_names(self, demo_file, capsys):
        assert main(
            ["tml", demo_file, "--function", "util.triple", "--plain"]
        ) == 0
        assert "_8" not in capsys.readouterr().out.split("proc")[0]


class TestDisasm:
    def test_listing(self, demo_file, capsys):
        assert main(["disasm", demo_file, "--function", "util.triple"]) == 0
        out = capsys.readouterr().out
        assert "code util.triple" in out
        assert "tailcall" in out


class TestBench:
    def test_subset(self, capsys):
        assert main(["bench", "--programs", "towers", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "towers" in out
        assert "geometric mean" in out


class TestStore:
    def test_ls(self, tmp_path, capsys):
        from repro.lang import TycoonSystem
        from repro.store.heap import ObjectHeap

        path = str(tmp_path / "img.tyc")
        heap = ObjectHeap(path)
        system = TycoonSystem(heap=heap)
        system.compile("module m export f let f(): Int = 1 end")
        system.persist("m")
        system.commit()
        heap.close()

        assert main(["store", "ls", path]) == 0
        out = capsys.readouterr().out
        assert "module:m" in out

    def test_ls_empty(self, tmp_path, capsys):
        from repro.store.heap import ObjectHeap

        path = str(tmp_path / "empty.tyc")
        ObjectHeap(path).close()
        assert main(["store", "ls", path]) == 0
        assert "(no roots)" in capsys.readouterr().out


class TestServe:
    def test_help_offers_no_unsafe_switch(self, capsys):
        """Negative-control-only switches (non-durable 2PC decisions,
        degraded mode off, fencing off) are ``ServerConfig`` fields the
        chaos harness sets in-process; the operator CLI must not carry them."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "--replicate" in usage  # the real serve help, not a stub
        assert "--no-durable-decisions" not in usage
        assert "unsafe" not in usage.lower()
