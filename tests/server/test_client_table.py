"""The client-side tables cannot drift (no sockets).

One declaration each, everything else derived or held equal here: the
wire error codes (``protocol.ERRORS``) against the ``E_*`` constants, the
codes the daemon raises, the client's exception classes and the
docs/server.md table; the replayable ops against the op table; the
``serve`` flags against ``ServerConfig``; the CLI synopses in
docs/server.md against the parser.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro import cli
from repro.server import client, protocol
from repro.server.daemon import ServerConfig
from repro.server.ops import OPS
from repro.server.sharding.coordinator import OPS as COORDINATOR_OPS

ROOT = Path(__file__).parents[2]
SERVER_DOC = (ROOT / "docs" / "server.md").read_text()

#: config fields that are deliberately not ``serve`` flags: fault
#: injection, negative controls and sweep periods only tests and the chaos
#: suites set
NOT_FLAGS = {
    "fence", "durable_decisions", "twopc_failpoint", "unsafe_no_degraded",
    "io_factory", "profile", "reaper_interval", "mem_watchdog_interval",
    "twopc_timeout", "resolver_interval",
}


def _section(heading: str) -> str:
    return SERVER_DOC.split(heading, 1)[1].split("\n#", 1)[0]


def _subparser(name: str):
    return cli.build_parser()._subparsers._group_actions[0].choices[name]


class TestErrorTable:
    def test_keys_are_exactly_the_E_constants(self):
        constants = {
            getattr(protocol, name) for name in dir(protocol) if name.startswith("E_")
        }
        assert set(protocol.ERRORS) == constants
        assert {n for n in protocol.__all__ if n.startswith("E_")} == {
            n for n in dir(protocol) if n.startswith("E_")
        }

    def test_every_code_is_raised_by_the_daemon_and_none_unlisted(self):
        referenced = set()
        for path in (ROOT / "src" / "repro" / "server").rglob("*.py"):
            if path.name in ("protocol.py", "client.py"):
                continue  # the declaration and the consumer
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr.startswith("E_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "protocol"
                ):
                    referenced.add(getattr(protocol, node.attr))
        assert referenced == set(protocol.ERRORS)

    def test_dispositions_and_flags_are_consistent(self):
        for code, spec in protocol.ERRORS.items():
            assert spec.disposition in (
                protocol.REJECTED, protocol.ENDPOINT, protocol.DETERMINISTIC
            ), code
            if spec.disposition == protocol.REJECTED:
                assert spec.retryable, code
            if spec.disposition == protocol.DETERMINISTIC:
                assert not spec.retryable, code

    def test_client_classes_and_codes_map_onto_each_other(self):
        classes = {
            cls for cls in vars(client).values()
            if isinstance(cls, type)
            and issubclass(cls, client.ServerError)
            and cls is not client.ServerError
        }
        assert set(client._ERROR_TYPES.values()) == classes
        assert set(client._ERROR_TYPES) <= set(protocol.ERRORS)
        for code, cls in client._ERROR_TYPES.items():
            assert cls.__name__ in client.__all__, code
            assert cls.retryable is protocol.ERRORS[code].retryable, code
            assert cls(code, "x").disposition == protocol.ERRORS[code].disposition
        # a code this client has never heard of is final, not a retry
        unknown = client.ServerError("from_the_future", "x")
        assert unknown.disposition == protocol.DETERMINISTIC
        assert unknown.retryable is False

    def test_docs_table_is_a_rendering_of_the_table(self):
        rendered = [
            f"| `{code}` | {spec.meaning} | {spec.disposition} | {spec.recovery} "
            f"| `{client._ERROR_TYPES.get(code, client.ServerError).__name__}` |"
            for code, spec in protocol.ERRORS.items()
        ]
        documented = [
            line for line in _section("### Error codes").splitlines()
            if line.startswith("| `")
        ]
        assert documented == rendered


class TestIdempotentOps:
    def test_covers_every_read_op_and_no_write_op(self):
        for name, op in {**OPS, **COORDINATOR_OPS}.items():
            if op.txn == "read":
                assert name in client.IDEMPOTENT_OPS, name
            if op.txn == "write":
                assert name not in client.IDEMPOTENT_OPS, name
        assert client.IDEMPOTENT_OPS <= set(OPS) | set(COORDINATOR_OPS)


class TestServeFlags:
    def test_serve_image_alone_is_the_default_config(self):
        args = cli.build_parser().parse_args(["serve", "x.tyc"])
        assert cli._serve_config(args) == ServerConfig()

    def test_every_field_is_a_flag_or_deliberately_not(self):
        flagged = {f.name for f in dataclasses.fields(ServerConfig) if "flag" in f.metadata}
        every = {f.name for f in dataclasses.fields(ServerConfig)}
        assert flagged | NOT_FLAGS == every
        assert not flagged & NOT_FLAGS

    def test_flags_reach_their_fields(self):
        args = cli.build_parser().parse_args([
            "serve", "x.tyc", "--no-pgo", "--idle-timeout", "0", "--mem-budget",
            "4096", "--no-archive", "--replica-of", "10.0.0.1:7000",
            "--shard", "a:1,b:2", "--shard", "c:3", "--shard-id", "0",
            "--vnodes", "8", "--read-only",
        ])
        config = cli._serve_config(args)
        assert config.pgo_interval is None and config.idle_timeout is None
        assert config.mem_budget_bytes == 4096 and config.archive is False
        assert config.replica_of == ("10.0.0.1", 7000)
        assert config.shards == [[("a", 1), ("b", 2)], [("c", 3)]]
        assert (config.shard_id, config.shard_vnodes, config.read_only) == (0, 8, True)


class TestCliDocs:
    def test_serve_synopsis_lists_exactly_the_parsers_flags(self):
        synopsis = _section("## CLI reference").split("python -m repro client")[0]
        flags = {
            option for action in _subparser("serve")._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags

    def test_client_synopsis_lists_exactly_the_parsers_actions_and_flags(self):
        synopsis = (
            _section("## CLI reference")
            .split("python -m repro client")[1]
            .split("python -m repro top")[0]
        )
        actions = re.findall(r"^  ([a-z][a-z-]*)", synopsis, flags=re.M)
        assert actions == list(cli._CLIENT_ACTIONS)
        flags = {
            option for action in _subparser("client")._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags
