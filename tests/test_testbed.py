"""The multi-process test-bed as README.md documents it: a ledger, a connector
and two uplink nodes run as separate `python -m ilpsim` processes that talk
BTP over TCP and share the ledger through its HTTP RPC; an SPSP endpoint in
front of bob's node is paid from alice's node with `spsp send`.

The test runs the README's multi-process block line by line, in its order,
on the configs shipped under `testbed/`. It rewrites only ports: each port
key of a config becomes 0, and every port the README or a config names is
replaced, in URLs, URIs and options, by the port bound in its place. After
the block it asks bob's node, as it asked alice's, for its balances, and
asks the connector's admin API for its address, accounts and routes."""

import json
import os
import re
import select
import shlex
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from ilpsim.admin import call_json
from ilpsim.connector import account_from_config, load_connector
from ilpsim.ledger import load_ledger
from ilpsim.ledger_http import RemoteLedger
from ilpsim.link import parse_btp_uri
from ilpsim.settlement import check_peering_compat
from ilpsim.uplink import uplink_from_config

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
START_TIMEOUT = 30.0
GENESIS = 10**8

# The verbs of the README block, in its order: what the test knows how to run.
VERBS = [
    ("ledger", "start"),
    ("connector", "start"),
    ("node", "start"),
    ("node", "start"),
    ("spsp", "serve"),
    ("spsp", "send"),
    ("node", "info"),
    ("node", "cleanup"),
]


def readme_commands() -> list[list[str]]:
    """The lines of README.md's multi-process block, each split into the
    arguments after `ilpsim`."""
    section = (ROOT / "README.md").read_text().split("## Quick start: multi-process", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert all(command[0] == "ilpsim" for command in commands)
    return [command[1:] for command in commands]


def test_readme_block_has_the_tested_verbs():
    assert [tuple(args[:2]) for args in readme_commands()] == VERBS


NODE_CONFIGS = sorted(
    path for path in (ROOT / "testbed").glob("*.json") if "server" in json.loads(path.read_text())
)


@pytest.mark.parametrize("path", NODE_CONFIGS, ids=lambda path: path.stem)
def test_shipped_node_config_matches_its_connector_account(path):
    """Each node and the connector account its `server` URI names agree on
    the token and on balance policies that can settle. The node learns its
    asset from that account over ILDCP."""
    cfg = json.loads(path.read_text())
    uri = parse_btp_uri(cfg["server"])
    accounts = json.loads((ROOT / "testbed" / "connector.json").read_text())["accounts"]
    account = account_from_config(uri.name, accounts[uri.name])
    node = uplink_from_config(cfg)
    assert check_peering_compat(node.policy, account.policy)
    assert uri.token == account.secret


def test_shipped_configs_hold_no_unknown_keys(caplog):
    """Each config under `testbed/` loads through its loader without a key
    that the loader ignores."""
    ledger = load_ledger(json.loads((ROOT / "testbed" / "ledger.json").read_text()))
    connector = json.loads((ROOT / "testbed" / "connector.json").read_text())
    load_connector(connector, {ledger_id: ledger for ledger_id in connector["ledgers"]})
    for path in NODE_CONFIGS:
        uplink_from_config(json.loads(path.read_text()))
    assert [r.getMessage() for r in caplog.records if "ignoring unknown" in r.getMessage()] == []


def rebind(text: str, ports: dict[int, int]) -> str:
    """`text` with every port in `ports` replaced by the port bound for it."""
    return re.sub(r"\d+", lambda m: str(ports.get(int(m.group()), m.group())), text)


def rewrite(value, ports: dict[int, int]):
    """A config with each port key 0 and each known port in its strings rebound."""
    if isinstance(value, dict):
        return {k: 0 if k.endswith("Port") else rewrite(v, ports) for k, v in value.items()}
    return rebind(value, ports) if isinstance(value, str) else value


def port_of(url: str) -> int:
    return urlsplit(url).port


@pytest.fixture
def cli(tmp_path):
    """Runs `python -m ilpsim` verbs as processes. `start` waits for a
    long-running verb's first stdout line and returns its words; every
    started process is terminated at teardown. Each process's stderr goes
    to a log file."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    started = []

    def start(*args):
        log = tmp_path / f"{len(started)}-{args[0]}.log"
        with open(log, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ilpsim", *args], stdout=subprocess.PIPE, stderr=stderr,
                text=True, env=env, cwd=ROOT,
            )
        started.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        if not line:
            proc.kill()
            proc.wait()
            pytest.fail(f"ilpsim {' '.join(args)} did not start:\n{log.read_text()}")
        return line.split()

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-m", "ilpsim", *args], capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=START_TIMEOUT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return json.loads(result.stdout)

    try:
        yield start, run
    finally:
        for proc in started:
            proc.terminate()
        for proc in started:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def test_payment_across_separate_processes(cli, tmp_path):
    start, run = cli
    ports: dict[int, int] = {}  # a port the README or a config names -> the port bound
    answers = {}
    nodes = {}
    for args in readme_commands():
        args = [rebind(arg, ports) for arg in args]
        verb = tuple(args[:2])
        if verb == ("spsp", "serve"):
            i = args.index("--port") + 1
            named, args[i] = int(args[i]), "0"
            # spsp endpoint at http://127.0.0.1:<port>/.well-known/pay (destination base ...)
            ports[named] = port_of(start(*args)[3])
            continue
        if verb[1] != "start":
            answers[verb] = run(*args)
            continue
        shipped = json.loads((ROOT / args[2]).read_text())
        args[2] = str(tmp_path / Path(args[2]).name)
        Path(args[2]).write_text(json.dumps(rewrite(shipped, ports)))
        words = start(*args)
        if verb == ("ledger", "start"):
            # ledger xrp (XRP) at http://127.0.0.1:<port>
            ledger_url = words[-1]
            ports[shipped["apiPort"]] = port_of(ledger_url)
        elif verb == ("connector", "start"):
            # connector conn1 btp port <port> admin <url>
            ports[shipped["btpPort"]] = int(words[4])
            conn_admin = words[6]
        else:
            # node <name> address <address> local app port <port> admin <url>
            ports[shipped["localAppPort"]] = int(words[7])
            ports[shipped["adminApiPort"]] = port_of(words[9])
            nodes[words[1]] = {"address": words[3], "admin": words[9]}
    assert sorted(nodes) == ["alice", "bob"]
    assert len(set(ports.values())) == len(ports) == 7

    assert answers[("spsp", "send")] == {
        "source_sent": 100, "delivered_estimate": 100, "packets_fulfilled": 3,
        "packets_rejected": 0,
    }
    alice = answers[("node", "info")]
    bob = run("node", "info", "--admin-url", nodes["bob"]["admin"])
    assert (alice["name"], alice["address"]) == ("alice", nodes["alice"]["address"])
    assert (bob["name"], bob["address"]) == ("bob", nodes["bob"]["address"])
    # neither node config names an asset: each learnt it from conn1 over ILDCP
    for info in (alice, bob):
        assert (info["asset_code"], info["asset_scale"]) == ("XRP", 6)
    assert alice["ilp_balance"] == -100
    assert bob["ilp_balance"] == 100
    assert [c["direction"] for c in alice["channels"]] == ["outgoing", "incoming"]
    assert alice["ledger_balance"] == 1400
    # bob closes the connector's channel to him at once, as its payee, and
    # puts his own into its settle delay
    cleanup = answers[("node", "cleanup")]
    assert (len(cleanup["closed"]), len(cleanup["closing"])) == (1, 1)
    ledger = RemoteLedger(ledger_url)
    assert ledger.account_info("bob").balance == 1400
    assert ledger.total_value() == GENESIS

    info = call_json("GET", f"{conn_admin}/info")
    assert info["address"] == "g.conn1"
    accounts = call_json("GET", f"{conn_admin}/accounts")
    assert accounts == info["accounts"]
    assert {peer: entry["balance"] for peer, entry in accounts.items()} == {
        "alice.alice": 100, "bob.bob": -100,
    }
    assert call_json("GET", f"{conn_admin}/routes") == {
        "routes": [
            {"prefix": "g.conn1.alice.alice", "next_hop": "alice.alice"},
            {"prefix": "g.conn1.bob.bob", "next_hop": "bob.bob"},
        ]
    }
