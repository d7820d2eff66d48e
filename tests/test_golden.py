"""Scenario reports must stay byte-identical across refactors.

`tests/golden/` holds the report of each built-in spec at seeds 0 and 1, as
`ilpsim scenario run <spec> --seed <n>` writes it. Each case runs four
times: as written, with each ledger behind `LedgerApiServer` and used
through `RemoteLedger`, with each link a pair of `TcpTransport`s over a
socket pair, and with both, as the multi-process test-bed has them. All runs
must match the same file, so the memory run is the oracle of the other
three. Every case, faulty ones too, also runs with the BTP codec and the
ILP decoder made to raise: memory links hand frames and packets over as they
are, and never encode or decode them.

`tests/golden/faulty/` holds the same specs and seeds under each fault plan
in FAULTS, with the acceptance sweep's short timeouts. A faulty memory run
repeats exactly, so these are checked in the memory column only: over TCP a
dropped frame races a real timeout.

Run this module as a script to rewrite both sets of files from the current
code (in-process ledgers, memory links):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import socket
from pathlib import Path

import pytest

from ilpsim import btp, ilp, link, scenario
from ilpsim.ledger_http import LedgerApiServer, RemoteLedger
from test_acceptance import FAULT_TIMEOUTS

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1)
CASES = [(name, seed) for name in scenario.builtin_scenario_names() for seed in SEEDS]
FAULTS = {
    "drop0.1_dup0.05": {"drop_rate": 0.1, "duplicate_rate": 0.05},
    "drop0.5": {"drop_rate": 0.5},
}
FAULTY_CASES = [(name, seed, plan) for name, seed in CASES for plan in FAULTS]


def _path(name: str, seed: int, plan: str = "") -> Path:
    if plan:
        return GOLDEN / "faulty" / f"{name}_seed{seed}_{plan}.json"
    return GOLDEN / f"{name}_seed{seed}.json"


def _report(name: str, seed: int, plan: str = "") -> str:
    faults = FAULTS[plan] if plan else None
    timeouts = FAULT_TIMEOUTS if plan else None
    spec = scenario.load_builtin(name)
    report = scenario.run_scenario(spec, seed=seed, faults=faults, timeouts=timeouts)
    return json.dumps(report.to_json(), indent=2) + "\n"


@pytest.mark.parametrize("name,seed", CASES)
def test_fault_free_report_matches_golden(name, seed):
    assert _report(name, seed) == _path(name, seed).read_text()


@pytest.mark.parametrize("name,seed,plan", FAULTY_CASES)
def test_faulty_report_matches_golden(name, seed, plan):
    assert _report(name, seed, plan) == _path(name, seed, plan).read_text()


@pytest.fixture
def no_codecs(monkeypatch):
    """Makes the BTP codec and the ILP decoder raise, and returns the list of
    the calls made: a link answers a handler that raises with T00, so a call
    need not change the report."""
    calls = []

    def refuse(name):
        def call(_data):
            calls.append(name)
            raise AssertionError(f"a memory link called {name}")

        return call

    for module, name in ((btp, "encode_frame"), (btp, "decode_frame"), (ilp, "decode_packet")):
        monkeypatch.setattr(module, name, refuse(f"{module.__name__}.{name}"))
    return calls


@pytest.mark.parametrize("name,seed,plan", [(*case, "") for case in CASES] + FAULTY_CASES)
def test_report_without_btp_codec_matches_golden(no_codecs, name, seed, plan):
    assert _report(name, seed, plan) == _path(name, seed, plan).read_text()
    assert no_codecs == []


@pytest.fixture
def http_ledgers(monkeypatch):
    """Makes every ledger a scenario loads a RemoteLedger of a ledger served
    over HTTP."""
    load_ledger = scenario.lg.load_ledger
    servers = []

    def load_remote(config, clock=None):
        servers.append(LedgerApiServer(load_ledger(config, clock=clock)))
        return RemoteLedger(servers[-1].url)

    monkeypatch.setattr(scenario.lg, "load_ledger", load_remote)
    yield servers
    for server in servers:
        server.close()


@pytest.mark.parametrize("name,seed", CASES)
def test_fault_free_report_with_http_ledgers_matches_golden(http_ledgers, name, seed):
    assert _report(name, seed) == _path(name, seed).read_text()
    assert http_ledgers


@pytest.fixture
def tcp_links(monkeypatch):
    """Makes every link a scenario builds a pair of TcpTransports over a
    socket pair, so its frames cross sockets and reader threads."""
    sockets = []

    def tcp_pair():
        a, b = socket.socketpair()
        sockets.extend((a, b))
        return link.TcpTransport(a), link.TcpTransport(b)

    monkeypatch.setattr(scenario.link, "memory_pair", tcp_pair)
    yield sockets
    for sock in sockets:
        sock.close()


@pytest.mark.parametrize("name,seed", CASES)
def test_fault_free_report_over_tcp_links_matches_golden(tcp_links, name, seed):
    assert _report(name, seed) == _path(name, seed).read_text()
    assert tcp_links


@pytest.mark.parametrize("name,seed", CASES)
def test_fault_free_report_over_tcp_links_with_http_ledgers_matches_golden(
    tcp_links, http_ledgers, name, seed
):
    """Connector BTP handlers call RemoteLedger, and the ledgers' HTTP
    connections run on the same shared handler threads."""
    assert _report(name, seed) == _path(name, seed).read_text()
    assert tcp_links and http_ledgers


if __name__ == "__main__":
    (GOLDEN / "faulty").mkdir(parents=True, exist_ok=True)
    for case in CASES + FAULTY_CASES:
        _path(*case).write_text(_report(*case))
        print(_path(*case))
