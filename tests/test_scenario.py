import copy
import json
import threading

import pytest

from ilpsim import link, scenario

FAULT_TIMEOUTS = {"packet_timeout": 0.05, "forward_timeout": 0.05, "retry_budget": 5}


def test_builtin_names():
    assert scenario.builtin_scenario_names() == [
        "self_swap",
        "xrp_eth_one_connector",
        "xrp_eth_two_connectors",
        "xrp_single_connector",
    ]


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_building_a_topology_starts_only_link_threads(monkeypatch, name):
    """Links authenticate inside their endpoints: building a topology starts
    each endpoint's reader and the handlers of inbound Messages, nothing else."""
    targets = []
    start = threading.Thread.start

    def recording_start(thread):
        targets.append(getattr(thread._target, "__func__", thread._target))
        start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", recording_start)
        topology = scenario.Topology(scenario.load_builtin(name), seed=0)
    topology.close()
    assert link.LinkEndpoint._read_loop in targets
    assert set(targets) <= {link.LinkEndpoint._read_loop, link.LinkEndpoint._handle_message}


def test_load_builtin_unknown():
    with pytest.raises(FileNotFoundError):
        scenario.load_builtin("no_such_thing")


def test_single_connector_clean_run():
    report = scenario.run_scenario(scenario.load_builtin("xrp_single_connector"), seed=1)
    assert report.ok(), report.checks
    assert [p["delivered"] for p in report.payments] == [100, 450]
    assert report.checks["connector_neutrality_exact"] is True
    assert report.checks["conservation:xrp"] is True


def test_one_connector_conversion_run():
    report = scenario.run_scenario(scenario.load_builtin("xrp_eth_one_connector"), seed=1)
    assert report.ok(), report.checks
    # 10,000,000 drops at 0.0062 ETH/XRP, scale 6 -> 9: exactly 62,000,000 gwei
    assert report.payments[0]["delivered"] == 62_000_000


def test_two_connector_run_with_settlement():
    report = scenario.run_scenario(scenario.load_builtin("xrp_eth_two_connectors"), seed=1)
    assert report.ok(), report.checks
    assert report.payments[0]["delivered"] == 62_000_000
    assert report.payments[0]["packets_fulfilled"] == 7  # split by maxPacket
    assert report.payments[1]["delivered"] == 155_000_000
    # the second payment crossed the alice->conn1 and conn1->conn2 thresholds
    xrp = report.ledgers["xrp"]
    assert any(c["balance"] > 0 for c in xrp["channels"])


def test_self_swap_run():
    spec = scenario.load_builtin("self_swap")
    report = scenario.swap_scenario(spec, "xrp_uplink", "eth_uplink", 5_000_000, seed=1)
    assert report.ok(), report.checks
    assert report.payments[0]["delivered"] == 31_000_000


def test_clean_runs_are_deterministic():
    spec = scenario.load_builtin("xrp_single_connector")
    a = scenario.run_scenario(spec, seed=42)
    b = scenario.run_scenario(spec, seed=42)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_different_seeds_differ():
    spec = scenario.load_builtin("xrp_single_connector")
    a = scenario.run_scenario(spec, seed=1)
    b = scenario.run_scenario(spec, seed=2)
    assert json.dumps(a.to_json(), sort_keys=True) != json.dumps(b.to_json(), sort_keys=True)


@pytest.mark.parametrize("drop_rate", [0.1, 0.5])
def test_fault_runs_preserve_invariants(drop_rate):
    report = scenario.run_scenario(
        scenario.load_builtin("xrp_single_connector"),
        seed=3,
        faults={"drop_rate": drop_rate},
        timeouts=FAULT_TIMEOUTS,
    )
    assert all(report.checks[k] for k in report.checks if k.startswith("conservation:"))
    assert report.checks["atomicity"] is True
    assert report.checks["settlement_locality"] is True


def test_assert_action_failure():
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["actions"] = [{"action": "assert", "check": "bogus"}]
    with pytest.raises(scenario.ScenarioAssertFailed):
        scenario.run_scenario(spec, seed=0)


def test_unknown_action_rejected():
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["actions"] = [{"action": "explode"}]
    with pytest.raises(scenario.SetupFailed):
        scenario.run_scenario(spec, seed=0)


def test_advance_clock_and_cleanup_actions():
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["actions"] = [
        {"action": "pay", "from": "alice", "to": "bob", "amount": 550},
        {"action": "cleanup", "node": "bob"},
        {"action": "advance-clock", "seconds": 3601},
        {"action": "cleanup", "node": "bob"},
        {"action": "assert", "check": "conservation"},
    ]
    report = scenario.run_scenario(spec, seed=0)
    assert report.ok(), report.checks
    cleanups = [p for p in report.payments if p["action"] == "cleanup"]
    assert cleanups[0]["closing"] and cleanups[1]["closing"] == []
    bob_channels = [
        c
        for c in report.ledgers["xrp"]["channels"]
        if "bob" in (c["account"], c["destination"])
    ]
    assert bob_channels and all(c["state"] == "closed" for c in bob_channels)


def test_kill_link_then_conservation():
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["actions"] = [
        {"action": "pay", "from": "alice", "to": "bob", "amount": 100},
        {"action": "kill-link", "node": "alice"},
        {"action": "assert", "check": "conservation"},
        # a pay over the dead link fails with T00 Rejects instead of raising
        {"action": "pay", "from": "alice", "to": "bob", "amount": 100},
    ]
    report = scenario.run_scenario(spec, seed=0)
    first, second = report.payments
    assert first["error"] is None and first["delivered"] == 100
    assert "T00" in second["error"]
    assert second["delivered"] == 0
    assert report.checks["conservation:xrp"] is True


def test_settle_action_flushes_debt():
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["actions"] = [
        {"action": "pay", "from": "alice", "to": "bob", "amount": 100},
        {"action": "settle", "node": "alice"},
    ]
    report = scenario.run_scenario(spec, seed=0)
    assert report.ok(), report.checks
    # alice's 100-unit debt was force-settled onto her channel
    alice_channels = [
        c for c in report.ledgers["xrp"]["channels"] if c["account"] == "alice"
    ]
    assert alice_channels[0]["balance"] == 100


def test_report_json_round_trip():
    report = scenario.run_scenario(scenario.load_builtin("xrp_single_connector"), seed=0)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["name"] == "xrp_single_connector"
    assert payload["seed"] == 0
    assert {"atomicity", "settlement_locality"} <= set(payload["checks"])
    assert any(e["kind"] == "receiver_credited" for e in payload["events"])
