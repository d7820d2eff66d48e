import copy
import gc
import json
import threading
import time
import weakref

import pytest

from ilpsim import scenario

FAULT_TIMEOUTS = {"packet_timeout": 0.05, "forward_timeout": 0.05, "retry_budget": 5}


def test_builtin_names():
    assert scenario.builtin_scenario_names() == [
        "self_swap",
        "xrp_eth_one_connector",
        "xrp_eth_two_connectors",
        "xrp_single_connector",
    ]


def recording_thread_starts(patch) -> list:
    """Patch threading.Thread.start to record every thread started."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    patch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_building_a_topology_starts_only_link_threads(monkeypatch, name):
    """Memory links deliver frames by direct call and authenticate inside
    their endpoints: building a topology starts no thread at all."""
    with monkeypatch.context() as patch:
        started = recording_thread_starts(patch)
        topology = scenario.Topology(scenario.load_builtin(name), seed=0)
    topology.close()
    assert started == []


def test_fault_free_run_starts_no_thread(monkeypatch):
    with monkeypatch.context() as patch:
        started = recording_thread_starts(patch)
        report = scenario.run_scenario(scenario.load_builtin("xrp_eth_two_connectors"), seed=1)
    assert report.ok(), report.checks
    assert started == []


def recording_events(patch) -> list:
    """Patch threading.Event to record every Event built."""
    built = []
    event = threading.Event

    def recording_event():
        built.append(event())
        return built[-1]

    patch.setattr(threading, "Event", recording_event)
    return built


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_fault_free_run_builds_no_event_after_setup(monkeypatch, name):
    """A memory request reads its answer when `send` returns: only setup
    builds Events (one per endpoint)."""
    spec = scenario.load_builtin(name)
    with monkeypatch.context() as patch:
        at_setup = recording_events(patch)
        scenario.Topology(spec, seed=0).close()
    with monkeypatch.context() as patch:
        in_run = recording_events(patch)
        report = scenario.run_scenario(spec, seed=0)
    assert report.ok(), report.checks
    assert len(in_run) == len(at_setup)


@pytest.mark.parametrize(
    "where", ["argument", "spec"], ids=["faults_argument", "spec_faults"]
)
def test_unknown_fault_key_refused_at_setup(where):
    spec = scenario.load_builtin("xrp_single_connector")
    faults = {"drop_rate": 0.1, "delay_seconds": 0.01}
    with pytest.raises(scenario.SetupFailed, match="delay_seconds"):
        if where == "spec":
            scenario.run_scenario({**spec, "faults": faults}, seed=0)
        else:
            scenario.run_scenario(spec, seed=0, faults=faults)


def test_faulty_sweep_waits_for_nothing():
    """Every dropped frame fails its request when `send` returns, so even
    default 5 s timeouts cost no wall time."""
    started = time.monotonic()
    for name in scenario.builtin_scenario_names():
        report = scenario.run_scenario(
            scenario.load_builtin(name), seed=3, faults={"drop_rate": 0.5}
        )
        assert report.checks["atomicity"] is True
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_closed_topology_is_freed_without_the_cycle_collector(name):
    """Closing drops the handlers and accept callbacks that refer back from
    the endpoints to their connectors, so reference counting alone frees a
    closed topology."""
    gc.collect()
    gc.disable()
    try:
        topology = scenario.Topology(scenario.load_builtin(name), seed=0)
        connectors = [weakref.ref(c) for c in topology.connectors.values()]
        topology.close()
        del topology
        assert connectors and all(ref() is None for ref in connectors)
    finally:
        gc.enable()


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
    report = scenario.run_scenario(scenario.load_builtin("self_swap"), seed=1)
    assert report.ok(), report.checks
    assert report.payments[0]["delivered"] == 31_000_000


def test_clean_runs_are_deterministic():
    spec = scenario.load_builtin("xrp_single_connector")
    a = scenario.run_scenario(spec, seed=42)
    b = scenario.run_scenario(spec, seed=42)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_faulty_runs_are_deterministic(name):
    """Memory links deliver on the sending thread, so a request whose frame
    or answer was dropped fails at once, and never races one that is late:
    the same spec, seed and faults give the same report."""
    spec = scenario.load_builtin(name)
    faults = {"drop_rate": 0.1, "duplicate_rate": 0.05}
    a, b = (
        scenario.run_scenario(spec, seed=3, faults=faults, timeouts=FAULT_TIMEOUTS).to_json()
        for _ in range(2)
    )
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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


def test_incompatible_balance_policies_refused_at_setup():
    node_spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    # alice settles only once she owes 1001, one more than conn1 lets her owe
    node_spec["nodes"][0]["uplink"]["balance"]["settleThreshold"] = -1001
    with pytest.raises(scenario.SetupFailed, match="node alice: incompatible balance policies"):
        scenario.Topology(node_spec, seed=0)
    peering_spec = copy.deepcopy(scenario.load_builtin("xrp_eth_two_connectors"))
    conn2 = next(c for c in peering_spec["connectors"] if c["name"] == "conn2")
    conn2["accounts"]["conn1"]["balance"]["maximum"] = 19999999
    with pytest.raises(scenario.SetupFailed, match="peering:conn1:conn2: incompatible balance policies"):
        scenario.Topology(peering_spec, seed=0)


@pytest.mark.parametrize("name", scenario.builtin_scenario_names())
def test_builtin_spec_holds_no_unknown_keys(caplog, name):
    """Every key of a built-in spec's connectors, accounts and nodes is read:
    a node names no asset or ledger, which come from its connector account."""
    scenario.Topology(scenario.load_builtin(name), seed=0).close()
    assert [r.getMessage() for r in caplog.records if "ignoring unknown" in r.getMessage()] == []


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


def test_cleanup_with_zero_settle_delay_closes_both_channels():
    """A node with settleDelay 0 closes its outgoing channel in the same
    cleanup that closes its incoming one, with no clock advance."""
    spec = copy.deepcopy(scenario.load_builtin("xrp_single_connector"))
    spec["nodes"][1]["uplink"]["settleDelay"] = 0
    spec["actions"] = [
        {"action": "pay", "from": "alice", "to": "bob", "amount": 550},
        {"action": "cleanup", "node": "bob"},
    ]
    report = scenario.run_scenario(spec, seed=0)
    assert report.ok(), report.checks
    (cleanup,) = [p for p in report.payments if p["action"] == "cleanup"]
    assert (len(cleanup["closed"]), cleanup["closing"]) == (2, [])
    bob_channels = [
        c
        for c in report.ledgers["xrp"]["channels"]
        if "bob" in (c["account"], c["destination"])
    ]
    assert len(bob_channels) == 2 and all(c["state"] == "closed" for c in bob_channels)


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
