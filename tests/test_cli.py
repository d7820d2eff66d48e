import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from importlib import resources

from ilpsim import scenario
from ilpsim.cli import main

BUILTINS = ["self_swap", "xrp_eth_one_connector", "xrp_eth_two_connectors", "xrp_single_connector"]
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def test_scenario_list(runner):
    result = runner.invoke(main, ["scenario", "list"])
    assert result.exit_code == 0
    assert result.output.split() == BUILTINS


def test_scenario_run_builtin(runner):
    result = runner.invoke(main, ["scenario", "run", "xrp_single_connector", "--seed", "1"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["name"] == "xrp_single_connector"
    assert all(v is True for v in report["checks"].values())


def test_scenario_run_out_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["scenario", "run", "xrp_single_connector", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["seed"] == 0


@pytest.mark.parametrize("name", BUILTINS)
def test_scenario_run_out_file_matches_golden(runner, tmp_path, name):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["scenario", "run", name, "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / f"{name}_seed0.json").read_bytes()


def test_scenario_run_with_faults_writes_the_report_of_its_plan(runner, tmp_path):
    """The CLI sets no timeouts, so its report is compared with a run at the
    spec's own, not with the golden faulty files (which use short ones)."""
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["scenario", "run", "xrp_eth_two_connectors", "--seed", "0",
         "--drop-rate", "0.1", "--duplicate-rate", "0.05", "--out", str(out)],
    )
    report = scenario.run_scenario(
        scenario.load_builtin("xrp_eth_two_connectors"), 0,
        faults={"drop_rate": 0.1, "duplicate_rate": 0.05},
    )
    assert out.read_text() == json.dumps(report.to_json(), indent=2) + "\n"
    assert (result.exit_code == 0) == report.ok(), result.output


def test_scenario_run_spec_file(runner, tmp_path):
    spec = json.loads(
        (resources.files("ilpsim") / "scenarios" / "xrp_single_connector.json").read_text()
    )
    spec["actions"] = spec["actions"][:1]
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["scenario", "run", str(path)])
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)["payments"]) == 1


def test_scenario_run_unknown_name(runner):
    result = runner.invoke(main, ["scenario", "run", "nope"])
    assert result.exit_code == 1
    assert "nope" in result.output


@pytest.mark.parametrize("content", [None, "not json"], ids=["missing", "not_json"])
def test_scenario_run_unreadable_spec_file(runner, tmp_path, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    result = runner.invoke(main, ["scenario", "run", str(path)])
    assert result.exit_code == 1
    assert f"cannot read {path}" in result.output
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback


def test_inspect_capture_file(runner, tmp_path):
    hex_text = (resources.files("ilpsim") / "captures" / "btp_prepare.hex").read_text()
    path = tmp_path / "frame.hex"
    path.write_text(hex_text)
    result = runner.invoke(main, ["inspect", str(path)])
    assert result.exit_code == 0, result.output
    assert "requestId: 530421608" in result.output
    assert "amount: 2500000000" in result.output


def python(*args):
    """Run the interpreter with `src` on its path; return the finished process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=60,
    )


@pytest.mark.parametrize("module", ["ilpsim", "ilpsim.cli"])
def test_python_dash_m_runs_the_command(module):
    result = python("-m", module, "scenario", "list")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == BUILTINS


def test_inspect_closes_its_file(tmp_path):
    hex_text = (resources.files("ilpsim") / "captures" / "btp_prepare.hex").read_text()
    path = tmp_path / "frame.hex"
    path.write_text(hex_text)
    result = python("-X", "dev", "-W", "error::ResourceWarning", "-m", "ilpsim", "inspect", str(path))
    assert result.returncode == 0, result.stderr
    assert "requestId: 530421608" in result.stdout
    assert "ResourceWarning" not in result.stderr, result.stderr


def test_inspect_json_mode_and_stdin(runner):
    hex_text = (resources.files("ilpsim") / "captures" / "btp_fulfill.hex").read_text()
    result = runner.invoke(main, ["inspect", "-", "--json"], input=hex_text)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["fields"]["requestId"] == 1054375881


def test_inspect_bad_hex(runner, tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text("this is not hex")
    result = runner.invoke(main, ["inspect", str(path)])
    assert result.exit_code == 1
    assert "not valid hex" in result.output


def test_unknown_verb_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_node_info_unreachable(runner):
    result = runner.invoke(main, ["node", "info", "--admin-url", "http://127.0.0.1:1"])
    assert result.exit_code == 1
    assert "unreachable" in result.output


def test_spsp_send_unreachable_node(runner):
    result = runner.invoke(
        main,
        ["spsp", "send", "--receiver", "http://127.0.0.1:1/", "--amount", "5",
         "--node-port", "1"],
    )
    assert result.exit_code == 1
    assert "cannot reach node local port" in result.output


def test_help_lists_verbs(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for verb in ("ledger", "connector", "node", "spsp", "inspect", "scenario"):
        assert verb in result.output
