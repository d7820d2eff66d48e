"""Command-line surface: start components, send payments, query running
nodes, decode hex dumps, and drive scenarios.

Long-running verbs (`ledger start`, `connector start`, `node start`,
`spsp serve`) block until interrupted; query verbs attach to a running
component's admin HTTP port."""

from __future__ import annotations

import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click

from . import (
    admin,
    connector as conn_mod,
    inspector,
    ledger as lg,
    ledger_http,
    localapp,
    scenario as scenario_mod,
    spsp,
    stream,
    uplink,
)

log = logging.getLogger("ilpsim")

DEFAULT_NODE_ADMIN = "http://127.0.0.1:7769"


def _configure_logging(debug: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if debug else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
        stream=sys.stderr,
    )


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")


def _block_forever() -> None:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        click.echo("shutting down", err=True)


def _resolve_ledgers(config: dict) -> dict:
    """Ledger refs may be URLs of running ledger processes or inline configs."""
    ledgers = {}
    for ledger_id, ref in config.get("ledgers", {}).items():
        if isinstance(ref, str):
            ledgers[ledger_id] = ledger_http.RemoteLedger(ref)
        else:
            ledgers[ledger_id] = lg.load_ledger({"ledgerId": ledger_id, **ref})
    return ledgers


@click.group()
@click.option("--debug", is_flag=True, help="Verbose logging to stderr.")
def main(debug: bool) -> None:
    _configure_logging(debug)


# --- ledger ------------------------------------------------------------------


@main.group()
def ledger() -> None:
    """Run a mock ledger."""


@ledger.command("start")
@click.argument("config_path")
@click.option("--port", type=int, default=None, help="API port (default from config apiPort, else ephemeral).")
def ledger_start(config_path: str, port: int | None) -> None:
    config = _load_json(config_path)
    instance = lg.load_ledger(config)
    api_port = port if port is not None else int(config.get("apiPort", 0))
    server = ledger_http.LedgerApiServer(instance, port=api_port)
    click.echo(f"ledger {instance.config.ledger_id} ({instance.config.asset_code}) at {server.url}")
    _block_forever()
    server.close()


# --- connector ---------------------------------------------------------------


@main.group()
def connector() -> None:
    """Run a connector."""


@connector.command("start")
@click.argument("config_path")
@click.option("--btp-port", type=int, default=None, help="BTP listen port (default from config btpPort).")
def connector_start(config_path: str, btp_port: int | None) -> None:
    config = _load_json(config_path)
    try:
        ledgers = _resolve_ledgers(config)
        conn = conn_mod.load_connector(config, ledgers)
        for account_id, amount in config.get("funding", {}).items():
            conn.fund_ledger_account(account_id, int(amount))
        listen_port = btp_port if btp_port is not None else int(config.get("btpPort", 0))
        listener = conn.listen(listen_port)
    except Exception as exc:
        raise click.ClickException(str(exc))
    routes = {
        ("GET", "/info"): lambda _body: conn.snapshot(),
        ("GET", "/accounts"): lambda _body: conn.snapshot()["accounts"],
        ("GET", "/routes"): lambda _body: {"routes": conn.routes.as_list()},
    }
    api = admin.AdminServer(routes, port=int(config.get("adminApiPort", 0)))
    click.echo(f"connector {conn.name} btp port {listener.port} admin {api.url}")
    _block_forever()
    listener.close()
    api.close()


# --- node --------------------------------------------------------------------


@main.group()
def node() -> None:
    """Run or query an uplink node."""


@node.command("start")
@click.argument("config_path")
def node_start(config_path: str) -> None:
    config = _load_json(config_path)
    try:
        node_cfg = uplink.uplink_from_config(config)
        node_ledger = ledger_http.RemoteLedger(config["ledgerApi"])
        instance = uplink.UplinkNode(node_cfg, node_ledger)
        try:
            node_ledger.create_and_fund(
                node_cfg.ledger_account, instance._pubkey, int(config.get("fund", 0))
            )
        except lg.DuplicateAccount:
            raise click.ClickException(
                f"ledger account {node_cfg.ledger_account!r} already exists with a different key"
            )
        instance.attach_stream_server(stream.StreamServer())
        instance.connect_tcp()
        local_port = instance.listen_local()
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(str(exc))
    routes = {
        ("GET", "/info"): lambda _body: instance.info(),
        ("POST", "/cleanup"): lambda _body: instance.cleanup(),
    }
    api = admin.AdminServer(routes, port=int(config.get("adminApiPort", 7769)))
    click.echo(
        f"node {node_cfg.name} address {instance.address} local app port {local_port} admin {api.url}"
    )
    _block_forever()
    instance.close()
    api.close()


def _admin_call(base_url: str, method: str, path: str) -> dict:
    try:
        return admin.call_json(method, base_url.rstrip("/") + path)
    except (admin.HttpError, ValueError) as exc:
        raise click.ClickException(f"admin API unreachable: {exc}")


@node.command("info")
@click.option("--admin-url", default=DEFAULT_NODE_ADMIN, show_default=True)
def node_info(admin_url: str) -> None:
    click.echo(json.dumps(_admin_call(admin_url, "GET", "/info"), indent=2))


@node.command("cleanup")
@click.option("--admin-url", default=DEFAULT_NODE_ADMIN, show_default=True)
def node_cleanup(admin_url: str) -> None:
    click.echo(json.dumps(_admin_call(admin_url, "POST", "/cleanup"), indent=2))


# --- spsp --------------------------------------------------------------------


@main.group(name="spsp")
def spsp_group() -> None:
    """Payment setup: serve an endpoint or send to one."""


@spsp_group.command("serve")
@click.option("--port", type=int, default=6000, show_default=True)
@click.option("--node-host", default="127.0.0.1", show_default=True)
@click.option("--node-port", type=int, default=uplink.DEFAULT_LOCAL_APP_PORT, show_default=True)
@click.option("--token", default="local", show_default=True, help="Local app secret of the node.")
def spsp_serve(port: int, node_host: str, node_port: int, token: str) -> None:
    try:
        app = localapp.LocalApp(node_host, node_port, token=token)
        server = app.listen(stream.StreamServer())
        endpoint = spsp.SpspServer(server, port=port)
    except Exception as exc:
        raise click.ClickException(str(exc))
    click.echo(f"spsp endpoint at {endpoint.url} (destination base {server.base_address})")
    _block_forever()
    endpoint.close()
    app.close()


@spsp_group.command("send")
@click.option("--receiver", required=True, help="Payment pointer or endpoint URL.")
@click.option("--amount", required=True, type=int)
@click.option("--node-host", default="127.0.0.1", show_default=True)
@click.option("--node-port", type=int, default=uplink.DEFAULT_LOCAL_APP_PORT, show_default=True)
@click.option("--token", default="local", show_default=True)
@click.option("--max-packet", type=int, default=2**63, help="Source units per packet.")
def spsp_send(
    receiver: str, amount: int, node_host: str, node_port: int, token: str, max_packet: int
) -> None:
    try:
        app = localapp.LocalApp(node_host, node_port, token=token)
    except Exception as exc:
        raise click.ClickException(f"cannot reach node local port: {exc}")
    try:
        report = spsp.pay(receiver, amount, app, max_packet_amount=max_packet)
    except stream.PaymentError as exc:
        partial = exc.report.to_json() if exc.report else {}
        click.echo(json.dumps({"error": str(exc), **partial}))
        raise SystemExit(1)
    except Exception as exc:
        raise click.ClickException(str(exc))
    finally:
        app.close()
    click.echo(json.dumps(report.to_json()))


# --- inspect -----------------------------------------------------------------


@main.command("inspect")
@click.argument("hexfile")
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
def inspect_cmd(hexfile: str, as_json: bool) -> None:
    """Decode a hex dump of a BTP frame or ILP packet (use '-' for stdin)."""
    text = sys.stdin.read() if hexfile == "-" else Path(hexfile).read_text()
    try:
        report = inspector.inspect_hex(text)
    except ValueError as exc:
        raise click.ClickException(f"not valid hex: {exc}")
    click.echo(json.dumps(asdict(report), default=str) if as_json else report.render())


# --- scenario ----------------------------------------------------------------


@main.group(name="scenario")
def scenario_group() -> None:
    """Run scripted topologies."""


@scenario_group.command("list")
def scenario_list() -> None:
    for name in scenario_mod.builtin_scenario_names():
        click.echo(name)


@scenario_group.command("run")
@click.argument("name_or_path")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--drop-rate", type=float, default=0.0, show_default=True)
@click.option("--duplicate-rate", type=float, default=0.0, show_default=True)
@click.option("--out", default=None, help="Write the JSON report to a file instead of stdout.")
def scenario_run(
    name_or_path: str, seed: int, drop_rate: float, duplicate_rate: float, out: str | None
) -> None:
    if name_or_path.endswith(".json"):
        spec = _load_json(name_or_path)
    else:
        try:
            spec = scenario_mod.load_builtin(name_or_path)
        except FileNotFoundError as exc:
            raise click.ClickException(str(exc))
    faults = None
    if drop_rate or duplicate_rate:
        faults = {"drop_rate": drop_rate, "duplicate_rate": duplicate_rate}
    try:
        report = scenario_mod.run_scenario(spec, seed=seed, faults=faults)
    except (scenario_mod.SetupFailed, scenario_mod.ScenarioAssertFailed) as exc:
        raise click.ClickException(str(exc))
    payload = json.dumps(report.to_json(), indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        click.echo(payload)
    if not report.ok():
        raise SystemExit(1)


if __name__ == "__main__":
    main()
