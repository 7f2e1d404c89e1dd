"""Command-line entry points for the scan server and client."""

from __future__ import annotations

import contextlib
import logging
import sys

import click

from . import client as client_mod
from . import server as server_mod
from .db import DbError, VulnDatabase


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@click.group()
@click.option("--verbose", is_flag=True, help="Debug logging.")
def main(verbose: bool) -> None:
    """Inventory-driven vulnerability scanning suite."""
    _setup_logging(verbose)


# -- server side -----------------------------------------------------------

@main.group()
def server() -> None:
    """Run and administer the scan server."""


@server.command()
@click.option("--port", type=int, default=None, help="Override the configured port.")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--host", default="0.0.0.0", show_default=True)
def serve(port: int | None, config_path: str, host: str) -> None:
    """Start the scanning daemon."""
    config = server_mod.load_config(config_path)
    if port is not None:
        config.port = port
    try:
        database = VulnDatabase(config.db_path)
    except DbError as exc:
        raise click.ClickException(str(exc)) from exc
    app = server_mod.VulnServer(config, database)
    if not app.credentials:
        click.echo("warning: no clients provisioned; every request will be dropped",
                   err=True)
    server_mod.serve_forever(app, host=host)


@server.command()
@click.option("--feeds", "feeds_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def update(feeds_dir: str, config_path: str) -> None:
    """Ingest feed files and advance the database generation."""
    config = server_mod.load_config(config_path)
    try:
        with contextlib.closing(VulnDatabase(config.db_path)) as database:
            generation = server_mod.run_update(database, feeds_dir)
            records = database.record_count()
    except DbError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"database updated; generation {generation}, {records} CVE records")


@server.group("client")
def server_client() -> None:
    """Manage provisioned clients."""


@server_client.command("add")
@click.option("--id", "client_id", required=True)
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def server_client_add(client_id: str, config_path: str) -> None:
    """Provision a client and print its secret and salt."""
    config = server_mod.load_config(config_path)
    if not config.credentials_path:
        raise click.ClickException("config sets no credentials_path")
    try:
        secret, salt = server_mod.add_credential(config.credentials_path, client_id)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"client_id: {client_id}")
    click.echo(f"secret: {secret}")
    click.echo(f"salt: {salt}")


# -- client side -------------------------------------------------------------

def _client_config(server_addr: str, client_id: str, secret: str, salt_hex: str,
                   poll_interval: float, max_wait: float) -> client_mod.ClientConfig:
    host, _, port_text = server_addr.rpartition(":")
    if not host or not port_text.isdigit():
        raise click.BadParameter("server address must be HOST:PORT")
    try:
        salt = bytes.fromhex(salt_hex)
    except ValueError as exc:
        raise click.BadParameter(f"salt is not hex: {exc}") from exc
    try:
        return client_mod.ClientConfig(
            server_host=host,
            server_port=int(port_text),
            client_id=client_id,
            secret=secret,
            salt=salt,
            poll_interval=poll_interval,
            max_wait=max_wait,
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


_CLIENT_OPTIONS = [
    click.option("--server", "server_addr", required=True, metavar="HOST:PORT"),
    click.option("--id", "client_id", required=True),
    click.option("--secret", required=True),
    click.option("--salt", "salt_hex", required=True, metavar="HEX"),
    click.option("--json", "as_json", is_flag=True, help="Emit the raw JSON report."),
    click.option("--fail-on", type=float, default=None,
                 help="Exit nonzero when any CVSS reaches this score."),
    click.option("--poll-interval", type=float, default=client_mod.DEFAULT_POLL_INTERVAL,
                 show_default=True),
    click.option("--max-wait", type=float, default=client_mod.DEFAULT_MAX_WAIT,
                 show_default=True),
]


def _with_client_options(command):
    for option in reversed(_CLIENT_OPTIONS):
        command = option(command)
    return command


@main.group("client")
def client_group() -> None:
    """Submit scans and fetch results."""


@client_group.command("scan")
@click.option("--inventory", "inventory_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--no-wait", is_flag=True, help="Print the token and exit "
              "without polling for the report.")
@_with_client_options
def client_scan(inventory_path: str, no_wait: bool, server_addr: str,
                client_id: str, secret: str, salt_hex: str, as_json: bool,
                fail_on: float | None, poll_interval: float, max_wait: float) -> None:
    """Submit an inventory and (by default) wait for the report."""
    config = _client_config(server_addr, client_id, secret, salt_hex,
                            poll_interval, max_wait)
    cred = config.credential()
    code, token = client_mod.run_scan(config, inventory_path, cred=cred)
    if code != client_mod.EXIT_OK:
        sys.exit(code)
    click.echo(f"token: {token}")
    if no_wait:
        return
    code, report = client_mod.poll_result(config, token, cred=cred)
    if code != client_mod.EXIT_OK:
        sys.exit(code)
    output, code = client_mod.render_report(
        report, "json" if as_json else "text", fail_on)
    click.echo(output)
    sys.exit(code)


@client_group.command("result")
@click.option("--token", required=True)
@_with_client_options
def client_result(token: str, server_addr: str, client_id: str, secret: str,
                  salt_hex: str, as_json: bool, fail_on: float | None,
                  poll_interval: float, max_wait: float) -> None:
    """Fetch (or wait for) the report for an existing token."""
    config = _client_config(server_addr, client_id, secret, salt_hex,
                            poll_interval, max_wait)
    code, report = client_mod.poll_result(config, token)
    if code != client_mod.EXIT_OK:
        sys.exit(code)
    output, code = client_mod.render_report(
        report, "json" if as_json else "text", fail_on)
    click.echo(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
