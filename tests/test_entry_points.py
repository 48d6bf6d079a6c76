"""The shipped entry points: the ``[project.scripts]`` console scripts
and every ``repro`` subcommand in the dispatch table.

CI runs ``python -m repro`` from the source tree, so nothing else would
notice a console-script target that moved or stopped parsing.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_scripts() -> dict[str, str]:
    """``[project.scripts]`` as name → ``module:function``, read without
    ``tomllib`` (Python 3.10 lacks it)."""
    scripts: dict[str, str] = {}
    section = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, _, target = line.partition("=")
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


def help_text(entry, argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        entry(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_both_console_scripts_are_declared():
    assert console_scripts() == {
        "repro": "repro.cli:main",
        "covirt-serve": "repro.serve.daemon:main",
    }


@pytest.mark.parametrize("name", sorted(console_scripts()))
def test_console_script_target_imports_and_exits_0_on_help(name, capsys):
    module, _, function = console_scripts()[name].partition(":")
    entry = getattr(importlib.import_module(module), function)
    assert help_text(entry, ["--help"], capsys).startswith("usage:")


def test_repro_serve_and_covirt_serve_list_the_same_options(capsys):
    from repro.serve.daemon import main as covirt_serve

    def options(text: str) -> set[str]:
        return set(re.findall(r"--[a-z][a-z-]*", text))

    daemon_options = options(help_text(covirt_serve, ["--help"], capsys))
    assert {"--socket", "--tcp", "--max-sessions", "--tenant-sessions",
            "--slice-cycles", "--backlog"} <= daemon_options
    assert options(help_text(cli.main, ["serve", "--help"], capsys)) == (
        daemon_options
    )


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_exits_0_on_help(name, capsys):
    assert help_text(cli.main, [name, "--help"], capsys).startswith("usage:")
