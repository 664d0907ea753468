"""The README's library example runs against the current API, its
configuration block lists the config keys with their defaults, and its flag
table matches each subcommand's flags."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from mildns import ExperimentConfig, cli_main
from mildns.semigroup_flow import MAX_STEPS
from mildns.spectral_field import STACK_SIZE, UNSTACKED_PAD_SIZE

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("True ")  # picard_solve converged


def _config_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration files"):]
    [block] = re.findall(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[:1]
    return block.splitlines()


def test_config_block_lists_every_key_in_order():
    keys = [line.split("=", 1)[0].strip() for line in _config_block()]
    assert keys == [f.name for f in fields(ExperimentConfig)]


def test_config_block_shows_the_defaults(tmp_path):
    # "store_every = ..." is a placeholder; every other line gives its key's default
    lines = [line for line in _config_block()
             if line.split("#", 1)[0].split("=", 1)[1].strip() != "..."]
    assert len(lines) == len(fields(ExperimentConfig)) - 1
    path = tmp_path / "readme.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert ExperimentConfig.from_file(path) == ExperimentConfig()


def _flag_table():
    """(flag, key, subcommand) for every subcommand of every flag-table row."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(--[\w-]+)` +\| `(\w+)` +\| ([\w ,]+?) +\|$", text, re.MULTILINE)
    return [(flag, key, cmd) for flag, key, cmds in rows for cmd in cmds.split(", ")]


def _help(argv, capsys):
    with pytest.raises(SystemExit):
        cli_main([*argv, "--help"])
    return capsys.readouterr().out


def test_flag_table_parses(capsys):
    # argparse's default metavar is the dest, so "--N GRID_N" in a
    # subcommand's help shows a flag that writes the config key grid_n
    keys = {f.name for f in fields(ExperimentConfig)}
    commands = re.search(r"\{([\w,]+)\}", _help([], capsys)).group(1).split(",")
    want = {(flag, dest.lower(), command)
            for command in commands
            for flag, dest in re.findall(r"(--[\w-]+) ([A-Z_]+)\b", _help([command], capsys))
            if dest.lower() in keys}
    assert set(_flag_table()) == want


@pytest.mark.parametrize("flag, key, command", _flag_table())
def test_flag_table_row_matches_help(flag, key, command, capsys):
    assert f"{flag} {key.upper()}" in _help([command], capsys)


def test_stated_stack_size_and_stacking_threshold():
    # the prose states the stack size and the padded-grid size from which
    # every field goes through the transforms alone; a retune must update it
    text = README.read_text(encoding="utf-8")
    sizes = re.findall(r"(?:stacks of up to|chunks of at most) (\d+)", text)
    thresholds = re.findall(r"`P [<=≥] (\d+)`", text)
    assert len(sizes) >= 3 and {int(n) for n in sizes} == {STACK_SIZE}
    assert len(thresholds) >= 3 and {int(n) for n in thresholds} == {UNSTACKED_PAD_SIZE}


def test_stated_step_limit():
    # the prose states march's step limit as a power of ten
    text = README.read_text(encoding="utf-8")
    exponents = re.findall(r"at most 10([⁰¹²³⁴⁵⁶⁷⁸⁹]+) steps", text)
    digits = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    assert exponents and {10 ** int(e.translate(digits)) for e in exponents} == {MAX_STEPS}
