"""The README's library tour names each public function by its module, and
its command table lists each subcommand's options; these tests fail when the
README and the code drift apart."""

import argparse
import builtins
import importlib
import inspect
import re
from pathlib import Path

import treeends
from treeends import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BS2 = ROOT / "germs" / "bs2.germ"
PLAIN_NAME = re.compile(r"([A-Za-z_]\w*)(\(.*\))?")


def tour_bullets() -> dict:
    """Module name -> text of its ``treeends.<module>`` bullet."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    bullet_list = tour[tour.index("\n- ") :].split("\n\n", 1)[0]
    for bullet in bullet_list.split("\n- ")[1:]:
        head = re.match(r"`treeends\.(\w+)`", bullet)
        assert head, f"tour bullet names no module: {bullet[:40]!r}"
        bullets[head.group(1)] = bullet
    return bullets


def test_every_plain_name_in_the_tour_exists_in_its_module():
    missing = []
    for module_name, bullet in tour_bullets().items():
        module = importlib.import_module(f"treeends.{module_name}")
        for span in re.findall(r"`([^`]+)`", bullet):
            m = PLAIN_NAME.fullmatch(span)
            if m and not hasattr(module, m.group(1)) and not hasattr(builtins, m.group(1)):
                missing.append(f"treeends.{module_name}.{m.group(1)}")
    assert missing == []


def test_package_root_binds_no_function_or_class():
    bound = [
        name
        for name, value in vars(treeends).items()
        if inspect.isfunction(value) or inspect.isclass(value)
    ]
    assert bound == []


def command_table() -> dict:
    """Subcommand -> (options, formats) as the README's table lists them."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, _, options, formats = line.strip("|").split(" | ")
            table[command.strip("` ")] = (
                set(re.findall(r"`(--[\w-]+)`", options)),
                {f.strip() for f in formats.split(",")},
            )
    return table


def test_command_table_lists_the_options_of_each_subcommand():
    table = {command: options for command, (options, _) in command_table().items()}
    sub = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, parser in sub.choices.items()
    }
    assert table == declared


def test_command_table_lists_the_formats_of_each_subcommand(capsys):
    target = {"proseq": ["prefix:3;cycle:2"], "reduce": [str(BS2), "--power", "2"]}
    rejected = []
    for command, (_, formats) in sorted(command_table().items()):
        for fmt in ("text", "json", "dot"):
            argv = [command, "--format", fmt, *target.get(command, [str(BS2)])]
            code = cli.run(argv)
            capsys.readouterr()
            assert code in (0, 2), argv
            if (code == 2) != (fmt not in formats):
                rejected.append((command, fmt, code))
    assert rejected == []
