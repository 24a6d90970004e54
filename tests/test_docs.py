"""The README's library tour names each public function by its module; these
tests fail when the tour and the code drift apart."""

import builtins
import importlib
import inspect
import re
from pathlib import Path

import treeends

README = Path(__file__).resolve().parent.parent / "README.md"
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
