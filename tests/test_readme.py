"""The README's CLI examples, example run config and layout still hold.

Every ``conformer ...`` command in the README's CLI block must parse, the
example ``run.json`` must build valid model, train and synth configs, and the
Layout block must name every module of the package and every function of
``tests/oracles.py``.
"""

import ast
import json
import pathlib
import re
import shlex

import pytest

from conformer.cli import build_parser, resolve_model_config
from conformer.data import SynthConfig
from conformer.model import config_from_dict
from conformer.trainer import TrainConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    after = README[README.index(heading + "\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.DOTALL).group(1)


def cli_commands() -> list[str]:
    joined = fenced_block("## CLI", "bash").replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("conformer ")]


def test_cli_block_lists_every_command():
    commands = {shlex.split(line)[1] for line in cli_commands()}
    assert commands == {"synth", "train", "evaluate", "predict", "flops", "hi"}


@pytest.mark.parametrize("line", cli_commands())
def test_cli_example_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_example_run_config_is_valid():
    raw = json.loads(fenced_block("Example `run.json`:", "json"))
    assert set(raw) == {"synth", "model", "train"}
    resolve_model_config(raw["model"], None, [])
    config_from_dict(TrainConfig, raw["train"], "train")
    config_from_dict(SynthConfig, raw["synth"], "synth")


def test_layout_names_every_module():
    named = set(re.findall(r"\b\w+\.py\b", fenced_block("## Layout", "")))
    modules = {path.name for path in (ROOT / "src" / "conformer").glob("*.py")}
    assert modules - {"__init__.py"} - named == set()


def test_layout_names_every_oracle():
    layout = fenced_block("## Layout", "")
    entry = layout[layout.index("oracles.py"):]
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    oracles = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in oracles if name not in entry} == set()
