"""Every config field is read by the library: no knob that does nothing.

An AST scan of ``src/protoadapt`` collects the attribute names loaded outside
each config class's own body (``validate`` reading a field does not count as
using it) and checks every dataclass field against them.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import protoadapt
from protoadapt.pipeline import MotifRunConfig, RunConfig, WarpConfig
from protoadapt.synthdata import GeneratorConfig

SRC = Path(protoadapt.__file__).parent
CONFIGS = (RunConfig, WarpConfig, MotifRunConfig, GeneratorConfig)


def _loads_outside(class_name: str) -> set:
    """Attribute names loaded anywhere in the package except inside ``class_name``."""
    names = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)))
    return names


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_read(config):
    read = _loads_outside(config.__name__)
    unread = [f.name for f in fields(config) if f.name not in read]
    assert not unread, f"{config.__name__} fields nothing reads: {unread}"
