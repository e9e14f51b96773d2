"""Every config field is read by the library and set somewhere: no knob that does nothing.

``test_every_config_field_is_read``: an AST scan of ``src/protoadapt``
collects the attribute names loaded outside each config class's own body
(``validate`` reading a field does not count as using it) and checks every
dataclass field against them.

``test_every_config_field_is_set_somewhere``: an AST scan of ``src/``,
``perfbench/``, ``tests/`` and ``demos/`` collects what sets a field: a
keyword argument of a call named after a config class, ``replace`` or a
profile function, a key of an ``ABLATION_VARIANTS`` variant, or an
attribute store on anything but ``self``. A literal equal to the field's
literal default does not set the field. Neither
does a call that unpacks ``**kwargs`` or whose config only has
``validate()`` called on it, so a test that only feeds a value to
``validate()`` does not count. Fields are matched by name, so a keyword of
the same name for another dataclass (``replace(pcfg, lam=...)`` on a
``ProximalConfig``) counts too. This is the config twin of
``test_call_defaults.py``. ``ALLOWED`` lists the exceptions, each with the
file that reads it.
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

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "perfbench", "tests", "demos")
PROFILES = {"desk_config", "fewshot_benchmark_config", "tiny_config", "small_fewshot_config",
            "profile"}
SETTERS = {config.__name__ for config in CONFIGS} | PROFILES | {"replace"}

# "Class.field" -> (the file that loads the field, why it stays unset)
ALLOWED = {
    "RunConfig.ridge_alpha_retrieval": ("perfbench/run.py", "perfbench reads it"),
}

_UNKNOWN = object()


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


def _sources():
    """Relative path -> source of every Python file in the four trees."""
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))}


def _value(node):
    """The literal a node holds, or ``_UNKNOWN``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNKNOWN


def _config_fields(trees):
    """"Class.field" -> the field's default (``_UNKNOWN`` when not a literal)."""
    names = {config.__name__ for config in CONFIGS}
    library = [ast.parse(source) for path, source in trees.items() if path.startswith("src/")]
    return {f"{node.name}.{item.target.id}":
            _UNKNOWN if item.value is None else _value(item.value)
            for module in library for node in module.body
            if isinstance(node, ast.ClassDef) and node.name in names
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def _settings(trees):
    """Field name -> the values set to it (``_UNKNOWN`` for a non-literal)."""
    settings = {}

    def note(name, node):
        settings.setdefault(name, []).append(_value(node))

    for source in trees.values():
        tree = ast.parse(source)
        # a config built only to call validate() on sets nothing
        validated = {id(node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "validate"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in SETTERS and id(node) not in validated:
                    for keyword in node.keywords:
                        if keyword.arg is not None:
                            note(keyword.arg, keyword.value)
            elif isinstance(node, ast.Assign):
                if any(getattr(t, "id", None) == "ABLATION_VARIANTS" for t in node.targets):
                    for variant in node.value.values:
                        for key, value in zip(variant.keys, variant.values):
                            note(key.value, value)
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and getattr(target.value, "id", None) != "self"):
                        note(target.attr, node.value)
    return settings


def _unset(trees):
    """"Class.field" of each config field that nothing sets to a value other than its default."""
    settings = _settings(trees)
    return {qualified for qualified, default in _config_fields(trees).items()
            if not any(value is _UNKNOWN or default is _UNKNOWN or value != default
                       for value in settings.get(qualified.split(".")[1], ()))}


def test_every_config_field_is_set_somewhere():
    unset = sorted(_unset(_sources()) - set(ALLOWED))
    assert not unset, f"config fields nothing sets to a second value: {unset}"


def test_every_allowed_field_is_needed():
    stale = sorted(set(ALLOWED) - _unset(_sources()))
    assert not stale, f"allowed fields that are now set or no longer exist: {stale}"


def test_every_allowed_field_is_read_where_its_reason_says():
    trees = _sources()
    for qualified, (path, reason) in ALLOWED.items():
        assert reason.strip(), qualified
        loads = {node.attr for node in ast.walk(ast.parse(trees[path]))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        assert qualified.split(".")[1] in loads, f"{qualified}: {path} does not read it"


# two deleted fields, restored with their old defaults
RESTORED = {
    "src/protoadapt/pipeline.py": (
        ("    n_channels: int = 60\n", "    n_channels: int = 60\n    kmer: int = 3\n"),
        ("    k_grid: tuple[int, ...] = DEFAULT_K_GRID\n",
         "    k_grid: tuple[int, ...] = DEFAULT_K_GRID\n    lam_grid: tuple = DEFAULT_LAMBDA_GRID\n"),
    ),
}


def test_a_restored_field_is_caught():
    trees = _sources()
    restored = dict(trees)
    for path, edits in RESTORED.items():
        for old, new in edits:
            assert restored[path].count(old) == 1, old
            restored[path] = restored[path].replace(old, new)
    assert _unset(restored) - _unset(trees) == {"MotifRunConfig.kmer", "RunConfig.lam_grid"}
