"""Every defaulted parameter is passed somewhere: no default that is only ever the constant.

An AST scan collects every call in ``src/``, ``perfbench/``, ``tests/`` and
``demos/`` under the called name (a bare name or an attribute), with its
number of positional arguments and its keyword names. A defaulted parameter
of a top-level function or method of ``src/protoadapt`` passes when some call
of that name passes it, by keyword or by position; a call that unpacks
``*args`` or ``**kwargs`` passes every parameter. A method's positions start
after ``self`` or ``cls``, and ``__init__`` is called by its class's name.
Nested closures are skipped. This is the function-parameter twin of
``test_config_fields.py``.

``ALLOWED`` lists the exceptions, each with the tracer layer that keeps it,
checked the way ``test_no_dead_code.py`` checks its own.
"""

import ast
from collections import defaultdict
from pathlib import Path

from test_no_dead_code import _traced_layers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "protoadapt"
TREES = ("src", "perfbench", "tests", "demos")

# "module.function:parameter" -> (the tracer layer that keeps it, why)
ALLOWED = {
    "spectral.corpus_fisher_spectrum:at": ("spectral.fisher_energy_test",
                                           "builds the spectrum that layer tests"),
    "spectral.corpus_fisher_spectrum:bias_correct": ("spectral.fisher_energy_test",
                                                     "builds the spectrum that layer tests"),
    "spectral.sequential_r_selection:alpha": ("spectral.sequential_r_selection",
                                              "a tracer layer"),
}


def _library():
    return [(path.stem, path.read_text()) for path in sorted(SRC.glob("*.py"))]


def _callers():
    return [path.read_text() for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))]


def _defaults(function, skip):
    """{parameter: position among the call's positional arguments, None if keyword-only}."""
    args = function.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    named = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
    named.update({arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None})
    return named


def _definitions(library):
    """(qualified name, called name, defaulted parameters) of each top-level function and method."""
    for module, source in library:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, _defaults(node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        called = node.name if item.name == "__init__" else item.name
                        yield (f"{module}.{node.name}.{item.name}", called,
                               _defaults(item, 0 if static else 1))


def _calls(sources):
    """Called name -> [(positional count, keyword names)], or None for a call that unpacks."""
    calls = defaultdict(list)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls[name].append(None if unpacks else
                                   (len(node.args), {k.arg for k in node.keywords}))
    return calls


def _unpassed(library, callers):
    """"module.function:parameter" of each defaulted parameter no call passes."""
    calls = _calls(callers)
    return {f"{qualified}:{param}" for qualified, called, params in _definitions(library)
            for param, position in params.items()
            if not any(call is None or param in call[1]
                       or (position is not None and position < call[0])
                       for call in calls[called])}


def test_every_default_is_passed():
    unpassed = sorted(_unpassed(_library(), _callers()) - set(ALLOWED))
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_every_allowed_entry_is_needed():
    stale = sorted(set(ALLOWED) - _unpassed(_library(), _callers()))
    assert not stale, f"allowed entries that are now passed or no longer exist: {stale}"


def test_every_allowed_entry_states_a_reason_that_holds():
    layers = _traced_layers()
    for qualified, (keeper, reason) in ALLOWED.items():
        assert reason.strip(), qualified
        assert keeper in layers, f"{qualified}: {keeper} is not a tracer layer"


# two deleted defaults, restored: one no call names, one that every call
# leaves out by passing fewer positional arguments
RESTORED = {
    "prototypes": ("def _lloyd(points, centroids):",
                   "def _lloyd(points, centroids, max_iter=300):"),
    "motifs": ("def storey_pi0(p_values, n_boot",
               "def storey_pi0(p_values, lam: float = 0.5, n_boot"),
}


def test_a_restored_default_is_caught():
    restored = [(module, source.replace(*RESTORED[module]) if module in RESTORED else source)
                for module, source in _library()]
    assert all(new in dict(restored)[module] for module, (_, new) in RESTORED.items())
    caught = _unpassed(restored, _callers()) - _unpassed(_library(), _callers())
    assert caught == {"prototypes._lloyd:max_iter", "motifs.storey_pi0:lam"}
