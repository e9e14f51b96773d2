"""Every library definition has a caller in the library or the benchmark.

An AST scan of ``src/protoadapt`` and ``perfbench/*.py`` collects every name
loaded, as a bare name or an attribute, together with the definitions that
enclose the load. A top-level function, class or method of ``src/protoadapt``
passes when its name is loaded somewhere outside its own body; dunder methods
are called implicitly and pass. Tests and demos do not count as callers, and
an ``__init__`` re-export is an import, not a load.

``ALLOWED`` lists the exceptions. Each one names what keeps it: a layer that
``perfbench/tracing.py`` binds by its name as a string (the definition is that
layer or only serves it), or ``tests/test_acceptance.py``, which pins it.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "protoadapt"
ACCEPTANCE = "tests/test_acceptance.py"

# definition -> (what keeps it, why)
ALLOWED = {
    "node.adjoint_gradient": ("node.adjoint_gradient", "a tracer layer"),
    "retrieval.backward_through_solve": ("retrieval.backward_through_solve", "a tracer layer"),
    "spectral.fisher_energy_test": ("spectral.fisher_energy_test", "a tracer layer"),
    "spectral.sequential_r_selection": ("spectral.sequential_r_selection", "a tracer layer"),
    "spectral.corpus_fisher_spectrum": ("spectral.fisher_energy_test",
                                        "builds the spectrum that layer tests"),
    "tanhmap.TanhMap.params_vector": ("node.adjoint_gradient",
                                      "the flat parameter vector that layer differentiates"),
    "tanhmap.TanhMap.with_params": ("node.adjoint_gradient",
                                    "the map at a flat parameter vector, for that layer"),
    "node.SolveConfig.as_log_dict": ("node.integrate",
                                     "part of the ODE layer, which stays whole while "
                                     "the tracer binds it"),
    "resampling.bootstrap_statistics": (ACCEPTANCE,
                                        "test_bootstrap_exhaustive_exactness pins it"),
}


def _sources():
    """(module, source) of every scanned file; the module is None outside the library."""
    library = [(path.stem, path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [(None, path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return library + bench


def _scan(sources):
    """Library definitions as {qualified name: (name, node)} and every load.

    A load maps a name to the definition nodes around each place it is loaded.
    The nodes themselves, not their ``id``s, are kept: a tree freed after its scan
    could hand a node's id to a node of the next file.
    """
    definitions, loads = {}, defaultdict(list)

    def visit(node, module, owners, class_name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if module is not None and (not owners or class_name is not None):
                prefix = f"{module}.{class_name}." if class_name else f"{module}."
                definitions[prefix + node.name] = (node.name, node)
            top_class = isinstance(node, ast.ClassDef) and not owners
            owners = owners | {node}
            class_name = node.name if top_class else None
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id].append(owners)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads[node.attr].append(owners)
        for child in ast.iter_child_nodes(node):
            visit(child, module, owners, class_name)

    for module, source in sources:
        visit(ast.parse(source), module, frozenset(), None)
    return definitions, loads


def _unused(sources):
    """Qualified names of the definitions nothing loads outside their own body."""
    definitions, loads = _scan(sources)
    return {qualified for qualified, (name, node) in definitions.items()
            if not (name.startswith("__") and name.endswith("__"))
            and not any(node not in owners for owners in loads[name])}


def _traced_layers():
    """The "module.function" names in the tracer's LAYERS table."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in table.elts}


def test_every_definition_has_a_caller():
    orphans = sorted(_unused(_sources()) - set(ALLOWED))
    assert not orphans, f"nothing in the library or perfbench calls: {orphans}"


def test_every_allowed_entry_is_needed():
    stale = sorted(set(ALLOWED) - _unused(_sources()))
    assert not stale, f"allowed entries that now have a caller or no longer exist: {stale}"


def test_every_allowed_entry_states_a_reason_that_holds():
    layers = _traced_layers()
    pinned = _scan([(None, (ROOT / ACCEPTANCE).read_text())])[1]
    for qualified, (keeper, reason) in ALLOWED.items():
        assert reason.strip(), qualified
        if keeper == ACCEPTANCE:
            assert qualified.rsplit(".", 1)[1] in pinned, f"{ACCEPTANCE} does not call {qualified}"
        else:
            assert keeper in layers, f"{qualified}: {keeper} is not a tracer layer"


# two deleted helpers, shortened: a lone function, and a pair in which one
# calls the other, so only the outer one has no caller
RESTORED = {
    "synthdata": (
        "\n\ndef spearman(a, b):\n"
        "    return float(np.corrcoef(rankdata(a), rankdata(b))[0, 1])\n"),
    "prototypes": (
        "\n\ndef diagnostics_of(m_rows):\n"
        "    return kappa_of(m_rows), mu_of(m_rows)\n"
        "\n\ndef diagnostics(memory):\n"
        "    return diagnostics_of(memory.M)\n"),
}


def test_a_restored_helper_is_caught():
    restored = [(module, source + RESTORED[module] if module in RESTORED else source)
                for module, source in _sources()]
    assert _unused(restored) - set(ALLOWED) == {"synthdata.spearman",
                                                "prototypes.diagnostics"}
