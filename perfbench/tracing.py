"""Layer spans recorded from outside the library.

The tracer rebinds each public layer function of ``protoadapt`` to a wrapper,
in every ``protoadapt`` module that holds the function. ``pipeline`` imports
names directly and ``node.adjoint_gradient`` calls ``node.integrate``, so one
function can be reached through several module attributes; all of them are
rebound. Nothing under ``src/`` changes, and ``uninstall`` restores every
original binding.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top of an operation) and ``op`` the operation id
the runner set. Spans stay in memory until the run writes them out. Work
counters are read from the objects the wrapped functions return.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _integration_counters(result, counts):
    counts["node.steps"] += result.n_steps
    counts["node.rejected"] += result.n_rejected


def _solver_counters(result, counts):
    solution = result[0] if isinstance(result, tuple) else result  # record_tape=True
    counts["retrieval.solver_iterations"] += solution.iterations
    counts["retrieval.solver_restarts"] += solution.restarts
    counts["retrieval.solver_converged"] += int(solution.converged)


def _motif_counters(report, counts):
    counts["motifs.perm_draws"] += int(report.b_used.sum())


# (module, function, reader of the work counters in the returned object)
LAYERS = (
    ("synthdata", "generate_corpus", None),
    ("adapters", "ridge_adapter", None),
    ("spectral", "fisher_energy_test", None),
    ("spectral", "fisher_energy_test_tasks", None),
    ("spectral", "sequential_r_selection", None),
    ("prototypes", "cluster_prototypes", None),
    ("prototypes", "merge_prototypes", None),
    ("prototypes", "coverage_certificate", None),
    ("riskbound", "check_bounds_over_tasks", None),
    ("motifs", "channel_activations", None),
    ("motifs", "motif_test_report", _motif_counters),
    ("motifs", "calibrate_tau", None),
    ("descriptors", "build_descriptor", None),
    ("node", "integrate", _integration_counters),
    ("node", "adjoint_gradient", None),
    ("retrieval", "solve_proximal", _solver_counters),
    ("retrieval", "backward_through_solve", None),
    ("metrics", "compute_metrics", None),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in LAYERS)
COUNTER_NAMES = ("node.steps", "node.rejected", "retrieval.solver_iterations",
                 "retrieval.solver_restarts", "motifs.perm_draws")

# The adjoint replays the forward flow and co-integrates backwards through
# node.integrate; that time belongs to the adjoint, so an integration issued
# under an adjoint span opens no span and is not counted as a forward one.
ABSORBED_BY = {"node.integrate": "node.adjoint_gradient"}


class Tracer:
    """Span recorder over the library's layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.op_group: dict[int, str] = {}
        self.op_wall: dict[int, float] = {}
        self.counts: dict[str, Counter] = defaultdict(Counter)  # group -> counters
        self._open: list[int] = []
        self._bindings: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "protoadapt" or name.startswith("protoadapt.")]
        for (mod, fn, reader), name in zip(LAYERS, LAYER_NAMES):
            original = getattr(sys.modules[f"protoadapt.{mod}"], fn)
            wrapper = self._wrap(name, original, reader)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    def _wrap(self, name, fn, reader):
        spans, open_spans = self.spans, self._open
        absorber = ABSORBED_BY.get(name)

        def traced(*args, **kwargs):
            if absorber is not None and any(spans[i][0] == absorber for i in open_spans):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op]
            spans.append(span)
            open_spans.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if reader is not None:
                reader(result, self.counts[self.op_group[self.op]])
            return result

        return traced

    # -- operations ---------------------------------------------------------

    def begin_op(self, group: str) -> None:
        self.op += 1
        self.op_group[self.op] = group

    def end_op(self, wall_s: float) -> None:
        self.op_wall[self.op] = wall_s

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, groups) -> dict:
        """Calls, self time and counters over the operations of ``groups``.

        A span's self time is its duration minus that of its direct children.
        ``pipeline.self.ms`` is the operations' wall time minus the time under
        top-level spans, so layer self times plus it sum to the wall time.
        """
        groups = set(groups)
        ops = {op for op, g in self.op_group.items() if g in groups}
        child_s = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op in ops and parent >= 0:
                child_s[parent] += end - start
        self_ms = dict.fromkeys(LAYER_NAMES, 0.0)
        calls = Counter()
        top_s = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            own = end - start - child_s[index]
            if own < -1e-9:
                raise RuntimeError(f"span {index} ({name}) has children longer than itself")
            self_ms[name] += 1000.0 * own
            calls[name] += 1
            if parent < 0:
                top_s += end - start
        wall_ms = 1000.0 * sum(w for op, w in self.op_wall.items() if op in ops)
        counts = Counter()
        for group in groups:
            counts.update(self.counts[group])
        out = {f"{name}.ms": ms for name, ms in self_ms.items()}
        out.update({f"{name}.calls": calls[name] for name in LAYER_NAMES})
        out.update({name: counts[name] for name in COUNTER_NAMES})
        out["pipeline.self.ms"] = wall_ms - 1000.0 * top_s
        if out["pipeline.self.ms"] < -1e-6:
            raise RuntimeError("top-level spans outlast the operations that hold them")
        out["trace.wall_ms"] = wall_ms
        # ratios of useful outcomes to attempts; 0 where the layer did no work
        attempts = counts["node.steps"] + counts["node.rejected"]
        out["node.accept_ratio"] = counts["node.steps"] / attempts if attempts else 0.0
        solves = calls["retrieval.solve_proximal"]
        out["retrieval.converged_frac"] = (counts["retrieval.solver_converged"] / solves
                                           if solves else 0.0)
        return out

    def write_spans(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op,group\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{op},{self.op_group[op]}\n")
