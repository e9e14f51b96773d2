"""Shared plumbing: seeded RNG derivation, validation, CSV emission, stage timing."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import resource
import time
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def stable_tag(tag) -> int:
    """Map a string or int tag to a stable 32-bit integer (process independent)."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def child_rng(seed: int, *tags) -> np.random.Generator:
    """Derive an independent generator from a root seed and a tag path.

    The same (seed, tags) pair always yields the same stream, which is what
    makes corpus generation, bootstraps, and training byte-reproducible.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [stable_tag(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _fits(value, kind, bound) -> bool:
    """A bool is never a number, and an int passes for a float."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool))
            and (bound is None or (value > bound[1] if bound[0] == ">" else value >= bound[1])))


@functools.cache
def _schema(cls) -> tuple:
    """(field, type, optional, tuple) for each field of a config class ``check_fields`` checks.

    The annotations are read with ``typing.get_type_hints`` once per class. A
    tuple field's type is its element type; a dataclass field is left out.
    """
    hints, schema = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            continue
        optional = type(None) in typing.get_args(kind)  # annotated X | None
        kind = typing.get_args(kind)[0] if optional else kind
        many = typing.get_origin(kind) is tuple
        schema.append((f.name, typing.get_args(kind)[0] if many else kind, optional, many))
    return tuple(schema)


def check_fields(config, bounds: dict, prefix: str) -> None:
    """Refuse the first field of a config dataclass whose value breaks its schema.

    The type is the annotation: int, float, bool, str or a nonempty
    ``tuple[T, ...]``, each maybe ``| None``. ``bounds`` maps a field to a
    lower bound, ``(">=", 1)`` or ``(">", 0.0)``, that a tuple's every element
    meets too. A dataclass field is left to that config's own ``validate``.
    """
    for name, kind, optional, many in _schema(type(config)):
        value, bound = getattr(config, name), bounds.get(name)
        if optional and value is None:
            continue
        if many:
            wanted = "a nonempty tuple of "
            ok = (isinstance(value, tuple) and bool(value)
                  and all(_fits(v, kind, bound) for v in value))
        else:
            wanted, ok = "", _fits(value, kind, bound)
        if not ok:
            wanted += kind.__name__ + ("" if bound is None else " {} {}".format(*bound))
            raise ValidationError(f"{prefix}{name} must be {wanted}"
                                  f"{' or None' if optional else ''}, got {value!r}")


def check_finite(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def fmt(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if np.isnan(value):
            return "nan"
        if np.isposinf(value):
            return "inf"
        if np.isneginf(value):
            return "-inf"
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows of scalars with a fixed float format (byte reproducible)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_records(path, records, columns=None) -> None:
    """One ``write_csv`` row per record, a dataclass instance or a dict.

    The header is ``columns``, else the first record's field names; a table
    that can be empty needs ``columns`` to keep its header.
    """
    rows = [rec if isinstance(rec, dict) else vars(rec) for rec in records]
    require(columns is not None or rows, "write_records needs columns when there is no record")
    columns = list(rows[0]) if columns is None else columns
    write_csv(path, columns, [[row[c] for c in columns] for row in rows])


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def config_hash(obj) -> str:
    """Stable hash of a JSON-serialisable config mapping."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class StageTimer:
    """A run's ``runtime.txt`` lines, one per timed stage, in one format:
    ``stage=<name> ms=<wall ms>[ tasks=<n>] rss_mb=<MB> run=<hash>``. Per-task
    latency is ms / tasks; ``rss_mb`` is the process's peak resident set so far
    (``ru_maxrss``, KiB on Linux), not the stage's own. A stage timed inside
    another follows it: the outer line goes ahead of the lines of its steps.
    """

    def __init__(self, run: str):
        self.run = run
        self.lines: list[str] = []

    @contextmanager
    def stage(self, name: str, tasks: int | None):
        """Time the ``with`` body as stage ``name`` over ``tasks`` tasks (None: no count)."""
        at = len(self.lines)
        start = time.perf_counter()
        yield
        ms = 1000.0 * (time.perf_counter() - start)
        count = "" if tasks is None else f" tasks={tasks}"
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.lines.insert(at, f"stage={name} ms={ms:.3f}{count} rss_mb={rss_mb:.1f} "
                              f"run={self.run}")


def vector_norm(v) -> float:
    """``float(np.linalg.norm(v))`` of a float array, bit for bit, without the wrapper.

    numpy's own path for that norm is sqrt(v.dot(v)) on the K-order ravel,
    and IEEE sqrt is correctly rounded, so ``math.sqrt`` gives the same float.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def sigmoid(x):
    """Logistic function in one pass; exp only sees -|x|, so it never overflows.

    ``minimum(x, -x)`` is -|x| but keeps a NaN's sign bit. One exp and one
    divide: the numerator is 1 where x >= 0 and e elsewhere (a NaN too), over
    1 + e.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    p = np.where(x >= 0, 1.0, e)
    p /= 1.0 + e
    return p
