"""Every edge value of every config field is refused by name in ``validate()``, or the run completes.

Each scalar field of ``RunConfig``, ``GeneratorConfig``, ``WarpConfig`` and
``MotifRunConfig`` is set in turn to 0, 1, -1, 0.0, None, () and "x" on the
tiny fixture at one epoch. A config either raises a ``ValidationError`` in
``validate()`` whose message carries the dotted field name, or runs phase 1,
phase 2 and, for a ``motifs`` field, ``run_motifs`` with an outdir to the
end. A ``CalibrationError``, which ``run_motifs`` raises after it wrote the
calibrated cohorts' files, counts as completing. Any other exception fails
the test: it is a bad value that ``validate()`` let through.
"""

import typing
from dataclasses import fields, is_dataclass, replace

import pytest

from protoadapt.motifs import CalibrationError
from protoadapt.pipeline import RunConfig, run_motifs, run_phase1, run_phase2
from protoadapt.util import ValidationError
from test_pipeline import tiny_config

VALUES = (0, 1, -1, 0.0, None, (), "x")
SECTIONS = {name: kind for name, kind in typing.get_type_hints(RunConfig).items()
            if is_dataclass(kind)}
FIELDS = [f.name for f in fields(RunConfig) if f.name not in SECTIONS] + [
    f"{section}.{f.name}" for section, kind in SECTIONS.items() for f in fields(kind)]


def _with(cfg, name, value):
    *section, key = name.split(".")
    if section:
        return replace(cfg, **{section[0]: replace(getattr(cfg, section[0]), **{key: value})})
    return replace(cfg, **{key: value})


@pytest.mark.parametrize("name", FIELDS)
def test_edge_value_is_refused_by_name_or_completes(name, tmp_path):
    base = replace(tiny_config(), epochs=1)
    for value in VALUES:
        cfg = _with(base, name, value)
        try:
            cfg.validate()
        except ValidationError as exc:
            assert name in str(exc), (value, str(exc))
            continue
        artifacts = run_phase1(cfg)
        run_phase2(cfg, artifacts)
        if name.startswith("motifs."):
            try:
                run_motifs(cfg, outdir=tmp_path / repr(value))
            except CalibrationError:
                pass
