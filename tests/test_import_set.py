"""The library loads numpy alone.

``scipy.special`` costs about 16 MB of peak RSS, and ``scipy.stats`` tens of
MB more and most of a second of start-up. The motif t-test's df=2 tail is a
port of Boost's ``students_t`` cdf in ``motifs``, so importing the
library and running phases 1 and 2, one-task prediction, the risk-bound
check, threshold calibration and the motif pipeline load no scipy module.
Tests and demos 01/06 still use scipy as an oracle, so every check runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import protoadapt

TESTS = Path(__file__).resolve().parent


def _run(code: str) -> list:
    """The output lines of ``code`` in a fresh interpreter that finds the library and the tests."""
    src = str(Path(protoadapt.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(TESTS)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_import_loads_no_heavy_scipy_subpackage():
    out = _run("import sys, protoadapt, protoadapt.cli\n"
               "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert out == [""]


def test_phases_calibration_and_motifs_load_no_scipy():
    code = """
import sys
import numpy as np
from test_pipeline import tiny_config
from protoadapt import adapters, descriptors, pipeline, retrieval
from protoadapt.motifs import CalibrationError, calibrate_tau
from protoadapt.riskbound import check_bounds_over_tasks

def scipy_modules():
    return ' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))

cfg = tiny_config()
art = pipeline.run_phase1(cfg)
trained = pipeline.run_phase2(cfg, art)
fmap = art.corpus.feature_map()
task = art.corpus.full_support(art.corpus.tasks_in("Ret-Test")[0])
descriptor = descriptors.build_descriptor(task, art.probe, art.memory.chain,
                                          art.standardizer, fmap)
theta_hat = adapters.ridge_adapter(task, fmap, cfg.ridge_alpha_retrieval * task.n_support)
retrieval.predict_task(task, art.memory, trained.net, descriptor, theta_hat,
                       pipeline._proximal_config(cfg), min(art.rank_selected, art.memory.K),
                       fmap, transform=trained.transform)
check_bounds_over_tasks(art.corpus.tasks[:3], art.memory, art.certificate, fmap)
print(scipy_modules())

# noisy separable activations, until a calibration reaches its t-test
labels = np.array([0, 1] * 20)
for seed in range(20):
    rng = np.random.default_rng(seed)
    acts = np.clip(np.where(labels == 1, 0.72, 0.28) + 0.3 * rng.normal(size=(12, 40)), 0.0, 1.0)
    try:
        cal = calibrate_tau(acts, labels, cohort="c", calib_frac=0.4, seed=seed)
    except CalibrationError:
        continue
    if not cal.zero_variance:
        break
print(cal.zero_variance)
print(scipy_modules())

calibrations, report = pipeline.run_motifs(cfg)
print(sum(not c.zero_variance for c in calibrations if c is not None) > 0)
print(scipy_modules())
"""
    assert _run(code) == ["", "False", "", "True", ""]
