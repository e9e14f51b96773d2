"""``tools/compare_runs.py``: its file list is what a run set writes; a tree agrees with itself."""

import importlib.util
from pathlib import Path

from test_pipeline import tiny_config

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def test_file_list_is_what_a_run_set_writes_and_two_runs_agree(tmp_path):
    hashes = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        compare_runs.run_set(tiny_config(), outdir)
        # a new output file fails here until it joins RUN_FILES, so none escapes the check
        written = {path.name for path in outdir.iterdir()}
        assert written == {*compare_runs.RUN_FILES, "runtime.txt"}
        hashes.append(compare_runs.file_hashes(outdir))
    assert set(hashes[0]) == set(compare_runs.RUN_FILES)
    assert set(compare_runs.classify(*hashes).values()) == {"identical"}


def test_classify_and_first_difference(tmp_path):
    ours = {"same.csv": "1", "changed.csv": "2", "added.csv": "3"}
    theirs = {"same.csv": "1", "changed.csv": "9", "missing.csv": "4"}
    assert compare_runs.classify(ours, theirs) == {
        "added.csv": "added", "changed.csv": "changed", "missing.csv": "missing",
        "same.csv": "identical"}
    (tmp_path / "ours.csv").write_text("a,b\n1,2\n3,4\n")
    (tmp_path / "theirs.csv").write_text("a,b\n1,2\n3,5\n")
    assert (compare_runs.first_difference(tmp_path / "ours.csv", tmp_path / "theirs.csv")
            == "line 3, column 3: '3,5' -> '3,4'")
