"""The CLI's outputs stay byte-identical to the digests that tools/sweep.py
recorded in tests/golden_outputs.json; a fixed quarter of its argvs runs
here, the whole sweep with `python tools/sweep.py`.  The quarter leaves out
the records whose text argparse writes, which follows the Python version."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_outputs_match_the_recorded_digests():
    want = sweep.load_golden()
    argvs = sweep.argvs()
    assert list(want) == [sweep.key(argv) for argv in argvs]  # the file is not stale
    got = sweep.records([argv for argv in argvs[::4]
                         if not sweep.argparse_text(argv, want[sweep.key(argv)])])
    assert len(got) <= 500
    assert {k: v for k, v in got.items() if v != want[k]} == {}
