"""Property test of the ``evppi`` command over hostile flags.

Hypothesis draws ``evppi`` argv, runs it in-process through
:func:`voimc.cli.main` and checks the contract of the exit codes: 0, 2, 3
or 4 and never a traceback; 2 or 3 when a flag is hostile, 0 or 4 when
none is; on exit 3 stderr is one JSON line and no file is written; no
warning, numpy's included, reaches stderr. The examples are derandomized,
so the run is the same every time. The accuracy targets drawn are ones the
model meets in well under a second, so the whole test takes seconds.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voimc import cli

# Per flag, the values a run accepts (None: the flag is left out) and the
# hostile ones, which it must refuse with exit 2 (argparse) or 3.
FLAGS = {
    "--epsilon": (
        # huge targets included: the driver stops after its warm-up there
        {"synthetic1": ["0.05", "0.1", "0.3", "2", "1e300", "1e308"],
         "bkoc": ["30", "60", "150", "1e300", "1e308"]},
        [None, "-1", "-0.5", "0", "-0", "nan", "inf", "-inf", "1e400", "abc", "", "0x10",
         "1e-300", "1e-160"],
    ),
    "--n": (
        [None, "4", "6", "1000", "20000"],
        ["-4", "-1", "0", "1", "2", "3", "5", "7", "1001", "x", "2.5", ""],
    ),
    "--outer": (
        {"synthetic1": [None], "bkoc": [None, "5,14", "14,5", "5,,14", "7,16"]},
        ["", ",", " ", "x", "1,x", "0", "-1", "99", "1,1", "5,x"],
    ),
    "--threads": ([None, "1", "2", "3", "4"], ["-1", "0"]),
}


@st.composite
def evppi_argv(draw):
    """``(argv, hostile)``: an ``evppi`` call with up to two hostile flags
    and accepted values for the rest."""
    model = draw(st.sampled_from(["bkoc", "synthetic1"]))
    hostile = draw(st.sets(st.sampled_from(sorted(FLAGS)), max_size=2))
    argv = ["evppi", "--model", model, "--seed", str(draw(st.integers(0, 3)))]
    for flag, (good, bad) in FLAGS.items():
        values = bad if flag in hostile else good
        value = draw(st.sampled_from(values[model] if isinstance(values, dict) else values))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv, bool(hostile)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(evppi_argv())
def test_evppi_flags_exit_cleanly(case):
    argv, hostile = case
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([*argv, "--output", str(out)])
            except SystemExit as exc:  # argparse refuses what is not a number
                code = exc.code
        assert code in ((2, 3) if hostile else (0, 4)), (argv, code)
        assert not caught, (argv, [str(w.message) for w in caught])
        err = stderr.getvalue()
        if code == 3:
            assert len(err.splitlines()) == 1, (argv, err)
            assert json.loads(err)["error"] == "config", argv
            assert not out.exists(), argv
        elif code in (0, 4):
            assert json.loads(out.read_text())["command"] == "evppi", argv
