"""Property tests of the four commands over hostile flags and config files.

Hypothesis draws argv for every command, and config files over the model
spec's fields, runs them in-process through :func:`voimc.cli.main` and
checks the contract of the exit codes: 0, 2, 3 or 4 and never a
traceback; 2 or 3 when a flag or field is hostile, 0 or 4 when none is; on
exit 3 stderr is one JSON line and no file is written; no warning, numpy's
included, reaches stderr. A near-singular correlation set may be accepted
or refused, but by the same contract. The examples are derandomized, so the
run is the same every time. The accuracy targets and sample sizes drawn are
ones a run meets in well under a second, or ones refused before they are
drawn, so the whole file takes seconds.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from voimc import cli
from voimc.models import BKOC_MEANS, BKOC_STD_DEVS

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Accuracy targets a run meets at once, and finite ones it must refuse: the
# square underflows, the allocation is not finite, or a level's or the
# EVPI's draws are past the sample budget.
GOOD_EPS = {"synthetic1": ["0.05", "0.1", "0.3", "2", "1e300", "1e308"],
            "bkoc": ["30", "60", "150", "1e300", "1e308"]}
BAD_EPS = ["-1", "-0.5", "0", "-0", "nan", "inf", "-inf", "1e400", "abc", "", "0x10",
           "1e-300", "1e-160", "1.5e-154", "1e-152", "1e-150", "1e-100", "1e-30", "1e-12"]

# Per flag, the values a run accepts (None: the flag is left out) and the
# hostile ones, which it must refuse with exit 2 (argparse) or 3. A tuple
# repeats the flag.
COMMON = {
    "--outer": (
        {"synthetic1": [None], "bkoc": [None, "5,14", "14,5", "5,,14", "7,16"]},
        ["", ",", " ", "x", "1,x", "0", "-1", "99", "1,1", "5,x"],
    ),
    "--threads": ([None, "1", "2", "3", "4"], ["-1", "0"]),
    "--seed": ([None, "0", "3", "-1", "99999999999999999999999"], ["x", "1.5", ""]),
    "--format": ([None, "csv", "json"], ["yaml", ""]),
}
FLAGS = {
    "evppi": {
        "--epsilon": (GOOD_EPS, [None, *BAD_EPS, ("0.3", "0.1")]),
        "--n": (
            [None, "4", "6", "1000", "20000"],
            ["-4", "-1", "0", "1", "2", "3", "5", "7", "1001", "x", "2.5", ""],
        ),
    },
    "run": {
        "--epsilon": (GOOD_EPS, [None, *BAD_EPS, ("0.3", "0.1"), ("60", "60")]),
        "--max-level": (
            [None, "3", "4", "25", "1000000000000000000000"],
            ["0", "-1", "2", "-1000000000000000000000", "x", "2.5", ""],
        ),
    },
    "levels": {
        # without --n a level holds 200,000 draws, so it is always given
        "--n": (["1000", "1500", "2000"],
                ["999", "0", "-1", "x", "1e3", "", "1000000000000000", "10" * 12]),
        "--max-level": (
            ["1", "2", "3"],
            ["0", "-1", "-100", "31", "60", "1000000000000000000000", "x", "2.5", ""],
        ),
    },
    "compare": {
        "--epsilon": (
            {model: [*eps, ("0.3", "0.1") if model == "synthetic1" else ("60", "150"),
                     ("2", "2"), ("150", "30", "150")]
             for model, eps in GOOD_EPS.items()},
            [None, *BAD_EPS, ("0.3", "-1"), ("1e-12", "60"), ("150", "nan", "30")],
        ),
    },
}
FLAGS = {command: {**flags, **COMMON} for command, flags in FLAGS.items()}


@st.composite
def command_argv(draw, commands=tuple(FLAGS)):
    """``(argv, hostile)``: a call of one of ``commands`` with up to two
    hostile flags and accepted values for the rest."""
    command = draw(st.sampled_from(commands))
    model = draw(st.sampled_from(["bkoc", "synthetic1"]))
    flags = FLAGS[command]
    hostile = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command, "--model", model]
    for flag, (good, bad) in flags.items():
        values = bad if flag in hostile else good
        value = draw(st.sampled_from(values[model] if isinstance(values, dict) else values))
        for v in (value,) if isinstance(value, str) else value or ():
            argv.append(f"{flag}={v}")
    return argv, bool(hostile)


def check_exit(argv, allowed, files=()):
    """Run ``argv`` in a fresh directory holding ``files`` (name: text) and
    check the exit-code contract, with ``allowed`` the codes it may end in."""
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files:
            (Path(scratch) / name).write_text(text)
        argv = [a.replace("{dir}", scratch) for a in argv]
        out = Path(scratch) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([*argv, "--output", str(out)])
            except SystemExit as exc:  # argparse refuses what is not a number
                code = exc.code
        assert code in allowed, (argv, code, stderr.getvalue())
        assert not caught, (argv, [str(w.message) for w in caught])
        err = stderr.getvalue()
        if code == 3:
            assert len(err.splitlines()) == 1, (argv, err)
            assert json.loads(err)["error"] == "config", argv
            assert sorted(p.name for p in Path(scratch).iterdir()) == sorted(
                name for name, _ in files), argv
        elif code in (0, 4):
            text = out.read_text()
            if text.startswith("{"):
                assert json.loads(text)["command"] == argv[0], argv
            else:
                assert "," in text.splitlines()[0], argv


@FUZZ
@given(command_argv(commands=("evppi",)))
def test_evppi_flags_exit_cleanly(case):
    argv, hostile = case
    check_exit(argv, (2, 3) if hostile else (0, 4))


@FUZZ
@given(command_argv(commands=("run", "levels", "compare")))
# a finite eps so small that the first allocation, or the levels asked
# for, would be listed and drawn without bound
@example((["run", "--model", "synthetic1", "--epsilon=1e-150"], True))
@example((["compare", "--model", "bkoc", "--epsilon=1e-12"], True))
@example((["levels", "--model", "synthetic1", "--n=1000000000000000", "--max-level=2"], True))
@example((["levels", "--model", "synthetic1", "--n=1000", "--max-level=60"], True))
def test_run_levels_and_compare_flags_exit_cleanly(case):
    argv, hostile = case
    check_exit(argv, (2, 3) if hostile else (0, 4))


def _entry(values, index, value):
    """``values`` with the entry at 0-based ``index`` replaced."""
    return [value if i == index else v for i, v in enumerate(values)]


NAN, INF = math.nan, math.inf
MEANS, STDS = list(BKOC_MEANS), list(BKOC_STD_DEVS)

# Per field of a config file: the values a run accepts, the hostile ones,
# and values that may go either way (near-singular correlation sets).
FIELDS = {
    "means": (
        [MEANS, _entry(MEANS, 3, 500.0), _entry(MEANS, 10, 1400)],
        [MEANS[:18], [*MEANS, 1.0], "x", None, _entry(MEANS, 0, NAN), _entry(MEANS, 0, INF),
         _entry(MEANS, 4, 1e110), _entry(MEANS, 2, True), _entry(MEANS, 2, "1")],
        [],
    ),
    "std_devs": (
        [STDS, _entry(STDS, 3, 100.0), _entry(STDS, 6, 1e-3), _entry(STDS, 0, 1e-150)],
        # 1e-160 and below square to a subnormal or to 0
        [_entry(STDS, 6, 1e-170), _entry(STDS, 0, 1e-200), _entry(STDS, 4, 1e-160),
         _entry(STDS, 4, 5e-324), _entry(STDS, 2, 0.0), _entry(STDS, 2, -1.0),
         _entry(STDS, 2, NAN), _entry(STDS, 2, INF), STDS[:5], "x", [1] * 19 + ["1"]],
        [],
    ),
    "correlated_pairs": (
        [[], [[5, 7, 0.6], [14, 16, 0.6]], [[1, 2, -0.5], [3, 4, 0.3]], [[5, 14, 0.3]]],
        [[[0, 1, 0.5]], [[1, 20, 0.5]], [[3, 3, 0.5]], [[5, 7, 0.6], [7, 5, 0.2]],
         [[5, 7, 1.0]], [[5, 7, -1.5]], [[5, 7, NAN]], [[5, 7]], [[5, 7, 0.5, 1]], "x",
         [[5.5, 7, 0.5]], [[1, 2, 0.9], [2, 3, 0.9], [1, 3, -0.9]]],
        # a correlation one ulp below 1 whose outer block rounds to singular
        [[[5, 14, 1.0 - 2.0**-53]], [[5, 7, 1.0 - 2.0**-53]],
         [[5, 7, 0.9999999999]], [[5, 14, 0.99999999]],
         [[1, 2, 0.999999], [2, 3, 0.999999], [1, 3, 0.999999]],
         [[5, 7, 0.7], [5, 6, 0.7], [6, 7, 0.0]]],
    ),
    "lambda": ([1e4, 5000, 20000.0], [0, -1, "x", NAN, INF, True, None, 1e300], []),
    "outer_indices": (
        [[5, 14], [7, 16], [14, 5], [1, 2, 3], list(range(1, 20))],
        [[], [0], [20], [5, 5], [1.5], "14", [True], 5, None],
        [],
    ),
    "name": (["cfg", "bkoc"], [5, None, ["x"]], []),
    "unknown": ([], [1], []),  # written as an unknown key
}

# Whole files that are no spec at all.
BAD_FILES = ["[]", "{", "", "null", '"x"', "{}{}"]

# Each command, on sizes a config model meets at once.
CONFIG_COMMANDS = [
    ["run", "--epsilon", "300"],
    ["levels", "--max-level", "2", "--n", "1000"],
    ["compare", "--epsilon", "1000", "--epsilon", "300"],
    ["evppi", "--epsilon", "300"],
]


@st.composite
def config_case(draw):
    """``(argv, text, kind)``: a command on a config file of text ``text``,
    with ``kind`` "hostile", "either" or "clean"."""
    argv = [*draw(st.sampled_from(CONFIG_COMMANDS)), "--config", "{dir}/cfg.json"]
    if draw(st.integers(0, 9)) == 0:
        return argv, draw(st.sampled_from(BAD_FILES)), "hostile"
    fields = draw(st.sets(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=3))
    kinds, spec = set(), {}
    for field in sorted(fields):
        good, bad, either = FIELDS[field]
        choices = [("clean", v) for v in good] + [("hostile", v) for v in bad]
        choices += [("either", v) for v in either]
        kind, value = draw(st.sampled_from(choices))
        kinds.add(kind)
        spec["foo" if field == "unknown" else field] = value
    kind = "hostile" if "hostile" in kinds else "either" if "either" in kinds else "clean"
    return argv, json.dumps(spec), kind


@settings(FUZZ, max_examples=120)
@given(config_case())
# one spread whose square is 0, one whose square is subnormal, and a
# covariance block that rounds to singular: the model raised LinAlgError,
# or warned and sampled NaN before it failed
@example((["levels", "--max-level", "2", "--n", "1000", "--config", "{dir}/cfg.json"],
          json.dumps({"std_devs": _entry(STDS, 6, 1e-170)}), "hostile"))
@example((["evppi", "--epsilon", "300", "--config", "{dir}/cfg.json"],
          json.dumps({"std_devs": _entry(STDS, 4, 1e-160)}), "hostile"))
@example((["run", "--epsilon", "300", "--config", "{dir}/cfg.json"],
          json.dumps({"correlated_pairs": [[5, 14, 1.0 - 2.0**-53]]}), "either"))
def test_config_files_exit_cleanly(case):
    argv, text, kind = case
    allowed = {"hostile": (3,), "either": (0, 3, 4), "clean": (0, 4)}[kind]
    check_exit(argv, allowed, files=[("cfg.json", text)])
