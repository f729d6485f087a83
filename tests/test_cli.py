"""Command-line behavior: flags, exit codes, file formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

from voimc import cli, estimators
from voimc.cli import main
from voimc.models import BKOC_MEANS, BKOC_STD_DEVS


def run_cli(tmp_path, *argv):
    """Invoke the CLI in-process; returns (exit_code, output_path)."""
    out = tmp_path / "out"
    code = main([*argv, "--output", str(out)])
    return code, out


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "yaml"])
    assert exc.value.code == 2


def test_config_errors_exit_3(tmp_path, monkeypatch, capsys):
    cases = [
        ["run", "--model", "nonesuch", "--epsilon", "0.1"],
        ["run", "--model", "synthetic1"],  # no epsilon
        ["run", "--model", "synthetic1", "--epsilon", "0.1", "--epsilon", "0.2"],
        ["run", "--epsilon", "0.1"],  # neither model nor config
        ["run", "--model", "synthetic1", "--epsilon", "-0.1"],
        ["run", "--model", "synthetic1", "--outer", "1", "--epsilon", "0.1"],
        ["run", "--model", "bkoc", "--outer", "1,x", "--epsilon", "0.1"],
        ["levels", "--model", "synthetic1", "--max-level", "0"],
        ["compare", "--model", "synthetic1"],  # no epsilon list
        ["levels", "--model", "synthetic1", "--n", "500"],
        ["compare", "--model", "synthetic1", "--epsilon", "-1"],
        ["evppi", "--model", "synthetic1", "--epsilon", "0.1", "--n", "1"],
        # the EVPI is drawn in antithetic pairs, and its error needs two
        ["evppi", "--model", "synthetic1", "--epsilon", "0.1", "--n", "2"],
        ["evppi", "--model", "synthetic1", "--epsilon", "0.1", "--n", "20001"],
        ["evppi", "--model", "synthetic1", "--epsilon", "-1"],
        ["run", "--model", "synthetic1", "--epsilon", "0.1", "--threads", "0"],
        ["run", "--model", "synthetic1", "--epsilon", "0.1", "--threads", "-3"],
        # the driver warms up levels 1..3
        ["run", "--model", "synthetic1", "--epsilon", "0.1", "--max-level", "2"],
    ]
    # targets whose square underflows: refused before any sampling, even as
    # the last of several compare targets
    for tiny in ("1e-300", "1e-160"):
        cases += [
            ["run", "--model", "synthetic1", "--epsilon", tiny],
            ["compare", "--model", "synthetic1", "--epsilon", "0.1", "--epsilon", tiny],
            ["evppi", "--model", "synthetic1", "--epsilon", tiny],
            ["evppi", "--model", "synthetic1", "--epsilon", tiny, "--n", "20000"],
        ]
    # config files whose indices are not integers or whose numbers are not
    # numbers: none may be truncated, split into digits, parsed or read as
    # a boolean
    for k, bad in enumerate(
        [
            {"outer_indices": [1.5]},
            {"outer_indices": "14"},
            {"correlated_pairs": [[5.9, 7, 0.6]]},
            {"outer_indices": [True]},
            {"lambda": "5000"},
            {"correlated_pairs": [[5, 7, "0.6"]]},
            {"means": [True] + list(BKOC_MEANS[1:])},
            {"std_devs": "1" * 19},
        ]
    ):
        cfg = tmp_path / f"bad_index_{k}.json"
        cfg.write_text(json.dumps(bad))
        cases.append(["evppi", "--config", str(cfg), "--epsilon", "300", "--n", "5000"])
    for argv in cases:
        code, out = run_cli(tmp_path, *argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert not out.exists(), argv
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "config"
        assert err["message"]
    # a config whose payoffs could overflow: refused as the model is built,
    # before any sampling, and with nothing on stderr but the error line
    def refuse(*args, **kwargs):
        raise AssertionError("sampling started for a config whose payoffs overflow")

    for target in ("voimc.cli.mlmc_run", "voimc.mlmc.mlmc_run", "voimc.cli.level_sweep"):
        monkeypatch.setattr(target, refuse)
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"means": [*BKOC_MEANS[:4], 1e110, 1e110, 1e110, *BKOC_MEANS[7:]]}))
    for argv in (
        ["run", "--config", str(cfg), "--epsilon", "300"],
        ["evppi", "--config", str(cfg), "--epsilon", "300", "--n", "5000"],
        ["compare", "--config", str(cfg), "--epsilon", "300"],
        ["levels", "--config", str(cfg), "--max-level", "3", "--n", "1000"],
    ):
        code, out = run_cli(tmp_path, *argv)
        err = capsys.readouterr().err
        assert code == 3, argv
        assert not out.exists(), argv
        assert len(err.splitlines()) == 1, argv
        assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize(
    "case", ["output-is-dir", "output-dir-env-is-file", "output-below-file", "name-too-long"]
)
def test_unwritable_output_exits_3_before_sampling(tmp_path, monkeypatch, capsys, case):
    # refused before any sampling, with no traceback and no file written
    run = ["run", "--model", "synthetic1", "--epsilon", "0.1"]
    levels = ["levels", "--model", "synthetic1", "--max-level", "2", "--n", "2000"]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if case == "output-is-dir":
        (tmp_path / "dir").mkdir()
        argv = [*run, "--output", str(tmp_path / "dir")]
    elif case == "output-dir-env-is-file":
        monkeypatch.setenv("VOIMC_OUTPUT_DIR", str(blocker))
        argv = run
    elif case == "output-below-file":
        argv = [*levels, "--output", str(blocker / "x.csv")]
    else:
        argv = [*levels, "--output", str(tmp_path / f"{'a' * 300}.csv")]

    def refuse(*args, **kwargs):
        raise AssertionError("sampling started before the output path was checked")

    monkeypatch.setattr("voimc.cli.mlmc_run", refuse)
    monkeypatch.setattr("voimc.cli.level_sweep", refuse)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 3
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["error"] == "config"
    assert sorted(tmp_path.rglob("*")) == before


def assert_refused(tmp_path, capsys, argv, keep=()):
    """``argv`` exits 3 with one JSON line on stderr, no warning and no file
    but those in ``keep``."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 3, argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "config", argv
    assert sorted(tmp_path.rglob("*")) == sorted(keep), argv


@pytest.mark.parametrize("variable, std_dev", [(7, 1e-170), (1, 1e-200), (5, 1e-160)])
def test_std_dev_whose_square_underflows_exits_3_before_sampling(
    tmp_path, monkeypatch, capsys, variable, std_dev
):
    # 1e-170 and 1e-200 square to 0, and the model raised LinAlgError as it
    # was built; 1e-160 squares to a subnormal, and the model warned, got a
    # NaN conditional gain and sampled before it failed
    std_devs = list(BKOC_STD_DEVS)
    std_devs[variable - 1] = std_dev
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"std_devs": std_devs}))

    def refuse(*args, **kwargs):
        raise AssertionError("sampling started for a spread whose square underflows")

    for name in ("mlmc_run", "level_sweep", "cost_comparison", "evppi_report"):
        monkeypatch.setattr(f"voimc.cli.{name}", refuse)
    for argv in (
        ["run", "--epsilon", "300"],
        ["levels", "--max-level", "2", "--n", "1000"],
        ["compare", "--epsilon", "300"],
        ["evppi", "--epsilon", "300"],
    ):
        assert_refused(tmp_path, capsys, [*argv, "--config", str(cfg)], keep=[cfg])


@pytest.mark.parametrize(
    "argv",
    [
        # 1.25e299 level-1 draws at the first allocation
        ["run", "--model", "synthetic1", "--epsilon", "1e-150"],
        ["compare", "--model", "synthetic1", "--epsilon", "1e-150"],
        # an EVPI sized at 1.3e307 draws
        ["evppi", "--model", "bkoc", "--epsilon", "1e-150"],
        # 3.8e9 level-0 blocks
        ["levels", "--model", "synthetic1", "--n", "1000000000000000", "--max-level", "2"],
        # level after level, to 1000 x 2^60 inner samples
        ["levels", "--model", "synthetic1", "--n", "1000", "--max-level", "60"],
    ],
    ids=["run", "compare", "evppi", "levels-n", "levels-max-level"],
)
def test_batches_past_the_sample_budget_exit_3_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert_refused(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1.0, argv


def test_refused_write_exits_3(tmp_path, monkeypatch, capsys):
    # a write the filesystem refuses after the sampling is a config error,
    # not a traceback
    def refuse(path, *args):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("voimc.cli.write_csv", refuse)
    argv = ["levels", "--model", "synthetic1", "--max-level", "2", "--n", "2000"]
    assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "Permission denied" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_malformed_config_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run_cli(tmp_path, "run", "--config", str(bad), "--epsilon", "0.1")
    assert code == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_run_json_output(tmp_path):
    code, out = run_cli(
        tmp_path, "run", "--model", "synthetic1", "--epsilon", "0.05", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["command"] == "run"
    assert doc["model"] == "synthetic1"
    assert doc["seed"] == 3
    assert doc["outer_indices"] is None
    assert doc["converged"] is True
    assert doc["epsilon"] == 0.05
    assert isinstance(doc["estimate"], float)
    assert doc["total_cost"] == sum(
        row["cost"] * row["n"] for row in doc["levels"]
    )
    assert doc["allocations"] == [row["n"] for row in doc["levels"]]
    assert [row["level"] for row in doc["levels"]] == list(
        range(1, doc["max_level_used"] + 1)
    )
    assert doc["history"][-1]["action"] == "stop"


def test_run_is_byte_identical_across_runs_and_threads(tmp_path):
    argv = ["run", "--model", "synthetic3", "--epsilon", "0.05", "--seed", "9"]
    paths = []
    for name, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
        out = tmp_path / name
        assert main([*argv, *extra, "--output", str(out)]) == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1] == paths[2]


# A top-up pass puts several levels on the pool at once, and the EVPI's
# blocks ride the driver's passes on the same pool; neither may change a byte.
SCHEDULED = [
    ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "20", "--n", "20000"],
    ["run", "--model", "synthetic1", "--epsilon", "0.01"],
    # 23 EVPI blocks over the driver's 20 passes: at 2 and 3 threads the
    # three no pass carried go to the whole pool once the driver returns.
    ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "20", "--n", "1200000"],
    # No --n: a pilot block sizes the EVPI from eps (three blocks here).
    ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "10"],
]


@pytest.mark.parametrize(
    "argv",
    SCHEDULED,
    ids=["evppi-bkoc", "run-synthetic1", "evppi-bkoc-evpi-handoff", "evppi-bkoc-sized-evpi"],
)
def test_output_is_byte_identical_at_1_2_and_3_threads(tmp_path, argv):
    blobs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        assert main([*argv, "--threads", str(threads), "--output", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_one_pool_per_run_and_no_thread_at_one_thread(tmp_path, monkeypatch):
    built = []

    class CountingPool(estimators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", CountingPool)
    commands = [*SCHEDULED, ["levels", "--model", "synthetic1", "--max-level", "3"],
                ["compare", "--model", "synthetic1", "--epsilon", "0.05"]]
    for command in commands:
        built.clear()
        assert run_cli(tmp_path, *command, "--threads", "2")[0] == 0
        assert built == [2]

    def refuse(thread):
        raise AssertionError(f"{thread.name} started at --threads 1")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for command in commands:
        assert run_cli(tmp_path, *command, "--threads", "1")[0] == 0


def test_threads_above_the_cpu_limit_are_refused(tmp_path, capsys):
    # refused with the other argument checks, before the pool opens: a
    # command this small would start only a few threads even unchecked
    limit = cli.THREADS_PER_CPU * len(os.sched_getaffinity(0))
    command = ["levels", "--model", "synthetic1", "--max-level", "3", "--n", "1000"]
    for threads in (limit + 1, 100_000):
        before = threading.active_count()
        code, out = run_cli(tmp_path, *command, "--threads", str(threads))
        assert code == 3
        assert threading.active_count() == before
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "config" and "--threads" in err[0]
    assert run_cli(tmp_path, *command, "--threads", str(limit))[0] == 0


def test_run_csv_round_trips(tmp_path):
    code, out = run_cli(
        tmp_path, "run", "--model", "synthetic1", "--epsilon", "0.05",
        "--seed", "3", "--format", "csv",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["level", "n", "mean_z", "var_z", "kurtosis_z", "mean_p", "var_p", "cost"]
    for row in rows:
        for cell in row[2:7]:
            if cell == "nan":
                continue
            again = format(float(cell), ".17g")
            assert again == cell  # 17 significant digits round-trip exactly


def test_non_convergence_exits_4_with_partial_output(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "run", "--model", "synthetic2", "--epsilon", "0.02",
        "--max-level", "3", "--seed", "2",
    )
    assert code == 4
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "non_convergence"
    assert "NOT CONVERGED" in captured.out
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["max_level_used"] == 3


def test_levels_csv_and_rates(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "levels", "--model", "synthetic1", "--max-level", "4",
        "--n", "2000", "--seed", "1",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "level"
    assert len(rows) == 5
    assert rows[0][0] == "0"
    assert "alpha=" in capsys.readouterr().out


def test_levels_json_rates_unavailable_when_too_shallow(tmp_path):
    code, out = run_cli(
        tmp_path, "levels", "--model", "synthetic1", "--max-level", "2",
        "--n", "2000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rates"] is None
    assert len(doc["levels"]) == 3
    code, out = run_cli(
        tmp_path, "levels", "--model", "synthetic1", "--max-level", "4",
        "--n", "2000", "--format", "json",
    )
    doc = json.loads(out.read_text())
    assert doc["rates"] is not None
    assert doc["rates"]["gamma"] == 1.0


def test_levels_plot_script(tmp_path):
    code, out = run_cli(
        tmp_path, "levels", "--model", "synthetic1", "--max-level", "2",
        "--n", "2000", "--emit-plot-script",
    )
    assert code == 0
    script = out.parent / (out.name + ".gnuplot")
    assert script.exists()
    assert "set datafile separator" in script.read_text()


def test_plot_script_rejected_for_json(tmp_path, capsys):
    # refused before any sampling: JSON by --format, or by the --output suffix
    # with the default CSV format, and no file is left behind
    levels = ["levels", "--model", "synthetic1", "--max-level", "2", "--n", "2000"]
    for extra, out in (
        (["--format", "json"], tmp_path / "out"),
        (["--format", "json"], tmp_path / "x.json"),
        ([], tmp_path / "out2.json"),
    ):
        code = main([*levels, *extra, "--emit-plot-script", "--output", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert list(tmp_path.iterdir()) == []


def test_compare_csv(tmp_path):
    code, out = run_cli(
        tmp_path, "compare", "--model", "synthetic1",
        "--epsilon", "0.04", "--epsilon", "0.08", "--epsilon", "0.04",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["epsilon", "mlmc_cost", "std_cost_model", "ratio"]
    # duplicates collapse and targets run from coarse to fine
    assert [float(r[0]) for r in rows] == [0.08, 0.04]


def test_evppi_json(tmp_path):
    code, out = run_cli(
        tmp_path, "evppi", "--model", "synthetic1", "--epsilon", "0.05",
        "--n", "20000", "--seed", "4",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["evppi"] == doc["evpi"] - doc["difference"]
    assert doc["converged"] is True
    assert doc["n_evpi"] == 20000
    assert doc["total_cost"] > 0


def test_evppi_sized_evpi_is_the_run_given_its_count(tmp_path):
    # Without --n a pilot block sizes the EVPI; it stays in the estimate, so
    # the output is the one --n <that count> writes.
    argv = ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "10", "--seed", "2"]
    code, sized = run_cli(tmp_path / "sized", *argv)
    assert code == 0
    n_evpi = json.loads(sized.read_text())["n_evpi"]
    assert n_evpi > 52_428  # past the pilot block
    code, given = run_cli(tmp_path / "given", *argv, "--n", str(n_evpi))
    assert code == 0
    assert given.read_bytes() == sized.read_bytes()


def test_evppi_outer_partition(tmp_path):
    code, out = run_cli(
        tmp_path, "evppi", "--model", "bkoc", "--outer", "7,16",
        "--epsilon", "300", "--n", "5000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["outer_indices"] == [7, 16]
    assert doc["evppi"] == doc["evpi"] - doc["difference"]
    # with every variable observed nothing is left to learn: the gap is
    # exactly zero and EVPPI equals EVPI
    everything = ",".join(str(i) for i in range(1, 20))
    code, out = run_cli(
        tmp_path, "evppi", "--model", "bkoc", "--outer", everything,
        "--epsilon", "300", "--n", "5000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["outer_indices"] == list(range(1, 20))
    assert doc["difference"] == 0.0
    assert doc["evppi"] == doc["evpi"]


def test_evppi_csv_single_row(tmp_path):
    code, out = run_cli(
        tmp_path, "evppi", "--model", "synthetic1", "--epsilon", "0.08",
        "--n", "5000", "--format", "csv",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "evpi", "evpi_std_error", "difference", "difference_rms_error",
        "evppi", "evppi_rms_error",
    ]
    assert len(rows) == 1


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "results"
    monkeypatch.setenv("VOIMC_OUTPUT_DIR", str(outdir))
    code = main(["levels", "--model", "synthetic1", "--max-level", "2", "--n", "2000"])
    assert code == 0
    expected = outdir / "voimc_levels_synthetic1.csv"
    assert expected.exists()
    assert str(expected) in capsys.readouterr().out


def test_default_seed_is_fixed(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main([
            "levels", "--model", "synthetic1", "--max-level", "2",
            "--n", "2000", "--output", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_model_runs(tmp_path):
    cfg = tmp_path / "variant.json"
    cfg.write_text(json.dumps({"outer_indices": [5, 6, 14, 15]}))
    code, out = run_cli(
        tmp_path, "evppi", "--config", str(cfg), "--epsilon", "300",
        "--n", "5000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "variant"
    assert doc["outer_indices"] == [5, 6, 14, 15]


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "voimc.cli", "levels", "--model", "synthetic1",
            "--max-level", "2", "--n", "2000",
            "--output", str(tmp_path / "sweep.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "sweep.csv").exists()
    assert "levels synthetic1" in proc.stdout


# sha256 of the output file and the summary line (output path removed) for
# fixed invocations. Any change to the draws, the arithmetic or the
# serialization shows up here. The digests hold for one numpy/scipy build,
# since vectorized float reductions may round differently on another.
RUN = ["run", "--model", "synthetic1", "--epsilon", "0.01", "--seed", "3"]
LEVELS = ["levels", "--model", "synthetic2", "--max-level", "6", "--n", "2000", "--seed", "1"]
PINNED_OUTPUTS = [
    pytest.param(
        [*RUN, "--format", "json"],
        "8bbaaa8dd016457c1d7b620bdbe2b70174f8b83a2c92fc57d84c4157b659ec01",
        "run synthetic1 epsilon=0.01 estimate=0.166394 converged levels=1..5 cost=63736",
        id="run-json",
    ),
    pytest.param(
        [*RUN, "--format", "csv"],
        "ed030b9c19c776f8a9b7644655a083d48d29d97f2a4ce75a699178ddd4b5be04",
        "run synthetic1 epsilon=0.01 estimate=0.166394 converged levels=1..5 cost=63736",
        id="run-csv",
    ),
    pytest.param(
        [*LEVELS, "--format", "csv"],
        "9229f24360483eae6b5abff767fe446a50e3acec196f2cb1cc6ebc8337873f64",
        "levels synthetic2 n=2000 levels=0..6 alpha=0.635 beta=1.109",
        id="levels-csv",
    ),
    pytest.param(
        [*LEVELS, "--format", "json"],
        "5f5b0672a1ef7f1226cd75473ee3f7beef0235b9469dabfe447158088979dc39",
        "levels synthetic2 n=2000 levels=0..6 alpha=0.635 beta=1.109",
        id="levels-json",
    ),
    pytest.param(
        ["compare", "--model", "synthetic1", "--epsilon", "0.05", "--epsilon", "0.02",
         "--seed", "2"],
        "221123303a94cb294b1de8d7d8d6cd5349308f59e871dc6c3d2e48de37ddd74d",
        "compare synthetic1 targets=2 ratio=0.0213..0.131",
        id="compare-csv",
    ),
    pytest.param(
        ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "20", "--n", "20000",
         "--seed", "1", "--threads", "2"],
        "900cc44c2ea0effa09d32032d79864361da632840717235bf2ab0e1e2c53e3d2",
        "evppi bkoc evpi=1433.51 difference=566.405 evppi=867.109",
        id="evppi-json",
    ),
    # No --n: at eps 20 the pilot block alone, 52,428 draws, is enough.
    pytest.param(
        ["evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "20",
         "--seed", "1", "--threads", "2"],
        "70e3a012f440399d7b9be3fed90e04570a41a0af74d4ea660807298253f5535e",
        "evppi bkoc evpi=1445.48 difference=566.405 evppi=879.079",
        id="evppi-sized-json",
    ),
]


@pytest.mark.parametrize("argv,digest,summary", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(tmp_path, capsys, argv, digest, summary):
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out == f"{summary} -> {out}\n"
