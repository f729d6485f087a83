"""Checks of the outside-in tracer on small CLI calls.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from voimc import cli, mlmc  # noqa: E402

SMALL_RUN = ["run", "--model", "synthetic1", "--epsilon", "0.01", "--seed", "3"]


def _call(argv, out: Path, tracer=None):
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main([*argv, "--output", str(out)]) == 0
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    return out.read_bytes(), wall


def test_one_thread_coverage_and_bytes(tmp_path):
    plain, _ = _call(SMALL_RUN, tmp_path / "plain.json")
    tracer = Tracer()
    traced, wall = _call(SMALL_RUN, tmp_path / "traced.json", tracer)
    assert traced == plain
    metrics = layer_metrics(tracer.spans, wall, threading.get_ident())
    assert 0.99 <= metrics["trace.coverage"] <= 1.0
    assert metrics["mlmc.passes"] > 0
    assert metrics["estimators.inner_samples"] > 0
    # The names mlmc bound at import are traced, and restored afterwards.
    assert {"diagnostics.fit_rates", "estimators.accumulate_level"} <= {
        s.name for s in tracer.spans
    }
    assert not hasattr(mlmc.accumulate_level, "__wrapped__")


def test_worker_blocks_parent_to_the_submitting_span(tmp_path):
    argv = [*SMALL_RUN[:-2], "--seed", "4", "--threads", "2"]
    plain, _ = _call(argv, tmp_path / "plain.json")
    tracer = Tracer()
    traced, wall = _call(argv, tmp_path / "traced.json", tracer)
    assert traced == plain
    by_id = {s.sid: s for s in tracer.spans}
    blocks = [s for s in tracer.spans if s.name == "estimators.block"]
    assert blocks
    for block in blocks:
        assert by_id[block.parent].name == "estimators.accumulate_level"
    own = self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    main = threading.get_ident()
    metrics = layer_metrics(tracer.spans, wall, main)
    assert 0.99 <= metrics["trace.coverage"] <= 1.0
    assert metrics["estimators.caller_wait_s"] > 0.0
