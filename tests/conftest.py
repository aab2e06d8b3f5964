import time
from contextlib import contextmanager

import pytest


@pytest.fixture(scope="session", autouse=True)
def _results_in_tmp(tmp_path_factory):
    """Table harnesses called by tests write their rows to a session tmp
    dir: ``results/`` holds the benchmark runs' rows, which EXPERIMENTS.md
    is written from."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield


@pytest.fixture
def spark_job_ids(spark):
    """``with spark_job_ids(group) as ids:`` runs the block under Spark job
    group ``group`` (unique per call site); on exit ``ids`` lists the jobs
    the block submitted."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()

    @contextmanager
    def probe(group: str):
        ids: list[int] = []
        try:
            sc.setJobGroup(group, group)
            yield ids
            # A job in a later group: once the tracker shows it, it has seen
            # every job submitted before it.
            control = f"{group}:control"
            sc.setJobGroup(control, control)
            spark.range(3).count()
            deadline = time.monotonic() + 30
            while not tracker.getJobIdsForGroup(control):
                assert time.monotonic() < deadline, "control job never reported"
                time.sleep(0.05)
            ids.extend(tracker.getJobIdsForGroup(group))
        finally:
            sc.setJobGroup(None, None)

    return probe
