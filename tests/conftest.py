import pytest


@pytest.fixture(scope="session", autouse=True)
def _results_in_tmp(tmp_path_factory):
    """Table harnesses called by tests write their rows to a session tmp
    dir: ``results/`` holds the benchmark runs' rows, which EXPERIMENTS.md
    is written from."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield
