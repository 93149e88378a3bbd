"""Hypothesis draws the same examples on every run and imposes no deadline, so
property tests neither change from run to run nor fail on a slow host.

``registry_run`` runs ``lrc verify --all --seed 7`` once per session, in process,
for every test that reads its report or the gadget matrix caches it fills."""

import types

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def registry_run(tmp_path_factory):
    """The run's exit code, its report bytes, and the cache_info of fourier_matrix and
    controlled_weyl (keyed by function) after the run, both cleared just before it."""
    import lrc.cli
    from lrc.circuits import controlled_weyl, fourier_matrix

    caches = (fourier_matrix, controlled_weyl)
    for cached in caches:
        cached.cache_clear()
    out = tmp_path_factory.mktemp("registry") / "all.json"
    code = lrc.cli.main(["verify", "--all", "--seed", "7", "--out", str(out)])
    return types.SimpleNamespace(
        code=code, report=out.read_bytes(), cache_info={cached: cached.cache_info() for cached in caches}
    )
