"""Hypothesis draws the same examples on every run and imposes no deadline, so
property tests neither change from run to run nor fail on a slow host.

``registry_run`` runs ``lrc verify --all --seed 7`` once per session, in process,
for every test that reads its report or the instances its calling process draws;
``registry_run_on_one_cpu`` runs it again where only one CPU is available, so every
check runs in the calling process, for the tests that read the caches it fills."""

import os
import types

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _probed_registry_run(out, patch) -> types.SimpleNamespace:
    """The run's exit code, its report bytes and, per check name, the number of instances
    the calling process drew from lrc.verify.instantiate; a forked helper's draws are not seen."""
    import lrc.cli
    import lrc.verify

    drawn, current = {}, None
    run_check, instantiate = lrc.verify.run_check, lrc.verify.instantiate

    def probed_check(name, *args, **kwargs):
        nonlocal current
        current = name
        return run_check(name, *args, **kwargs)

    def probed_instantiate(*args, **kwargs):
        for inst in instantiate(*args, **kwargs):
            drawn[current] = drawn.get(current, 0) + 1
            yield inst

    patch.setattr(lrc.verify, "run_check", probed_check)
    patch.setattr(lrc.verify, "instantiate", probed_instantiate)
    code = lrc.cli.main(["verify", "--all", "--seed", "7", "--out", str(out)])
    return types.SimpleNamespace(code=code, report=out.read_bytes(), drawn=drawn)


@pytest.fixture(scope="session")
def registry_run(tmp_path_factory):
    """``_probed_registry_run`` of ``lrc verify --all --seed 7`` as users run it."""
    with pytest.MonkeyPatch.context() as patch:
        return _probed_registry_run(tmp_path_factory.mktemp("registry") / "all.json", patch)


@pytest.fixture(scope="session")
def registry_run_on_one_cpu(tmp_path_factory):
    """``_probed_registry_run`` where os.sched_getaffinity shows one CPU, with the cache_info
    of fourier_matrix and controlled_weyl (keyed by function) after the run, both cleared
    just before it: every check runs in this process, so the caches see every key it reads."""
    from lrc.circuits import controlled_weyl, fourier_matrix

    caches = (fourier_matrix, controlled_weyl)
    for cached in caches:
        cached.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run = _probed_registry_run(tmp_path_factory.mktemp("registry") / "one_cpu.json", patch)
    run.cache_info = {cached: cached.cache_info() for cached in caches}
    return run
