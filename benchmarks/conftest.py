"""Shared fixtures for the benchmark harness.

Retargeting results are obtained through the toolchain's
:class:`~repro.toolchain.RetargetCache` (memory tier), so the expensive
flow runs at most once per target per benchmark session.
"""

from __future__ import annotations

import pytest

from repro.toolchain import PipelineConfig, RetargetCache, Session, default_registry


@pytest.fixture(scope="session")
def retarget_cache():
    """A session-wide memory-tier retarget cache."""
    return RetargetCache(directory=False)


@pytest.fixture(scope="session")
def retargeted(retarget_cache):
    """Retargeting results for every built-in target (computed once)."""
    registry = default_registry()
    return {
        name: retarget_cache.get_or_retarget(registry.hdl_source(name))[0]
        for name in registry.names()
    }


@pytest.fixture(scope="session")
def tms_result(retargeted):
    return retargeted["tms320c25"]


@pytest.fixture(scope="session")
def record_session(tms_result):
    """A full-pipeline session on the TMS320C25."""
    return Session(tms_result)


@pytest.fixture(scope="session")
def baseline_session(tms_result):
    """The conventional-compiler baseline as a pipeline preset."""
    return Session(tms_result, config=PipelineConfig.preset("conventional"))
