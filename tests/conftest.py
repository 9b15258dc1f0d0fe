"""Test-session setup: the suite runs under the default materialization guard.

A ``PCOL_MATERIALIZE_GUARD`` exported in the caller's shell is removed before
any test runs; tests that need the variable set it with ``monkeypatch``.
"""
import os

from pcol.core import GUARD_ENV_VAR


def pytest_configure(config):
    os.environ.pop(GUARD_ENV_VAR, None)
