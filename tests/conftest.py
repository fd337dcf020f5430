import importlib.util
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))  # make oracles importable

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts")


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def load_script(monkeypatch):
    """``load(name)`` runs ``scripts/<name>.py`` as a module and returns
    it.  A script prepends to ``sys.path`` and may set environment
    variables; both are put back afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ = dict(os.environ)

    def load(name):
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(SCRIPTS, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    for key in set(os.environ) - set(environ):
        del os.environ[key]
    os.environ.update(environ)
