"""numpy is the only third-party dependency, and a compile imports little.

Each check runs in a fresh interpreter whose meta-path finder refuses
every ``scipy`` module, as on a machine where only numpy is installed
(``pyproject.toml`` and the CI install steps list numpy alone).  In that
interpreter ``import repro`` must work, every registered workload must
build, and ``python -m repro --help`` must print.  ``repro.compile_api``
must load neither the campaign engine, the serve daemon nor the HTTP
server, and the lazily loaded ``repro.experiments`` names must be the
very objects their submodules define.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_BLOCK_SCIPY = textwrap.dedent(
    """
    import sys

    class _NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r}")
            return None

    sys.meta_path.insert(0, _NoScipy())
    """
)


def _run_numpy_only(body: str) -> str:
    """Run ``body`` in a fresh interpreter without scipy; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_package_and_every_workload_without_scipy():
    out = _run_numpy_only(
        """
        import json
        import repro
        from repro import workloads

        built = {}
        for name in workloads.names():
            function = workloads.get(name, 8)
            built[name] = [function.n_inputs, function.n_outputs]
        print(json.dumps(built))
        """
    )
    built = json.loads(out)
    assert "erf" in built
    assert sorted(built) == sorted(repro.workloads.names())
    assert all(n_inputs == 8 for n_inputs, _ in built.values())


def test_cli_help_without_scipy():
    out = _run_numpy_only(
        """
        import runpy, sys

        sys.argv = ["repro", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
        """
    )
    assert "usage: repro" in out
    assert "compile" in out and "serve" in out


def test_compile_api_loads_only_what_a_compile_runs():
    out = _run_numpy_only(
        """
        import json, sys
        from repro import compile_api

        print(json.dumps(sorted(sys.modules)))
        """
    )
    loaded = json.loads(out)
    unwanted = [
        name
        for name in loaded
        if name == "scipy"
        or name.startswith("scipy.")
        or name == "repro.experiments.engine"
        or name == "repro.serve"
        or name.startswith("repro.serve.")
        or name == "http.server"
    ]
    assert unwanted == []
    assert "repro.experiments.parallel" in loaded


def test_lazy_experiments_names_are_the_submodule_objects():
    out = _run_numpy_only(
        """
        import importlib, json
        import repro.experiments as experiments

        mismatched = []
        for name in experiments.__all__:
            value = getattr(experiments, name)
            if name == "reporting":
                owner = importlib.import_module("repro.experiments.reporting")
                same = value is owner
            else:
                owner = importlib.import_module(value.__module__)
                same = getattr(owner, name) is value
            from_import = {}
            exec(f"from repro.experiments import {name} as got", from_import)
            if not same or from_import["got"] is not value:
                mismatched.append(name)
        print(json.dumps(mismatched))
        """
    )
    assert json.loads(out) == []
