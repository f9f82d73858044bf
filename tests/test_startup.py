"""What each subcommand imports: a ``python -X importtime -m mimogen.cli``
child lists every module it imports, so each subcommand is held to the
modules it runs; forked workers import nothing new; and the package
resolves its public names on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimogen
from test_cli import TINY_SCENE_SETS, _build, _trace, run

SRC = str(Path(mimogen.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}

# The stage modules: the ones that import numpy.
STAGES = {"tracer", "rayio", "channel", "dataset", "beams"}

# The package's public names, by the module that defines them (the ones
# its ``__init__`` imported eagerly before it resolved them lazily).
PUBLIC = {
    "scene": ("Building", "BaseStation", "Scene", "SceneConfigError", "UserGrid",
              "build_o1_scene", "enumerate_users", "users_in_row_range"),
    "rayio": ("PathList", "PathRecord"),
    "tracer": ("mirror_point", "path_phase", "path_power", "trace_paths"),
    "params": ("ParamSet", "parse_params", "subcarrier_set"),
    "channel": ("ChannelMatrix", "array_response", "channel_matrix"),
    "dataset": ("Dataset", "build_dataset", "get_channel", "get_location", "write_shards"),
    "beams": ("BeamEvalConfig", "Codebook", "achievable_rate", "best_beam", "dft_codebook",
              "omni_feature", "write_ml_dataset"),
}


def _imports(*args: str) -> set[str]:
    """The modules a ``python -X importtime <args>`` child imports; it must exit 0."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")}


def _stages(modules: set[str]) -> set[str]:
    return {m.split(".")[1] for m in modules if m.startswith("mimogen.")} & STAGES


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny scene, its BS 3,4 ray files, a dataset and an ML directory."""
    tmp = tmp_path_factory.mktemp("startup")
    scene = tmp / "scene.json"
    assert run(["scene", "--out", str(scene), "--quiet", *TINY_SCENE_SETS]) == 0
    rays = _trace(tmp, scene)
    rc, ds = _build(tmp, scene, rays)
    assert rc == 0
    ml = tmp / "ml"
    assert run(["beams", "--dataset-dir", str(ds), "--out-dir", str(ml), "--quiet"]) == 0
    return tmp, scene, rays, ds, ml


def test_import_mimogen_imports_no_numpy():
    modules = _imports("-c", "import mimogen")
    assert "numpy" not in modules
    assert not {m for m in modules if m.startswith("mimogen.")}


@pytest.mark.parametrize("command", ["--version", "--help", "scene", "validate"])
def test_no_numpy_without_arrays(artifacts, command):
    tmp, scene = artifacts[:2]
    argv = {"scene": ["scene", "--out", str(tmp / "scene2.json"), "--quiet", *TINY_SCENE_SETS],
            "validate": ["validate", str(scene), "--quiet"]}.get(command, [command])
    modules = _imports("-m", "mimogen.cli", *argv)
    assert "numpy" not in modules
    assert not _stages(modules)
    if command == "scene":
        assert (tmp / "scene2.json").read_bytes() == scene.read_bytes()


def test_stage_imports(artifacts):
    tmp, scene, rays, ds, ml = artifacts
    ray_file = str(rays / "rays_bs003.drf")
    assert _stages(_imports("-m", "mimogen.cli", "validate", ray_file)) == {"rayio"}
    assert _stages(_imports("-m", "mimogen.cli", "validate", str(rays))) == {"rayio"}
    scene_dir = tmp / "scene_only"      # a scene and its run manifest
    assert run(["scene", "--out", str(scene_dir / "scene.json"), "--quiet",
                *TINY_SCENE_SETS]) == 0
    modules = _imports("-m", "mimogen.cli", "validate", str(scene_dir))
    assert "numpy" not in modules and not _stages(modules)
    trace = _imports("-m", "mimogen.cli", "trace", "--scene", str(scene), "--bs", "3",
                     "--active_user_first", "1", "--active_user_last", "2",
                     "--out-dir", str(tmp / "rays2"), "--quiet")
    assert _stages(trace) == {"tracer", "rayio"}
    build = _imports("-m", "mimogen.cli", "build", "--scene", str(scene), "--rays-dir",
                     str(rays), "--set", "active_BS=3,4", "--set", "active_user_first=1",
                     "--set", "active_user_last=2", "--set", "num_ant_y=4",
                     "--set", "num_ant_z=2", "--set", "num_OFDM=16", "--set", "OFDM_limit=8",
                     "--out-dir", str(tmp / "ds2"), "--quiet")
    assert _stages(build) == {"rayio", "channel", "dataset"}
    assert (tmp / "ds2" / "manifest.txt").read_bytes() == (ds / "manifest.txt").read_bytes()
    assert not {"beams", "tracer"} & _stages(_imports("-m", "mimogen.cli", "validate", str(ds)))
    beams = _imports("-m", "mimogen.cli", "beams", "--dataset-dir", str(ds),
                     "--out-dir", str(tmp / "ml2"), "--quiet")
    assert _stages(beams) == {"rayio", "channel", "dataset", "beams"}
    assert "beams" in _stages(_imports("-m", "mimogen.cli", "validate", str(ml)))


# Runs ``mimogen argv`` with 2 workers and 1-user trace steps (so that
# every stage forks); each worker checks after each task that it has
# imported no module it was not forked with.
_CHECKED_CLI = """
import sys
from mimogen import cli, parallel

start = parallel._start_worker

def start_worker(task):
    forked = set(sys.modules)

    def checked(*args):
        result = task(*args)
        if new := sorted(set(sys.modules) - forked):
            raise RuntimeError(f"first imported in a worker: {new}")
        return result

    start(checked)

parallel._start_worker = start_worker
parallel.worker_count = lambda: 2
cli._TRACE_CHUNK = 1
if sys.argv[1] == "build":
    from mimogen import dataset
    dataset._BATCH_BYTES = 10_000       # 6 users of 2 x 1,056 bytes: more than a step
sys.exit(cli.run(sys.argv[1:]))
"""


def test_workers_import_nothing(artifacts):
    tmp, scene = artifacts[:2]
    rays, ds, ml = tmp / "rays3", tmp / "ds3", tmp / "ml3"
    for argv in (["trace", "--scene", str(scene), "--bs", "3,4", "--active_user_first", "1",
                  "--active_user_last", "2", "--out-dir", str(rays)],
                 ["build", "--scene", str(scene), "--rays-dir", str(rays),
                  "--set", "active_BS=3,4", "--set", "active_user_first=1",
                  "--set", "active_user_last=2", "--set", "num_ant_y=4",
                  "--set", "num_ant_z=2", "--set", "num_OFDM=16", "--set", "OFDM_limit=8",
                  "--out-dir", str(ds)],
                 ["beams", "--dataset-dir", str(ds), "--out-dir", str(ml)]):
        proc = subprocess.run([sys.executable, "-c", _CHECKED_CLI, *argv, "--quiet"],
                              env=ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for out, stage in ((rays, "trace"), (ds, "build"), (ml, "beams")):
        counters = json.loads((out / f"{stage}.manifest.json").read_text())["counters"]
        assert counters["workers"] > 0, stage


def test_lazy_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    for module, name in ((m, n) for m, ns in PUBLIC.items() for n in ns):
        expected = getattr(importlib.import_module(f"mimogen.{module}"), name)
        for statement in (f"value = mimogen.{name}", f"from mimogen import {name} as value"):
            scope = {"mimogen": mimogen}
            exec(statement, scope)
            assert scope["value"] is expected, statement
    assert {*names, "__version__"} <= set(dir(mimogen))
    assert sorted(mimogen.__all__) == sorted([*names, "__version__"])
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mimogen.no_such_name
    with pytest.raises(ImportError):
        exec("from mimogen import no_such_name", {})
