"""README's "Library use" runs as written: its Python blocks, in order and
in one namespace, on the files of a small pipeline run, so the API that
the docs show cannot drift from the code."""

import re
from pathlib import Path

import numpy as np

from mimogen.cli import run
from mimogen.dataset import DatasetReader, get_channel

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_use_runs(tmp_path, monkeypatch):
    blocks = _library_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    # The pipeline's scene.json, params.txt and rays/, small: 2 rows of 3
    # users, 2 base stations, 8 antennas and 4 subcarriers.
    assert run(["scene", "--out", "scene.json", "--quiet",
                *(f"--set=grid{i}.{key}={n}" for i in (1, 2, 3)
                  for key, n in (("n_rows", 2), ("users_per_row", 3)))]) == 0
    Path("params.txt").write_text("active_BS = 3,4\nactive_user_first = 1\n"
                                  "active_user_last = 2\nnum_ant_y = 4\nnum_ant_z = 2\n"
                                  "num_OFDM = 16\nOFDM_limit = 4\n")
    assert run(["trace", "--scene", "scene.json", "--config", "params.txt",
                "--max-reflections", "1", "--out-dir", "rays", "--quiet"]) == 0
    names: dict = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert names["H"].entries.shape == (256, 64)        # ParamSet()'s
    exec(compile(blocks[1], str(README), "exec"), names)
    H, x, params = names["H"], names["x"], names["params"]
    assert H.shape == (params.num_antennas, params.ofdm_limit)
    assert H.tobytes() == names["H_rays"].tobytes()
    with DatasetReader("dataset") as ds:
        assert np.array_equal(get_channel(ds, 1, 1).entries, H)
        assert ds.n_users == 6 and x.shape == (3,)
    for name in ("features.csv", "labels.csv", "ml_manifest.txt"):
        assert (Path("ml") / name).is_file()
