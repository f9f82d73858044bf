"""Tests of the benchmark itself; run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import random
import shutil
import struct
import sys
import types

import pytest

import gate
import harness
from gate import Case
from spans import Probe, Span, Tracer, layer_totals, self_times

# One BS, one row, a 2-element array and 4 subcarriers: the whole pipeline
# runs in about a second.
TINY = Case("tiny", (3,), 1000, 1000, 1, ("num_ant_y=2", "num_ant_z=1", "OFDM_limit=4"))
SEED = "tiny:0"


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),        # overlaps a: the union [1, 5] counts once
        Span("leaf", 2.5, 2.8, 2),     # only b loses this, not root
        Span("c", 8.0, 12.0, 0),       # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.7, 0.3, 4.0])
    totals = layer_totals(spans + [Span("a", 20.0, 21.5, None)])
    assert totals["a"].self_s == pytest.approx(3.5)
    assert totals["a"].incl_s == pytest.approx(3.5)
    assert totals["a"].calls == 2
    assert totals["root"].incl_s == pytest.approx(10.0)


def test_tracer_nests_calls_counts_and_restores_names():
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda n: [0] * n
    mod.outer = lambda n: mod.inner(n) + mod.inner(1)
    sys.modules["fake_layer"] = mod
    original = mod.inner
    try:
        tracer = Tracer()
        probes = [Probe("fake_layer", "outer", "outer"),
                  Probe("fake_layer", "inner", "inner", lambda a, k, r: {"items": len(r)}),
                  Probe("fake_layer", "missing", "ignored")]
        with tracer.patched(probes):
            mod.outer(3)
        assert mod.inner is original
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("outer", None), ("inner", 0), ("inner", 0)]
        assert tracer.counters["items"] == 4
        t = layer_totals(tracer.spans)
        assert t["outer"].self_s + t["inner"].incl_s == pytest.approx(t["outer"].incl_s)
    finally:
        del sys.modules["fake_layer"]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    runner = harness.InProcessRunner()
    assert runner(harness.scene_argv(work)).rc == 0
    ops = harness.run_pipeline(TINY, work, runner)
    assert harness.completed(TINY, work, ops)
    refs = {"fingerprint": gate.platform_fingerprint(),
            "cases": {TINY.key: {rel: gate.sha256_file(work / rel)
                                 for rel in gate.output_files(TINY)}}}
    return work, ops, refs


@pytest.fixture
def outputs(tiny_outputs, tmp_path):
    work, ops, refs = tiny_outputs
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    return copy, ops, refs


def failed(checks):
    return sorted(c.name for c in checks if not c.ok)


def sampled_pair():
    """The first pair check_outputs samples with random.Random(SEED)."""
    return gate.sample_pairs(TINY, 181, random.Random(SEED), harness.PAIRS_CHECKED)[0]


def test_gate_passes_on_untouched_outputs(outputs):
    work, ops, refs = outputs
    checks = harness.check_outputs(TINY, work, ops, refs, random.Random(SEED))
    assert failed(checks) == []
    names = {c.name for c in checks}
    assert "gaps" in names and "ref:ml/labels.csv" in names
    assert sum(c.name.startswith("pair ") for c in checks) == 4 * harness.PAIRS_CHECKED


def test_gate_flags_flipped_shard_byte(outputs):
    work, ops, refs = outputs
    b_ord, u_ord = sampled_pair()
    shard = work / "dataset" / f"shard_bs{TINY.bs[b_ord - 1]:03d}.dmds"
    data = bytearray(shard.read_bytes())
    (echo_len,) = struct.unpack_from("<I", data, 8)
    record = 32 + 2 * 4 * 16
    data[12 + echo_len + (u_ord - 1) * record + 32 + 5] ^= 0x40   # inside the matrix
    shard.write_bytes(bytes(data))

    checks = harness.check_outputs(TINY, work, ops, refs, random.Random(SEED))
    assert failed(checks) == [f"pair {b_ord},{u_ord}:shard", "ref:dataset/shard_bs003.dmds"]
    # Without comparable references the recomputed pair still catches it.
    checks = harness.check_outputs(TINY, work, ops, {}, random.Random(SEED))
    assert failed(checks) == [f"pair {b_ord},{u_ord}:shard"]


def test_gate_flags_perturbed_labels_row(outputs):
    work, ops, refs = outputs
    b_ord, u_ord = sampled_pair()
    gidx = 1 + (1000 - 1) * 181 + (u_ord - 1)   # grid 1 has 181 users per row
    path = work / "ml" / "labels.csv"
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith(f"{gidx},{b_ord},")]
    i = max(rows, key=lambda i: gate._csv_float(lines[i].split(",")[3]))   # best beam
    *head, value = lines[i].split(",")
    lines[i] = ",".join([*head, repr(gate._csv_float(value) * 1.001)])
    path.write_text("\n".join(lines) + "\n")

    checks = harness.check_outputs(TINY, work, ops, refs, random.Random(SEED))
    assert failed(checks) == [f"pair {b_ord},{u_ord}:labels", "ref:ml/labels.csv"]


def test_gate_flags_gap_warnings():
    assert not gate.gap_check("no ray record for bs 3 user 7; zero channel\n").ok
    assert gate.gap_check("").ok


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

def test_nonzero_exit_raises_failed_frac(tmp_path):
    runner = harness.CliRunner(harness.child_env(harness.BENCH_DIR.parent, 1), tmp_path)
    r = runner(["validate", str(tmp_path / "missing.drf"), "--quiet"])
    assert r.rc == 1 and r.maxrss_kib > 0
    tally = harness.Tally()
    tally.add_ops(1, [r])
    assert tally.failed_frac == 1.0


def test_failed_stage_counts_itself_and_skipped_stages(tmp_path):
    def runner(argv):
        return harness.OpResult(1 if argv[0] == "build" else 0, 0.1, 0, "")

    ops = harness.run_pipeline(TINY, tmp_path, runner)
    assert [stage for stage, _ in ops] == ["trace", "build"]
    planned = len(harness.pipeline_argvs(TINY, tmp_path))
    tally = harness.Tally()
    tally.add_ops(planned, [r for _, r in ops])
    assert (tally.attempted, tally.failed) == (planned, planned - 1)
    assert not harness.completed(TINY, tmp_path, ops)


def test_seed_picks_first_row_inside_window_deterministically():
    for w in harness.WORKLOADS.values():
        cases = [w.case(seed) for seed in range(20)]
        assert cases == [w.case(seed) for seed in range(20)]
        assert all(c.first_row in w.first_rows for c in cases)
        assert all(c.last_row - c.first_row + 1 == w.n_rows for c in cases)
