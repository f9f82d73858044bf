"""The byte contract in Tier-1: a trace-heavy and a channel-heavy case of
the benchmark, run in this process through ``cli.run``, write outputs whose
SHA-256 hashes equal those recorded in ``bench/refs.json``. The hashes hold
for the platform they were recorded on, so another platform skips; the
benchmark's commands are parsed on every platform."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import harness  # noqa: E402
from mimogen import cli  # noqa: E402


@pytest.mark.parametrize("workload,first_row", [("trace-heavy", 4500), ("channel-heavy", 1000)])
def test_outputs_match_the_recorded_hashes(tmp_path, workload, first_row):
    refs = harness.load_refs()
    if refs["fingerprint"] != gate.platform_fingerprint():
        pytest.skip(f"hashes recorded on {refs['fingerprint']!r}, "
                    f"not on {gate.platform_fingerprint()!r}")
    case = harness.WORKLOADS[workload].case_at(first_row)
    try:
        for argv in [harness.scene_argv(tmp_path),
                     *(argv for _, argv in harness.pipeline_argvs(case, tmp_path))]:
            assert cli.run(argv) == 0, argv
        hashes = {rel: gate.sha256_file(tmp_path / rel) for rel in gate.output_files(case)}
    finally:
        harness.clear_outputs(tmp_path)     # about 360 MB of shards on channel-heavy
    assert hashes == refs["cases"][case.key]


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_bench_commands_parse(tmp_path, workload):
    # Every command the benchmark runs is one the parser takes, as written.
    case = harness.WORKLOADS[workload].case_at(harness.WORKLOADS[workload].first_rows[0])
    parser = cli.build_parser()
    for stage, argv in [("scene", harness.scene_argv(tmp_path)),
                        *harness.pipeline_argvs(case, tmp_path)]:
        assert parser.parse_args(argv).command == stage, argv
