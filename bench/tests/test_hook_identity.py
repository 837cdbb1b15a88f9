"""The import hook leaves the program's results unchanged.

Runs the ``anchors`` command twice, about four seconds in all.
"""

import json

import proc
import workloads


def test_traced_stdout_equals_untraced_stdout_for_anchors(tmp_path):
    workload = workloads.CLI["anchors"]
    argv = workload.argv(proc.DEFAULT_SEED)
    plain = proc.run_process(argv, proc.program_env(str(tmp_path)), str(tmp_path), 120.0, "plain")
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    traced = proc.run_process(
        argv, proc.program_env(str(tmp_path), str(trace_dir)), str(tmp_path), 120.0, "traced"
    )
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout == workload.golden(proc.DEFAULT_SEED)
    (layers_file,) = trace_dir.glob("layers-*.json")
    payload = json.loads(layers_file.read_text())
    assert payload["missing"] == []
    assert payload["entries"]["cli.main"]["calls"] == 1
    assert payload["entries"]["kernel.frequency_block_kernel"]["calls"] > 0
    assert "import time:" in traced.stderr
