"""Smoke test of what the benchmark (bench/workloads.py) calls in the
package: each workload sets up, runs one pass and passes its own check, so
renaming or removing a function, method or option the benchmark uses fails
here rather than in a benchmark run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_checks_clean(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.setup()
    item = workload.prepare(0)
    result, _ = workload.run(item)
    assert workload.check(0, item, result) == []
