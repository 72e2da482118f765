"""The ledger of hard cases: every entry has its recorded outcome, and the
benchmark's frozen copy of the near-boundary pair is the ledger's."""

import sys
from pathlib import Path

import pytest

from slicereg.io import function_to_dict

from hard_cases import near_boundary_functions, params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import near_boundary_functions as workload_functions  # noqa: E402


@pytest.mark.parametrize("case", params())
def test_entry_has_its_recorded_outcome(case):
    # a "wrong" entry asserts what it should do, pass or name an error, so its
    # strict xfail fails once it does; every other entry is held to its record
    outcome, error = case.run()
    if case.outcome == "wrong":
        assert outcome != "wrong", case.why
    else:
        assert (outcome, error) == (case.outcome, case.error)


def test_benchmark_near_boundary_pair_is_the_ledgers():
    for seed in (1, 2, 3, 4):
        ours = [(f"nb_{name}", function_to_dict(f)) for name, f in near_boundary_functions(seed).items()]
        assert ours == list(workload_functions(seed).items()), seed
