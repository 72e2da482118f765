"""The ledger of hard cases: every entry has its recorded outcome, the
diagnostics change no entry's outcome or residual, and the benchmark's
frozen copy of the near-boundary pair is the ledger's."""

import sys
from pathlib import Path

import pytest

from slicereg.errors import SliceRegError
from slicereg.io import function_to_dict
from slicereg.jensen import jensen_check

from hard_cases import LEDGER, N, R, near_boundary_functions, params

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


def _jensen_outcome(f, diagnostics: bool):
    """The residual's bits, or the type of the named error that ends the check."""
    try:
        return jensen_check(f, R, N, diagnostics=diagnostics).residual.hex()
    except SliceRegError as exc:
        return type(exc)


@pytest.mark.parametrize("case", LEDGER, ids=lambda case: case.name)
def test_diagnostics_change_no_outcome_or_residual(case):
    # the diagnostics only sample the map and the identities; they must
    # neither end a check that would return nor move its residual
    f = case.make(*case.args)
    assert _jensen_outcome(f, True) == _jensen_outcome(f, False)


def test_benchmark_near_boundary_pair_is_the_ledgers():
    for seed in (1, 2, 3, 4):
        ours = [(f"nb_{name}", function_to_dict(f)) for name, f in near_boundary_functions(seed).items()]
        assert ours == list(workload_functions(seed).items()), seed
