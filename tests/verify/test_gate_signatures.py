"""Each gate's ``run`` takes exactly the keywords the harness passes it.

``python -m repro.verify`` passes ``workers`` only to a gate whose
:class:`~repro.verify.gates.Gate` sets ``workers``, ``perturb`` only where
it sets ``perturb``, and ``faulted`` only where the fault plan is
``"optional"``.  A keyword outside that set is a parameter no caller
sets; one inside it that ``run`` lacks fails mid-matrix.  No gate runs
here.
"""

import inspect

import pytest

from repro.verify.gates import GATES


def _passed_keywords(gate) -> set[str]:
    return (
        ({"workers"} if gate.workers else set())
        | ({"perturb"} if gate.perturb else set())
        | ({"faulted"} if gate.faults == "optional" else set())
    )


@pytest.mark.parametrize("name", sorted(GATES))
def test_run_takes_quick_and_exactly_the_passed_keywords(name):
    gate = GATES[name]
    params = list(inspect.signature(gate.run).parameters.values())
    assert params[0].name == "quick"
    assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    keywords = params[1:]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in keywords)
    # the harness's base run passes none of them
    assert all(p.default is not inspect.Parameter.empty for p in keywords)
    assert {p.name for p in keywords} == _passed_keywords(gate)
