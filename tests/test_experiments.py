"""End-to-end: every registered experiment passes its shape checks (quick
mode) and renders.  These are the same harness runs the benchmarks time.
"""

import pytest

from repro.experiments import all_experiments, get_experiment

EXPERIMENT_IDS = [e.exp_id for e in all_experiments()]


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment_passes_quick(exp_id):
    res = get_experiment(exp_id)(quick=True)
    failed = [name for name, ok in res.checks if not ok]
    assert res.passed, f"{exp_id} failed checks: {failed}"
    rendered = res.render()
    assert exp_id in rendered
    assert "PASS" in rendered


def test_registry_contents():
    ids = set(EXPERIMENT_IDS)
    # One experiment per Table 1 row + the theorem/lemma/ablation set.
    assert {
        "T1.R1", "T1.R2", "T1.R3", "T1.R4", "T1.R5", "T1.R6",
        "THM4", "LEM5", "LEM6", "SEC3", "HU6", "SORT",
        "ABL1", "ABL2", "ABL3",
    } <= ids


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("NOPE")


# ----------------------------------------------------------------------
# SVC answers are checked against the sorted input, not a second EM run
# ----------------------------------------------------------------------
SVC_ANSWER_CHECK = "online answers match the sorted input"


def test_svc_flipped_online_answer_fails_check(monkeypatch):
    import numpy as np

    from repro.experiments import service

    run = service.QueryFrontend.run

    def run_with_one_wrong_answer(self, *args, **kwargs):
        answers = list(run(self, *args, **kwargs))
        wrong = np.array(answers[:1])
        wrong["key"] += 1
        answers[0] = wrong[0]
        return answers

    monkeypatch.setattr(service.QueryFrontend, "run", run_with_one_wrong_answer)
    res = get_experiment("SVC")(quick=True)
    assert dict(res.checks)[SVC_ANSWER_CHECK] is False
    assert not res.passed


def test_multi_select_matches_truth_on_svc_input():
    # The EM multi-selection the SVC check used to run keeps a tier-1
    # test against the same ground truth, on an SVC input.
    import numpy as np

    from repro.core import multi_select
    from repro.experiments import service
    from repro.experiments.base import wide_machine
    from repro.workloads.generators import load_input, random_permutation

    name, alpha, n, _k, q = service._QUICK[0]
    records = random_permutation(n, seed=service._SEED)
    ranks = np.unique(service._make_trace(name, alpha, q, n))
    machine = wide_machine()
    answers = multi_select(machine, load_input(machine, records), ranks)
    assert service.answers_correct(records, ranks, answers)
    assert len(ranks) > 1
    assert not service.answers_correct(records, ranks, answers[::-1])
