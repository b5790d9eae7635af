"""errors.isolate: a failing batch is split in halves down to its failing items."""

import math
import random

import pytest

from sdharm.errors import DomainError, isolate


def _counting(bad):
    """(evaluate, calls): an evaluation of a list of ints that doubles each,
    or raises naming the first of ``bad`` among them; ``calls`` lists the
    items of every call."""
    calls = []

    def evaluate(items):
        calls.append(list(items))
        failing = [i for i in items if i in bad]
        if failing:
            raise DomainError(f"item {failing[0]} fails")
        return [2 * i for i in items]

    return evaluate, calls


def _alone(evaluate, items):
    """(results, [(index, message)]) of evaluating each item by itself."""
    results, failures = [], []
    for index, item in enumerate(items):
        try:
            results += evaluate([item])
        except DomainError as exc:
            results.append(None)
            failures.append((index, str(exc)))
    return results, failures


@pytest.mark.parametrize("k", [0, 1, 10])
def test_isolate_finds_k_bad_items_of_n_in_at_most_2k_log2_n_plus_one_calls(k):
    """k bad items among 1000, spread at random: at most 2k ceil(log2 N) + 1
    evaluations, and exactly the results and errors of each item alone."""
    n = 1000
    items = list(range(n))
    evaluate, calls = _counting(set(random.Random(k).sample(items, k)))
    results, failures = isolate(items, evaluate)
    assert len(calls) <= 2 * k * math.ceil(math.log2(n)) + 1
    assert (results, [(i, str(e)) for i, e in failures]) == _alone(evaluate, items)


def test_isolate_evaluates_a_failing_one_point_job_once():
    """A one-point job that raises is recorded from that one evaluation (a
    per-point pass would run the same job again); a longer job is split."""
    calls = []

    def batch(pts):
        calls.append(list(pts))
        if any(p[2] > 6.0 for p in pts):
            raise DomainError(f"outside chart domain at point {tuple(pts[-1])}")
        return [p[0] for p in pts]

    bad = (1.2, 2.0, 9.0)
    results, failures = isolate([bad], batch)
    assert (results, [(i, str(e)) for i, e in failures]) == (
        [None], [(0, f"outside chart domain at point {bad}")])
    assert calls == [[bad]]
    calls.clear()
    assert isolate([(0.5, 1.0, 1.0), bad], batch)[0] == [0.5, None]
    assert calls == [[(0.5, 1.0, 1.0), bad], [(0.5, 1.0, 1.0)], [bad]]


def test_each_failure_chains_the_errors_of_the_batches_it_was_split_from():
    """A failing item's error has the error of its half as its context, and
    so on up to the batch's: log2 N + 1 errors for N a power of two."""
    raised = []

    def evaluate(items):
        if 5 in items:
            raised.append(DomainError(f"{len(items)} items"))
            raise raised[-1]
        return items

    _, [(index, error)] = isolate(list(range(8)), evaluate)
    chain = [error]
    while chain[-1].__context__ is not None:
        chain.append(chain[-1].__context__)
    assert index == 5 and chain == raised[::-1]
    assert [str(e) for e in chain] == ["1 items", "2 items", "4 items", "8 items"]
