import numpy as np
import pytest

from aspo.solvers import lockstep


def counter(start, steps):
    """Toy solve: wants the points start, start + 1, ... (``steps`` of
    them), one answer each, and returns its answers."""
    answers = []
    for k in range(steps):
        answers.append((yield np.array([start + k], dtype=float)))
    return answers


def answer_rows(X):
    return [float(x[0]) * 10 for x in X]


class TestLockstep:
    def test_none_retires_only_its_own_solve(self):
        calls = []

        def fun(X):
            calls.append(X[:, 0].tolist())
            return [None if x[0] == 101.0 else float(x[0]) for x in X]

        results = lockstep(fun, [counter(0, 4), counter(100, 4),
                                 counter(200, 4)])
        assert results == [[0.0, 1.0, 2.0, 3.0], None,
                           [200.0, 201.0, 202.0, 203.0]]
        # the retired solve is asked nothing after its None
        assert calls == [[0, 100, 200], [1, 101, 201], [2, 202], [3, 203]]

    def test_solve_that_returns_on_its_first_send(self):
        def one_shot(x):
            answer = yield np.array([x])
            return ("done", answer)

        assert lockstep(answer_rows, [one_shot(1.0), counter(5, 3)]) == \
            [("done", 10.0), [50.0, 60.0, 70.0]]

    def test_results_come_back_in_start_order(self):
        # the longest solve comes first and the shortest finishes first
        results = lockstep(answer_rows, [counter(0, 5), counter(10, 1),
                                         counter(20, 3)])
        assert results == [[0.0, 10.0, 20.0, 30.0, 40.0], [100.0],
                           [200.0, 210.0, 220.0]]

    def test_an_error_in_fun_propagates(self):
        def fun(X):
            if len(X) < 2:
                raise ValueError("injected")
            return answer_rows(X)

        with pytest.raises(ValueError, match="injected"):
            lockstep(fun, [counter(0, 3), counter(10, 1)])

    def test_no_solves(self):
        assert lockstep(answer_rows, []) == []
