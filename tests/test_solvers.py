import numpy as np
import pytest

from aspo.solvers import lockstep, walk_steps


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


def drive(walk, score):
    """Run one walk alone, answering each block with ``score`` per row;
    returns the blocks it yielded and its result."""
    blocks, answer = [], None
    try:
        while True:
            blocks.append(walk.send(answer))
            answer = np.array([score(row) for row in blocks[-1].tolist()])
    except StopIteration as done:
        return blocks, done.value


def bowl(row):
    """A score with its maximum at ranks (2, 1, 3) and ties on the way."""
    return -float(abs(row[0] - 2) + abs(row[1] - 1) + abs(row[2] - 3))


class TestWalkSteps:
    def test_moves_in_parameter_then_value_order(self):
        walk = walk_steps((3, 2), np.array([1, 0]), 0.0, 5)
        assert next(walk).tolist() == [[0, 0], [2, 0], [1, 1]]

    def test_first_best_move_and_only_on_a_strict_gain(self):
        walk = walk_steps((3, 2), np.array([0, 0]), 1.0, 5)
        next(walk)
        # two moves tie for the best: the first of them is taken
        block = walk.send(np.array([2.0, 2.0, 1.5]))
        assert block.tolist() == [[0, 0], [2, 0], [1, 1]]
        # the best move only equals the current score: the walk stops
        with pytest.raises(StopIteration) as done:
            walk.send(np.array([1.0, 2.0, 1.9]))
        row, value = done.value.value
        assert row.tolist() == [1, 0] and value == 2.0

    def test_climbs_to_the_best_row(self):
        blocks, (row, value) = drive(
            walk_steps((3, 2, 4), np.array([0, 0, 0]), bowl([0, 0, 0]), 64),
            bowl)
        assert row.tolist() == [2, 1, 3] and value == 0.0
        # every block holds sum(counts) - len(counts) moves
        assert {b.shape for b in blocks} == {(6, 3)}

    def test_max_steps_caps_the_moves(self):
        start = np.array([0, 0, 0])
        blocks, (row, value) = drive(
            walk_steps((3, 2, 4), start, bowl(start), 2), bowl)
        assert len(blocks) == 2
        assert row.tolist() == [2, 0, 3] and value == -1.0

    def test_single_valued_parameters_yield_no_move(self):
        blocks, (row, value) = drive(
            walk_steps((1, 1), np.array([0, 0]), 0.5, 64), bowl)
        assert [b.shape for b in blocks] == [(0, 2)]
        assert row.tolist() == [0, 0] and value == 0.5

    def test_walks_in_lockstep_end_where_they_end_alone(self):
        starts = [np.array(r) for r in ([0, 0, 0], [2, 1, 0], [1, 0, 3],
                                        [2, 1, 3])]
        blocks = []

        def fun(X):
            blocks.append(X.shape)
            return [np.array([bowl(row) for row in walk.tolist()])
                    for walk in X]

        results = lockstep(fun, [walk_steps((3, 2, 4), r, bowl(r), 64)
                                 for r in starts])
        for r, (row, value) in zip(starts, results):
            _, (alone, alone_value) = drive(
                walk_steps((3, 2, 4), r, bowl(r), 64), bowl)
            assert row.tolist() == alone.tolist() and value == alone_value
        # one call per round, every live walk's block stacked
        assert blocks[0] == (4, 6, 3) and blocks[-1][1:] == (6, 3)
