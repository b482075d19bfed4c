import numpy as np
import pytest

from klvq.partition import alternate


def plain_loop(start, step, max_iters):
    """alternate with every iteration computed up to max_iters and no stop
    at a repeated assignment."""
    trace, assignment = [], start
    for _ in range(max_iters):
        proposed, repaired, value = step(assignment)
        trace.append(value)
        if np.array_equal(proposed, assignment):
            return trace, assignment, True
        assignment = repaired
    return trace, assignment, False


def successor_table(tail, period):
    """States 0..tail-1 lead in order into the cycle tail..tail+period-1."""
    states = tail + period
    return {state: state + 1 if state + 1 < states else tail for state in range(states)}


def toy_step(successor, fixpoints, calls):
    """A deterministic step over states: the assignment [s, 0] proposes
    itself at a fixpoint, else [successor, 1], which the repair turns into
    [successor, 0]; the objective is a function of s alone."""

    def step(assignment):
        state = int(assignment[0])
        calls.append(state)
        if state in fixpoints:
            return assignment.copy(), assignment.copy(), state / 7
        nxt = successor[state]
        return np.array([nxt, 1]), np.array([nxt, 0]), state / 7

    return step


class TestAlternate:
    @pytest.mark.parametrize("tail", [0, 1, 5])
    @pytest.mark.parametrize("period", [1, 2, 4, 6, 12])
    def test_cycle_replay_equals_the_plain_loop(self, tail, period):
        """A run that enters a cycle stops once its repaired assignment
        repeats, after tail + period calls of step, and returns what the
        plain loop returns when cut at that many iterations."""
        successor = successor_table(tail, period)
        first_repeat = tail + period
        for max_iters in range(1, first_repeat + 2 * period + 1):
            calls = []
            want = plain_loop(np.array([0, 0]), toy_step(successor, set(), []), min(max_iters, first_repeat))
            trace, assignment, converged = alternate(
                np.array([0, 0]), toy_step(successor, set(), calls), max_iters
            )
            assert trace == want[0]
            np.testing.assert_array_equal(assignment, want[1])
            assert converged is want[2] is False
            assert calls == list(range(min(max_iters, first_repeat)))
        np.testing.assert_array_equal(assignment, [tail, 0])

    @pytest.mark.parametrize("tail", [1, 3])
    def test_fixpoint_after_a_tail_converges(self, tail):
        successor = successor_table(tail, 1)
        for max_iters in range(1, tail + 4):
            calls = []
            want = plain_loop(np.array([0, 0]), toy_step(successor, {tail}, []), max_iters)
            trace, assignment, converged = alternate(
                np.array([0, 0]), toy_step(successor, {tail}, calls), max_iters
            )
            assert trace == want[0]
            np.testing.assert_array_equal(assignment, want[1])
            assert converged is want[2] is (max_iters > tail)
            assert calls == list(range(min(max_iters, tail + 1)))

    @pytest.mark.parametrize("max_iters", [1, 2, 50])
    def test_fixpoint_at_iteration_0_returns_start(self, max_iters):
        start, calls = np.array([4, 0]), []
        trace, assignment, converged = alternate(start, toy_step({4: 4}, {4}, calls), max_iters)
        assert assignment is start and converged is True
        assert trace == [4 / 7] and calls == [4]

    @pytest.mark.parametrize("max_iters", [1, 2, 7, 30])
    def test_run_without_a_repeat_stops_at_max_iters(self, max_iters):
        calls = []
        trace, assignment, converged = alternate(
            np.array([0, 0]), toy_step(successor_table(40, 1), set(), calls), max_iters
        )
        assert calls == list(range(max_iters)) and trace == [state / 7 for state in calls]
        np.testing.assert_array_equal(assignment, [max_iters, 0])
        assert converged is False

    def test_start_is_keyed_by_value_not_dtype(self):
        # A start held as int32 is the same assignment as the int64 one that
        # the period-1 repair of the first iteration hands back.
        calls = []
        trace, assignment, converged = alternate(
            np.array([0, 0], dtype=np.int32), toy_step({0: 0}, set(), calls), 5
        )
        assert calls == [0] and trace == [0.0] and not converged
        np.testing.assert_array_equal(assignment, [0, 0])
