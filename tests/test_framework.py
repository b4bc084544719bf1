"""Reduction framework: Solution invariants, chains, retrieval folding."""

import numpy as np
import pytest

from dcpc import expressions as ex
from dcpc.reductions.framework import (InverseRecord, Reduction,
                                       ReductionChain, ReductionError,
                                       Solution, Status,
                                       infeasible_solution)
from dcpc.reductions.standard import (EliminateLinearInequalities,
                                      FlipObjective, MoveToLhs)

from helpers import toy_problem


class TestSolution:
    def test_status_values(self):
        assert Status.OPTIMAL.value == "optimal"
        assert Status.INFEASIBLE.value == "infeasible"
        assert Status.UNBOUNDED.value == "unbounded"
        assert Status.ITERATION_LIMIT.value == "iteration_limit"
        assert Status.ERROR.value == "error"

    def test_optimal_solution_carries_primal(self):
        s = Solution(Status.OPTIMAL, 1.5, {0: np.array([1.0])})
        assert s.value == 1.5
        assert s.primal[0][0] == 1.0

    def test_infeasible_solution_must_have_empty_primal(self):
        with pytest.raises(ValueError):
            Solution(Status.INFEASIBLE, np.inf, {0: np.array([1.0])})

    def test_unbounded_solution_must_have_empty_primal(self):
        with pytest.raises(ValueError):
            Solution(Status.UNBOUNDED, -np.inf, {0: np.array([1.0])})

    def test_helpers(self):
        inf = infeasible_solution("why")
        assert inf.status is Status.INFEASIBLE
        assert inf.value == np.inf and inf.primal == {}


class TestReductionBase:
    def test_default_accepts_everything(self):
        assert Reduction().accepts(object()) is True

    def test_apply_unimplemented(self):
        with pytest.raises(NotImplementedError):
            Reduction().apply(object())

    @pytest.mark.parametrize("payload", [{}, {"infeasible": "", "aux": []}])
    def test_default_retrieve_returns_solution_for_empty_record(self, payload):
        sol = Solution(Status.OPTIMAL, 1.0, {0: np.array([2.0])}, "ok")
        assert Reduction().retrieve(sol, InverseRecord("reduction", payload)) is sol

    def test_default_retrieve_drops_aux_variables(self):
        sol = Solution(Status.OPTIMAL, 1.0, {0: np.array([2.0]),
                                             5: np.array([3.0]),
                                             7: np.array([4.0])}, "ok")
        back = Reduction().retrieve(sol, InverseRecord("reduction", {"aux": [5, 7]}))
        assert set(back.primal) == {0}
        np.testing.assert_array_equal(back.primal[0], [2.0])
        assert (back.status, back.value, back.message) == (Status.OPTIMAL, 1.0, "ok")

    def test_default_retrieve_reports_recorded_infeasibility(self):
        sol = Solution(Status.OPTIMAL, 0.0, {0: np.array([1.0])})
        record = InverseRecord("reduction", {"infeasible": "why", "aux": [0]})
        back = Reduction().retrieve(sol, record)
        assert back.status is Status.INFEASIBLE
        assert back.message == "why"
        assert back.primal == {}

    def test_apply_on_rejected_input_raises(self):
        toy = toy_problem()
        with pytest.raises(ReductionError):
            FlipObjective().apply(toy)  # toy minimizes

    def test_apply_checks_accepts_before_rewrite(self):
        rewritten = []

        class Increment(Reduction):
            name = "increment"

            def accepts(self, problem):
                return isinstance(problem, int)

            def rewrite(self, problem):
                rewritten.append(problem)
                return problem + 1, self._record()

        with pytest.raises(ReductionError,
                           match="reduction 'increment' does not accept this problem"):
            Increment().apply("text")
        assert rewritten == []
        assert Increment().apply(1)[0] == 2
        assert rewritten == [1]


class TestChain:
    def test_name_lists_members(self):
        chain = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        assert chain.name == "chain[move_to_lhs, eliminate_linear_inequalities]"

    def test_accepts_runs_members_forward(self):
        chain = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        assert chain.accepts(toy_problem())

    def test_accepts_false_when_member_rejects(self):
        chain = ReductionChain([MoveToLhs(), FlipObjective()])
        assert not chain.accepts(toy_problem())  # already Minimize after move

    def test_mid_chain_rejection_names_member(self):
        chain = ReductionChain([MoveToLhs(), FlipObjective()])
        with pytest.raises(ReductionError, match="flip_objective"):
            chain.apply(toy_problem())

    def test_apply_collects_one_record_per_member(self):
        chain = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        out, record = chain.apply(toy_problem())
        assert [r.reduction for r in record.payload["records"]] == \
            ["move_to_lhs", "eliminate_linear_inequalities"]
        assert all(c.relation is not ex.Relation.LE for c in out.constraints)

    def test_nested_chain_equals_flat_chain(self):
        flat = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        nested = ReductionChain([ReductionChain([MoveToLhs()]),
                                 ReductionChain([EliminateLinearInequalities()])])
        a, _ = flat.apply(toy_problem())
        b, _ = nested.apply(toy_problem())
        assert a == b

    def test_retrieve_folds_in_reverse(self):
        toy = toy_problem()
        chain = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        out, record = chain.apply(toy)
        # Hand the chain the known optimum of the final problem and check the
        # slack variables disappear on the way back.
        ids = {v.name: v.id for v in out.variables}
        primal = {ids["alice"]: np.array([-0.5]), ids["bob"]: np.array([-0.5])}
        for name, vid in ids.items():
            if name.startswith("_s"):
                primal[vid] = np.array([0.5])
        sol = chain.retrieve(Solution(Status.OPTIMAL, 1.0, primal), record)
        assert set(sol.primal) == {ids["alice"], ids["bob"]}
        assert sol.value == 1.0

    def test_infeasible_passes_through_chain(self):
        chain = ReductionChain([MoveToLhs(), EliminateLinearInequalities()])
        _, record = chain.apply(toy_problem())
        sol = chain.retrieve(infeasible_solution("no feasible point"), record)
        assert sol.status is Status.INFEASIBLE
        assert sol.primal == {}
