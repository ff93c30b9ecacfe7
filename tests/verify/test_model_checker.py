"""Tests for the explicit-state model checker: lassos and exact N."""

import pytest

from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    NaiveOverloadedPolicy,
)
from repro.policies.naive import GreedyReadyPolicy
from repro.core.errors import VerificationError
from repro.verify import (
    ModelChecker,
    StateScope,
    is_bad_state,
    longest_bad_escape,
)

from tests.conftest import PROVEN_POLICIES


class TestPingPongDiscovery:
    """E5: the checker must rediscover the paper's counterexample."""

    def test_naive_filter_violates_work_conservation(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated
        assert analysis.worst_case_rounds is None

    def test_lasso_is_the_papers_pingpong(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        cycle = set(analysis.lasso.cycle)
        # The exact §4.3 oscillation between (0,1,2) and (0,2,1).
        assert cycle == {(0, 1, 2), (0, 2, 1)}
        assert all(is_bad_state(s) for s in analysis.lasso.cycle)

    def test_lasso_description_is_readable(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        text = analysis.lasso.describe()
        assert "repeats" in text and "forever" in text

    def test_violation_surfaces_in_proof_result(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        result = analysis.to_proof_result()
        assert not result.ok
        assert "lasso" in result.counterexample.detail


class TestProvenPolicies:
    @pytest.mark.parametrize("policy", PROVEN_POLICIES,
                             ids=lambda p: p.name)
    def test_no_violation_at_scope(self, policy, small_scope):
        analysis = ModelChecker(policy).analyze(small_scope)
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None

    def test_exact_worst_case_small_machine(self):
        """3 cores, loads <= 3: one concurrent round always suffices for
        Listing 1 (at most one idle core can be contested)."""
        analysis = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=3, max_load=3)
        )
        assert analysis.worst_case_rounds == 1

    def test_depth_does_not_grow_worst_case_on_two_cores(self):
        """An idle core stops being idle after its first successful
        steal, so the *bad condition* clears in one round no matter how
        deep the imbalance — depth costs steals, not bad rounds."""
        shallow = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=2, max_load=3)
        ).worst_case_rounds
        deep = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=2, max_load=8)
        ).worst_case_rounds
        assert shallow == deep == 1

    def test_contention_grows_worst_case(self):
        """What does cost bad rounds: several idle cores racing for the
        same victim — the loser stays idle into the next round."""
        low = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=3, max_load=3)
        ).worst_case_rounds
        high = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=4, max_load=3)
        ).worst_case_rounds
        assert low == 1
        assert high == 2

    def test_five_core_exact_n_is_three(self):
        """The contention series continues: at 5 cores three idle cores
        can lose successive races, so N = 3 (symmetry-reduced sweep)."""
        analysis = ModelChecker(
            BalanceCountPolicy(), symmetric=True, max_orders=5040,
        ).analyze(StateScope(n_cores=5, max_load=3))
        assert not analysis.violated
        assert not analysis.truncated
        assert analysis.worst_case_rounds == 3

    def test_halving_converges_no_slower_than_single_steal(self):
        scope = StateScope(n_cores=2, max_load=8)
        single = ModelChecker(BalanceCountPolicy()).analyze(scope)
        halving = ModelChecker(GreedyHalvingPolicy()).analyze(scope)
        assert halving.worst_case_rounds <= single.worst_case_rounds


class TestDegenerateMargins:
    def test_margin1_oscillates(self):
        analysis = ModelChecker(BalanceCountPolicy(margin=1)).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated

    def test_margin3_gets_stuck(self):
        analysis = ModelChecker(BalanceCountPolicy(margin=3)).analyze(
            StateScope(n_cores=2, max_load=2)
        )
        assert analysis.violated
        # The stuck state is a self-loop: the cycle has length 1.
        assert len(analysis.lasso.cycle) == 1
        assert is_bad_state(analysis.lasso.cycle[0])

    def test_greedy_ready_starves_under_adversary(self):
        analysis = ModelChecker(GreedyReadyPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated


class TestRegimes:
    def test_sequential_analysis_converges_for_naive_policy(self):
        """§4.2 vs §4.3: the naive filter is fine without concurrency —
        sequential rounds always fix the imbalance."""
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2), sequential=True
        )
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None

    def test_sequential_never_slower_than_needed(self):
        analysis = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=3, max_load=3), sequential=True
        )
        assert analysis.worst_case_rounds == 1


class TestAuxiliaryObligations:
    def test_good_state_closure_for_listing1(self, small_scope):
        checker = ModelChecker(BalanceCountPolicy())
        assert checker.check_good_state_closure(small_scope).ok

    def test_progress_for_listing1(self, small_scope):
        checker = ModelChecker(BalanceCountPolicy())
        assert checker.check_progress(small_scope).ok

    def test_progress_holds_even_for_naive(self, small_scope):
        """Subtle: every naive round still commits one steal (the first
        executed attempt); the bug is that progress alone is not enough —
        the potential must also decrease. The checker must keep these
        separate."""
        checker = ModelChecker(NaiveOverloadedPolicy())
        assert checker.check_progress(small_scope).ok

    def test_progress_holds_even_for_margin1(self):
        """Even margin-1 rounds commit a steal in every branch: any
        load-1 thief targets an overloaded victim, and idle thieves that
        pick empty load-1 victims never mutate anything, so the round's
        overloaded-victim steal still lands. What refutes margin-1 is
        attribution (EMPTY_VICTIM with no concurrent cause) and the
        lasso — not progress."""
        checker = ModelChecker(BalanceCountPolicy(margin=1))
        result = checker.check_progress(StateScope(n_cores=3, max_load=2))
        assert result.ok


class TestSymmetryReduction:
    def test_symmetric_mode_agrees_with_full_mode(self):
        scope = StateScope(n_cores=3, max_load=3)
        full = ModelChecker(BalanceCountPolicy()).analyze(scope)
        sym = ModelChecker(BalanceCountPolicy(), symmetric=True).analyze(
            scope
        )
        assert full.violated == sym.violated
        assert full.worst_case_rounds == sym.worst_case_rounds
        assert sym.states_explored < full.states_explored

    def test_symmetric_mode_finds_the_pingpong_too(self):
        analysis = ModelChecker(NaiveOverloadedPolicy(),
                                symmetric=True).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated


class TestCaching:
    def test_successor_cache_reused(self):
        checker = ModelChecker(BalanceCountPolicy())
        first, _ = checker.successors((0, 1, 2))
        second, _ = checker.successors((0, 1, 2))
        assert first is second


class TestLongestBadEscape:
    """The exact-N DP over the acyclic bad region."""

    def test_long_bad_chain_needs_no_recursion(self):
        """A 2000-state bad chain, walked from its head first: one
        Python frame per state would pass the default recursion limit."""
        chain = [(0, i) for i in range(2000)]
        edges = {state: frozenset({succ})
                 for state, succ in zip(chain, chain[1:])}
        edges[chain[-1]] = frozenset({(1, 1)})
        edges[(1, 1)] = frozenset({(1, 1)})
        assert longest_bad_escape(edges, set(chain)) == 2000

    def test_adversary_takes_the_longest_branch(self):
        edges = {
            "a": frozenset({"b", "good"}),
            "b": frozenset({"c", "d"}),
            "c": frozenset({"good"}),
            "d": frozenset({"c"}),
            "good": frozenset({"good"}),
        }
        assert longest_bad_escape(edges, {"a", "b", "c", "d"}) == 4
        assert longest_bad_escape(edges, set()) == 0

    def test_bad_cycle_is_refused(self):
        edges = {"a": frozenset({"b"}), "b": frozenset({"a"})}
        with pytest.raises(VerificationError, match="cycle"):
            longest_bad_escape(edges, {"a", "b"})
