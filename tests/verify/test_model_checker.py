"""Tests for the explicit-state model checker: lassos and exact N."""

from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    NaiveOverloadedPolicy,
)
from repro.policies.naive import GreedyReadyPolicy
from repro.core.errors import VerificationError
from repro.topology.numa import symmetric_numa
from repro.verify import (
    Lasso,
    ModelChecker,
    PackedClosure,
    StateCodec,
    StateScope,
    find_bad_lasso,
    is_bad_state,
    iter_states,
    longest_bad_escape,
)
from repro.verify.hierarchical import HierarchicalModelChecker, HierarchySpec

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


# ---------------------------------------------------------------------------
# reference oracle: the tuple-graph algorithms the array analyser replaced
# ---------------------------------------------------------------------------


def oracle_find_bad_lasso(edges, bad):
    """Colour DFS over the bad subgraph, roots and children sorted."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {s: WHITE for s in bad}
    for root in sorted(bad):
        if colour[root] != WHITE:
            continue
        path = []
        stack: list[tuple[object, Iterator]] = [
            (root, iter(sorted(edges.get(root, frozenset()))))
        ]
        colour[root] = GREY
        path.append(root)
        while stack:
            state, children = stack[-1]
            advanced = False
            for child in children:
                if child not in bad:
                    continue
                if colour[child] == GREY:
                    start = path.index(child)
                    return Lasso(prefix=tuple(path[:start]),
                                 cycle=tuple(path[start:]))
                if colour[child] == WHITE:
                    colour[child] = GREY
                    path.append(child)
                    stack.append(
                        (child, iter(sorted(edges.get(child, frozenset()))))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[state] = BLACK
                path.pop()
                stack.pop()
    return None


def oracle_longest_bad_escape(edges, bad):
    """Post-order escape DP over the bad subgraph; refuses a cycle."""
    escape = {}
    worst = 0
    for root in sorted(bad):
        if root not in escape:
            active = {root}
            stack = [(root, iter(edges.get(root, frozenset())))]
            while stack:
                state, children = stack[-1]
                for child in children:
                    if child in bad and child not in escape:
                        if child in active:
                            raise VerificationError(
                                "bad region has a cycle; no escape bound"
                            )
                        active.add(child)
                        stack.append(
                            (child, iter(edges.get(child, frozenset())))
                        )
                        break
                else:
                    stack.pop()
                    active.discard(state)
                    escape[state] = 1 + max(
                        (escape.get(succ, 0)
                         for succ in edges.get(state, frozenset())),
                        default=0,
                    )
        worst = max(worst, escape[root])
    return worst


@st.composite
def digraphs(draw):
    """A random digraph over ``0..n-1`` (some states without a row)
    and a random bad set."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    keys = draw(st.sets(node, min_size=1))
    edges = {key: frozenset(draw(st.lists(node, max_size=4)))
             for key in sorted(keys)}
    return edges, draw(st.sets(node))


#: Every state of a 3-core, load <= 2 scope: random closures draw from it.
SMALL_STATES = list(iter_states(StateScope(n_cores=3, max_load=2)))


@st.composite
def closures(draw):
    """A random closed graph over load vectors (every successor a key)."""
    keys = draw(st.lists(st.sampled_from(SMALL_STATES), min_size=1,
                         max_size=14, unique=True))
    return {key: frozenset(draw(st.lists(st.sampled_from(keys),
                                         max_size=3)))
            for key in keys}


class TestArrayAnalyserAgainstOracle:
    """The CSR peel and lasso walk against the tuple algorithms."""

    @given(graph=digraphs())
    @settings(max_examples=300, deadline=None)
    def test_dict_adapters_match_oracle(self, graph):
        edges, bad = graph
        expected = oracle_find_bad_lasso(edges, bad)
        assert find_bad_lasso(edges, bad) == expected
        if expected is None:
            assert longest_bad_escape(edges, bad) \
                == oracle_longest_bad_escape(edges, bad)
        else:
            with pytest.raises(VerificationError, match="cycle"):
                oracle_longest_bad_escape(edges, bad)
            with pytest.raises(VerificationError, match="cycle"):
                longest_bad_escape(edges, bad)

    @pytest.mark.parametrize("max_value", [6, 1 << 40],
                             ids=["int-form", "bytes-form"])
    @given(edges=closures())
    @settings(max_examples=150, deadline=None)
    def test_analyze_graph_matches_oracle(self, max_value, edges):
        codec = StateCodec(n_cores=3, max_value=max_value)
        closure = PackedClosure.from_edges(codec, {
            codec.encode(state): frozenset(codec.encode(s) for s in succ)
            for state, succ in edges.items()
        })
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze_graph(
            StateScope(n_cores=3, max_load=2), closure, truncated=False,
        )
        bad = {s for s in edges if is_bad_state(s)}
        lasso = oracle_find_bad_lasso(edges, bad)
        assert analysis.lasso == lasso
        assert analysis.violated == (lasso is not None)
        assert analysis.worst_case_rounds == (
            None if lasso is not None
            else oracle_longest_bad_escape(edges, bad)
        )
        assert analysis.states_explored == len(edges)
        assert analysis.bad_states == len(bad)


class TestPinnedVerdicts:
    """Literal results recorded from the tuple-graph analyser."""

    def test_naive_pingpong_lasso(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.lasso == Lasso(prefix=(),
                                       cycle=((0, 1, 2), (0, 2, 1)))

    def test_hierarchical_numa_3x2_lasso(self):
        spec = HierarchySpec(topology=symmetric_numa(3, 2))
        analysis = HierarchicalModelChecker(spec).analyze(
            StateScope(n_cores=6, max_load=4)
        )
        assert analysis.lasso == Lasso(prefix=((0, 0, 0, 3, 1, 1),),
                                       cycle=((0, 0, 1, 2, 1, 1),))
        assert analysis.states_explored == 15625

    def test_balance_count_5x3_exact_n(self):
        analysis = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=5, max_load=3)
        )
        assert not analysis.violated
        assert analysis.worst_case_rounds == 3
        assert analysis.states_explored == 1024
