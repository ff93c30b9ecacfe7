"""Equivalence tests for the vectorised transition kernel.

The kernel is only sound if it is *indistinguishable* from the tuple
executor it replaces, so every test here is a differential one:

* ``TransitionKernel`` successors and truncation flags versus
  :func:`~repro.verify.transition.enumerate_round_branches`, across
  policies and permutation caps;
* the hierarchical packed fast path's ``_inter_mid_states`` versus the
  shared tuple helper ``_inter_outcomes`` (the docstring contract in
  ``repro.verify.hierarchical`` points at this file);
* the steal-order DAG the kernel walks (:func:`_order_dag`) versus
  ``itertools.permutations``, and the kernel under truncation caps that
  cut the order tree part-way;
* the ``REPRO_KERNEL`` eligibility gates (mode parsing, opt-outs, the
  dedup key width);
* bytes-form codecs, which the kernel declines: their closures run on
  the tuple executor through the set-based BFS loops.
"""

import itertools
import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import VerificationError
from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    GreedyReadyPolicy,
    InvertedFilterPolicy,
    NaiveOverloadedPolicy,
    OverStealingPolicy,
    ProvableWeightedPolicy,
    WeightedBalancePolicy,
)
from repro.topology.numa import symmetric_numa
from repro.verify import StateCodec, TransitionKernel, build_kernel
from repro.verify.hierarchical import (
    HierarchicalModelChecker,
    HierarchySpec,
    _inter_outcomes,
)
from repro.verify.kernel import _order_dag, kernel_mode, table_fits
from repro.verify.symmetry import TrivialGroup
from repro.verify.transition import (
    DEFAULT_MAX_ORDERS,
    enumerate_round_branches,
)

POLICIES = [
    BalanceCountPolicy(),
    GreedyHalvingPolicy(),
    GreedyReadyPolicy(),
    InvertedFilterPolicy(),
    NaiveOverloadedPolicy(),
    OverStealingPolicy(),
    ProvableWeightedPolicy(),
    WeightedBalancePolicy(),
]


def kernel_for(policy, codec, max_orders=5040):
    """Build a kernel regardless of the ``REPRO_KERNEL`` environment."""
    return TransitionKernel(policy, codec, max_orders=max_orders)


def expand_per_state(kernel, packed):
    """``expand_batch_arrays`` split into per-state successor runs."""
    values, counts, truncated, _ = kernel.expand_batch_arrays(
        numpy.asarray(packed, dtype=numpy.int64)
    )
    assert len(values) == int(counts.sum())
    runs = numpy.split(values, numpy.cumsum(counts)[:-1])
    return [(run.tolist(), flag)
            for run, flag in zip(runs, truncated.tolist())]


def assert_batch_matches_tuples(kernel, codec, states, max_orders):
    batch = expand_per_state(kernel, codec.encode_batch(states))
    for state, (succ, truncated) in zip(states, batch):
        reference = enumerate_round_branches(
            kernel.policy, state, max_orders=max_orders
        )
        assert {codec.decode(p) for p in succ} \
            == reference.successor_states(), state
        assert truncated == reference.truncated, state


class TestKernelMatchesTupleExecutor:
    @pytest.mark.parametrize(
        "policy", POLICIES, ids=lambda p: p.name,
    )
    def test_full_product_space(self, policy):
        """Every 4-core state with loads 0..3, uncapped permutations."""
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(policy, codec)
        assert_batch_matches_tuples(kernel, codec, states, 5040)

    @pytest.mark.parametrize("max_orders", [1, 2, 3])
    def test_truncation_caps_agree(self, max_orders):
        """The per-combination permutation cap and its truncation flag."""
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(
            NaiveOverloadedPolicy(), codec, max_orders=max_orders
        )
        assert_batch_matches_tuples(kernel, codec, states, max_orders)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_wider_states(self, data):
        """Sampled 5-core states — beyond the exhaustive 4-core grid."""
        policy = data.draw(st.sampled_from(POLICIES))
        states = data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=3),
                     min_size=5, max_size=5).map(tuple),
            min_size=1, max_size=8,
        ))
        codec = StateCodec(n_cores=5, max_value=15)
        kernel = kernel_for(policy, codec, max_orders=6)
        assert_batch_matches_tuples(kernel, codec, states, 6)


class TestHierarchicalMidStates:
    """``_inter_mid_states`` (packed fast path) vs ``_inter_outcomes``."""

    @pytest.mark.parametrize("nodes,cores,top,max_orders", [
        (2, 2, 3, 5040),
        (2, 2, 2, 1),
        (3, 2, 1, 2),
    ])
    def test_exhaustive_mid_state_equivalence(self, nodes, cores, top,
                                              max_orders):
        topo = symmetric_numa(nodes, cores)
        checker = HierarchicalModelChecker(
            HierarchySpec(topology=topo), symmetry=TrivialGroup(),
            max_orders=max_orders,
        )
        n = nodes * cores
        for state in itertools.product(range(top + 1), repeat=n):
            mids, truncated = checker._inter_mid_states(state)
            outcomes, ref_truncated = _inter_outcomes(
                checker.group_policy, checker.groups,
                checker._group_nodes, state,
                choice_mode=checker.choice_mode, max_orders=max_orders,
            )
            assert mids == {mid for mid, _, _ in outcomes}, state
            assert truncated == ref_truncated, state

    def test_group_can_memo_only_for_loads_invariant_policies(self):
        checker = HierarchicalModelChecker(
            HierarchySpec(topology=symmetric_numa(2, 2)),
            symmetry=TrivialGroup(),
        )
        assert checker._group_loads_invariant
        checker._inter_mid_states((3, 0, 0, 0))
        assert checker._group_can_memo  # populated by the fast path


class TestEligibilityGates:
    def test_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_mode() == "numpy"
        monkeypatch.setenv("REPRO_KERNEL", " OFF ")
        assert kernel_mode() == "off"
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert kernel_mode() == "numpy"
        for retired in ("python", "auto", "vectorised"):
            monkeypatch.setenv("REPRO_KERNEL", retired)
            with pytest.raises(VerificationError, match="off|numpy"):
                kernel_mode()

    def test_off_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        codec = StateCodec(n_cores=3, max_value=6)
        assert build_kernel(BalanceCountPolicy(), codec) is None

    def test_policy_and_checker_opt_outs(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        codec = StateCodec(n_cores=3, max_value=6)
        policy = BalanceCountPolicy()
        assert build_kernel(policy, codec) is not None
        assert build_kernel(policy, codec, choice_mode="policy") is None
        assert build_kernel(policy, codec, max_orders=0) is None

        class OpaquePolicy(BalanceCountPolicy):
            filter_invariance = "none"

        assert build_kernel(OpaquePolicy(), codec) is None

    @pytest.mark.parametrize("n_cores,max_load", [
        (9, 8), (10, 4), (11, 2), (12, 2),
    ])
    def test_every_int_form_codec_gets_a_kernel(self, monkeypatch,
                                                n_cores, max_load):
        """Wide scopes near the 63-bit int form keep the kernel at the
        default cap: its dedup key never depends on the codec."""
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        codec = StateCodec(n_cores=n_cores, max_value=n_cores * max_load)
        assert codec.use_int
        assert build_kernel(BalanceCountPolicy(), codec) is not None


class TestBytesFormCodec:
    """A codec the kernel declines: the closure runs on the tuple oracle.

    Two cores at 41 bits overflow the 63-bit int form, so the codec
    packs to bytes and the closure runs through the set-based BFS loops
    of ``explore`` and ``bfs_closure`` — the only tests of those loops.
    """

    INITIAL = [(0, 1 << 40), (3, 5)]

    def test_kernel_declines(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        codec = StateCodec.for_states(2, self.INITIAL)
        assert not codec.use_int
        assert build_kernel(GreedyHalvingPolicy(), codec) is None

    def test_serial_and_sharded_closures_agree(self):
        from repro.verify.model_checker import ModelChecker
        from repro.verify.parallel import bfs_closure

        closure, truncated = ModelChecker(GreedyHalvingPolicy()).explore(
            self.INITIAL
        )
        graph = closure.decode()
        half = 1 << 39
        assert graph == {
            (0, 2 * half): frozenset({(half, half)}),
            (half, half): frozenset({(half, half)}),
            (3, 5): frozenset({(4, 4)}),
            (4, 4): frozenset({(4, 4)}),
        }
        assert not truncated

        # Each shard gets its own checker, so no shard reads another's
        # successor memo.
        shards = [ModelChecker(GreedyHalvingPolicy()) for _ in range(2)]

        def map_expand(codec, chunks, sequential):
            return [shard.expand_packed(chunk, codec, sequential)
                    for shard, chunk in zip(shards, chunks)]

        sharded, sharded_truncated = bfs_closure(
            map_expand, 2, self.INITIAL, symmetric=False
        )
        assert (sharded.decode(), sharded_truncated) == (graph, truncated)


class TestHugeIntFormTotal:
    """An int-form codec whose probe tables would not fit: the kernel
    declines before allocating, and the tuple oracle explores."""

    INITIAL = [(0, 1 << 20), (3, 5)]

    def test_kernel_declines_without_building_tables(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)

        def refuse(self):
            raise AssertionError("probe tables must not be built")

        monkeypatch.setattr(TransitionKernel, "_build_tables", refuse)
        codec = StateCodec.for_states(2, self.INITIAL)
        assert codec.use_int and codec.bits == 21
        assert not table_fits(codec)
        assert build_kernel(GreedyHalvingPolicy(), codec) is None

    @pytest.mark.parametrize("n_cores,max_value,fits", [
        (2, 128, True),
        (3, 6, True),         # the ping-pong scope
        (12, 144, True),
        (2, 511, True),       # the largest total under the cell ceiling
        (3, 511, True),
        (2, 512, False),      # the smallest total past it
        (4, 512, False),
        (2, 1 << 20, False),  # two cores at 21 bits
    ])
    def test_table_fits_rule(self, n_cores, max_value, fits):
        codec = StateCodec(n_cores=n_cores, max_value=max_value)
        assert table_fits(codec) is fits

    def test_closure_runs_on_the_tuple_oracle(self):
        from repro.verify.model_checker import ModelChecker

        closure, truncated = ModelChecker(GreedyHalvingPolicy()).explore(
            self.INITIAL
        )
        half = 1 << 19
        assert closure.decode() == {
            (0, 2 * half): frozenset({(half, half)}),
            (half, half): frozenset({(half, half)}),
            (3, 5): frozenset({(4, 4)}),
            (4, 4): frozenset({(4, 4)}),
        }
        assert not truncated


class TestManyThiefExpansion:
    """The n-thief array expansion versus the tuple executor.

    The kernel executes *every* thief count through the steal-order DAG
    walk — there is no per-state fallback — so states with three, four,
    and five racing thieves must reproduce the tuple executor's
    successor sets and truncation flags exactly, caps included.
    """

    #: 6-core states with known many-thief structure under
    #: ``BalanceCountPolicy`` (idle cores race for the loaded ones).
    MANY_THIEF_STATES = [
        (0, 0, 0, 4, 4, 4),    # three racing thieves
        (0, 0, 0, 0, 4, 4),    # four
        (0, 0, 0, 0, 0, 5),    # five
        (1, 0, 2, 0, 5, 4),    # mixed running/ready victims
        (2, 0, 0, 0, 6, 6),    # four thieves, unequal victims
    ]

    @staticmethod
    def thief_count(kernel, packed):
        """Number of cores with at least one admissible victim."""
        loads = kernel.codec.unpack_array(
            numpy.asarray([packed], dtype=numpy.int64)
        )
        running = (loads > 0).astype(numpy.int64)
        ready = loads - running
        intents = kernel._can[
            running[:, :, None], running[:, None, :],
            ready[:, :, None], ready[:, None, :],
        ]
        intents &= ~kernel._eye
        if kernel._mask is not None:
            intents &= kernel._mask
        return int(intents.any(axis=2).sum())

    def test_handpicked_states_cover_three_to_five_thieves(self):
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        counts = {
            self.thief_count(kernel, codec.encode(s))
            for s in self.MANY_THIEF_STATES
        }
        assert {3, 4, 5} <= counts

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_many_thief_states_match_tuples(self, policy):
        """Every policy, capped at 30 orders (truncates 5! mid-tree) —
        permissive policies make the uncapped tuple oracle enumerate
        hundreds of thousands of orders per state."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(policy, codec, max_orders=30)
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, 30
        )

    def test_many_thief_uncapped_universe(self):
        """The full k! = 120 order universe, no truncation anywhere."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, 5040
        )

    @pytest.mark.parametrize("max_orders", [1, 2, 7, 23])
    def test_many_thief_truncation_caps(self, max_orders):
        """Caps that truncate 3!, 4! and 5! mid-tree, flag included."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(
            BalanceCountPolicy(), codec, max_orders=max_orders
        )
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, max_orders
        )

    def test_six_core_grid_matches_tuples(self):
        """A dense 6-core sweep — thief counts 0 through 5 mixed.

        Capped at 24 orders to keep the tuple-executor oracle fast:
        the cap truncates five-thief states mid-tree (24 < 5!), so the
        sweep still pins the truncated-tree walk; the uncapped k = 5
        universe is pinned by ``MANY_THIEF_STATES`` above.
        """
        states = list(itertools.product((0, 2, 3), repeat=6))
        codec = StateCodec(n_cores=6, max_value=18)
        kernel = kernel_for(BalanceCountPolicy(), codec,
                            max_orders=24)
        assert_batch_matches_tuples(kernel, codec, states, 24)

    def test_expand_batch_arrays_layout(self):
        """The flat (values, counts, truncated) contract: state ``i``
        owns the run ``values[sum(counts[:i]):][:counts[i]]``, exactly
        what expanding state ``i`` alone returns."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        packed = codec.encode_batch(self.MANY_THIEF_STATES)
        batch = expand_per_state(kernel, packed)
        assert len(batch) == len(packed)
        for state, run in zip(packed, batch):
            assert expand_per_state(kernel, [state]) == [run]
            successors = run[0]
            assert successors == sorted(set(successors))

    def test_row_cap_slicing_is_invisible(self, monkeypatch):
        """Slicing the walk's states (a tiny row cap) changes no run."""
        codec = StateCodec(n_cores=6, max_value=18)
        states = list(itertools.product((0, 2, 3), repeat=6))
        kernel = kernel_for(BalanceCountPolicy(), codec, max_orders=24)
        packed = codec.encode_batch(states)
        whole = expand_per_state(kernel, packed)
        monkeypatch.setattr(TransitionKernel, "_ROW_CAP", 64)
        assert expand_per_state(kernel, packed) == whole


def dag_paths(dag):
    """Every root-to-leaf path of a steal-order DAG, depth first."""
    paths = []

    def walk(depth, cls, prefix):
        if depth == len(dag):
            paths.append(tuple(prefix))
            return
        offsets, cols, dsts = dag[depth]
        for edge in range(offsets[cls], offsets[cls + 1]):
            walk(depth + 1, int(dsts[edge]), prefix + [int(cols[edge])])

    walk(0, 0, [])
    return paths


class TestStealOrderDag:
    """The suffix-class DAG against the permutation universe it encodes."""

    @pytest.mark.parametrize("k", range(7))
    def test_untruncated_depths_hold_one_class_per_thief_set(self, k):
        dag = _order_dag(k, math.factorial(k))
        for depth, (offsets, _, dsts) in enumerate(dag):
            assert len(offsets) - 1 == math.comb(k, depth)
            assert int(dsts.max()) + 1 == math.comb(k, depth + 1)

    @pytest.mark.parametrize("k,n_orders", [
        (0, 1), (1, 1), (2, 1), (3, 4), (4, 5), (4, 7), (4, 23),
        (4, 24), (5, 25), (5, 119), (5, 120), (6, 30), (6, 721),
    ])
    def test_paths_are_the_capped_permutations(self, k, n_orders):
        expected = list(itertools.islice(
            itertools.permutations(range(k)), n_orders
        ))
        assert dag_paths(_order_dag(k, n_orders)) == expected


class TestPartialTruncation:
    """Caps that cut the order tree part-way, where a suffix class is
    not just "the thieves still to steal"."""

    @staticmethod
    def many_thief_states(n_cores):
        """States with one loaded core (two allowed at six cores) and
        idle or single-task others: four or five racing thieves."""
        loaded = st.integers(min_value=3, max_value=6)
        light = st.integers(min_value=0, max_value=1)
        return st.integers(min_value=1, max_value=n_cores - 4).flatmap(
            lambda n_loaded: st.tuples(
                st.lists(loaded, min_size=n_loaded, max_size=n_loaded),
                st.lists(light, min_size=n_cores - n_loaded,
                         max_size=n_cores - n_loaded),
            )
        ).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_partial_caps_match_tuples(self, data):
        n_cores = data.draw(st.sampled_from([5, 6]))
        max_orders = data.draw(st.sampled_from([5, 7, 23, 25, 119]))
        policy = data.draw(st.sampled_from(
            [BalanceCountPolicy(), GreedyHalvingPolicy()]
        ))
        states = data.draw(st.lists(
            self.many_thief_states(n_cores).map(tuple),
            min_size=1, max_size=4,
        ))
        codec = StateCodec(n_cores=n_cores, max_value=4 * n_cores)
        kernel = kernel_for(policy, codec, max_orders=max_orders)
        counts = {TestManyThiefExpansion.thief_count(kernel, p)
                  for p in codec.encode_batch(states)}
        assert counts <= {4, 5}, (states, counts)
        assert_batch_matches_tuples(kernel, codec, states, max_orders)

    def test_widest_int_form_codec_keeps_the_kernel(self):
        """Twelve cores at five bits fill 60 of the int form's 63 bits;
        the walk's dedup key does not depend on the codec, so the kernel
        still engages at the default cap, where eleven racing thieves
        cut the order tree part-way."""
        codec = StateCodec(n_cores=12, max_value=31)
        assert codec.n_cores * codec.bits == 60
        kernel = kernel_for(BalanceCountPolicy(), codec)
        # One loaded core, so every thief has a single victim and the
        # tuple oracle stays cheap.
        states = [
            tuple(7 if j == i % 12 else (i + j) % 2 for j in range(12))
            for i in range(6)
        ] + [(1,) * 12, (0,) * 11 + (7,)]
        assert_batch_matches_tuples(kernel, codec, states,
                                    DEFAULT_MAX_ORDERS)
