"""Explicit-state model checking of work conservation.

The paper's definition (Section 3.2) asks for an ``N`` such that after
``N`` load-balancing rounds no core is idle while another is overloaded —
for *every* initial state, under *every* resolution of the concurrency.
Over abstract states this is a liveness property of a finite
nondeterministic transition system, and therefore decidable:

* a **violation** is an infinite execution that remains inside *bad*
  states (idle-while-overloaded) forever; in a finite graph that is
  exactly a reachable cycle lying wholly inside the bad region — a
  *lasso*. The §4.3 ping-pong is such a lasso:
  ``(0,1,2) -> (0,2,1) -> (0,1,2)``;
* if the bad region contains no cycle, every execution escapes it within
  a bounded number of rounds, and the worst case over the (acyclic) bad
  region is the exact ``N`` of the definition.

The checker explores the *closure* of the scope: steals conserve total
thread count, so every reachable state lives in the finite simplex of
vectors with the same total, even when a single core's load exceeds the
scope's per-core bound (over-stealing policies do that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.topology.numa import NumaTopology
from repro.verify.encoding import (
    PackedClosure,
    PackedState,
    StateCodec,
    merge_fresh,
)
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    is_bad_state,
)
from repro.verify.kernel import TransitionKernel, build_kernel
from repro.verify.symmetry import SymmetryGroup, resolve_symmetry
from repro.verify.obligations import (
    GOOD_STATE_CLOSURE,
    PROGRESS,
    WORK_CONSERVATION,
    Counterexample,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.transition import (
    DEFAULT_MAX_ORDERS,
    BranchEnumeration,
    enumerate_round_branches,
)

#: The packed form the engines explore in: packed state -> packed
#: successors. Indexed into a :class:`~repro.verify.encoding.
#: PackedClosure` once exploration finishes; only the states a verdict
#: prints are ever decoded back to tuples.
PackedGraph = dict["PackedState", frozenset["PackedState"]]

#: Sentinel distinguishing "never built" from "built as ineligible".
_KERNEL_UNSET = object()


@dataclass(frozen=True)
class Lasso:
    """A witness of non-work-conservation: a reachable bad cycle.

    Attributes:
        prefix: bad states leading from an initial state to the cycle.
        cycle: the repeating bad states (first element repeats after the
            last).
    """

    prefix: tuple[LoadState, ...]
    cycle: tuple[LoadState, ...]

    def describe(self) -> str:
        """Render the lasso the way the paper narrates the ping-pong."""
        path = " -> ".join(str(s) for s in self.prefix + self.cycle)
        loop = " -> ".join(str(s) for s in self.cycle + (self.cycle[0],))
        return f"reachable via {path}; repeats {loop} forever"


@dataclass
class WorkConservationAnalysis:
    """Result of model-checking work conservation at a scope.

    Attributes:
        policy_name: the policy analysed.
        scope: human-readable scope description.
        sequential: whether the §4.2 regime was analysed instead of §4.3.
        violated: True when a lasso was found.
        lasso: the witness, when violated.
        worst_case_rounds: exact worst-case ``N`` over all scope states
            (None when violated — no finite N exists).
        states_explored: number of distinct abstract states visited.
        bad_states: number of bad states among them.
        truncated: True when permutation caps were hit; "no violation"
            then only covers the explored subset.
    """

    policy_name: str
    scope: str
    sequential: bool
    violated: bool
    lasso: Lasso | None
    worst_case_rounds: int | None
    states_explored: int
    bad_states: int
    truncated: bool
    elapsed_s: float = 0.0

    def to_proof_result(self) -> ProofResult:
        """Summarise as a :class:`ProofResult` for report composition."""
        if self.violated:
            assert self.lasso is not None
            counterexample = Counterexample(
                state=self.lasso.cycle[0],
                detail="work-conservation lasso: " + self.lasso.describe(),
                data={
                    "prefix": self.lasso.prefix,
                    "cycle": self.lasso.cycle,
                },
            )
            status = ProofStatus.REFUTED
        else:
            counterexample = None
            status = ProofStatus.PROVED_AT_SCOPE
        return ProofResult(
            obligation=WORK_CONSERVATION,
            policy_name=self.policy_name,
            status=status,
            scope=self.scope,
            states_checked=self.states_explored,
            counterexample=counterexample,
            elapsed_s=self.elapsed_s,
        )


class ModelChecker:
    """Explores the round transition system of one policy.

    Attributes:
        policy: the policy under analysis.
        choice_mode: ``'all'`` quantifies over every candidate choice
            (default — matches the ∀ in the definition); ``'policy'``
            fixes the policy's own deterministic choice.
        max_orders: cap on steal-order permutations per round.
        symmetry: the :class:`~repro.verify.symmetry.SymmetryGroup`
            whose orbits the checker quotients by. Any group whose
            elements the transition relation cannot observe is sound:
            the flat group for load-only policies, a topology's
            automorphism group in ``choice_mode='all'`` (where the
            policy's ``choose`` is never consulted); the trivial group
            disables reduction. Under ``choice_mode='policy'`` the
            choice's tie-breaks must be equivariant too — enforced via
            :attr:`~repro.core.policy.Policy.choice_invariance`.
        symmetric: legacy boolean; ``True`` selects the flat group when
            no explicit ``symmetry`` is given.
        topology: optional machine layout; when given, snapshot views
            carry real node ids so topology-aware policies see the
            machine they were written for (defaults to the symmetry
            group's topology, when it has one).
    """

    def __init__(self, policy: Policy, choice_mode: str = "all",
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 symmetric: bool = False,
                 symmetry: SymmetryGroup | None = None,
                 topology: NumaTopology | None = None) -> None:
        self.policy = policy
        self.choice_mode = choice_mode
        self.max_orders = max_orders
        self.symmetry = resolve_symmetry(symmetric=symmetric,
                                         symmetry=symmetry)
        self.symmetric = not self.symmetry.is_trivial
        self.topology = topology
        if choice_mode == "policy" and not self.symmetry.is_trivial:
            self._check_choice_equivariance(policy)
        self._nodes: tuple[int, ...] | None = (
            topology.core_to_node if topology is not None
            else self.symmetry.core_nodes
        )
        self._successor_cache: dict[
            tuple[LoadState, bool], tuple[frozenset[LoadState], bool]
        ] = {}
        self._branch_cache: dict[tuple[LoadState, bool],
                                 BranchEnumeration] = {}
        self._kernel_cache: dict[StateCodec, TransitionKernel | None] = {}
        # Keyed per (codec, sequential) with a plain packed-state inner
        # dict: frontier states hash one machine int each instead of a
        # three-element tuple, and a fresh run skips per-state lookups
        # entirely (the empty inner dict short-circuits).
        self._packed_successor_cache: dict[
            tuple[StateCodec, bool],
            dict[PackedState, tuple[frozenset[PackedState], bool]],
        ] = {}

    def _check_choice_equivariance(self, policy: Policy) -> None:
        """Refuse quotients that ``choice_mode='policy'`` makes unsound.

        In policy mode the transition relation includes the policy's own
        ``choose``, so the quotient is only sound when, whenever two
        candidates tie under the choice's ranking, some group element
        swaps exactly them (see
        :attr:`~repro.core.policy.Policy.choice_invariance`). Load-only
        choices with cid tie-breaks satisfy that under any renaming
        group (the transposition of two tying cores is always in the
        group). Distance-based choices do **not**, even under their own
        topology's automorphism group: two candidates can tie at equal
        distance in *different* interchangeable nodes, and the fix-up
        there is a whole-node swap that moves other, unequal cores —
        empirically the quotient then under-reports the exact ``N``
        (e.g. ``numa_choice`` on ``numa:3x2``). Stateful (random)
        choices are equivariant under nothing.

        Raises:
            VerificationError: the (group, choice) combination could
                silently change verdicts.
        """
        invariance = getattr(policy, "choice_invariance", "renaming")
        if invariance == "renaming":
            return
        if invariance == "distance":
            raise VerificationError(
                f"policy {policy.name!r} makes distance-based choices,"
                " whose cross-node tie-breaks are not equivariant under"
                " any symmetry group: quotients are unsound under"
                " choice_mode='policy' — drop the symmetry group or use"
                " choice_mode='all'"
            )
        raise VerificationError(
            f"policy {policy.name!r} has a stateful (non-equivariant)"
            " choice; symmetry quotients are unsound under"
            " choice_mode='policy' — drop the symmetry group or use"
            " choice_mode='all'"
        )

    def _canon(self, state: LoadState) -> LoadState:
        if self.symmetry.is_trivial:
            return state
        return self.symmetry.canonicalize(state)

    def branches(self, state: LoadState,
                 sequential: bool = False) -> BranchEnumeration:
        """Round-branch enumeration of ``state``, memoized per checker.

        The memo is keyed on the state as given — under ``symmetric=True``
        every caller canonicalises first, so the key *is* the canonical
        state and permutation-equivalent states share one entry. Within a
        parallel shard (each worker owns one checker) this is the
        "memoize round-branch transitions" layer: ``analyze``,
        ``check_progress`` and ``successors`` all hit the same cache
        instead of re-enumerating the branching structure per obligation.

        Only *bad* states are retained — they are the ones the progress
        obligation revisits after exploration — so the memo stays bounded
        by the bad region instead of the whole reachable closure.
        """
        key = (state, sequential)
        cached = self._branch_cache.get(key)
        if cached is None:
            cached = enumerate_round_branches(
                self.policy, state,
                choice_mode=self.choice_mode,
                sequential=sequential,
                max_orders=self.max_orders,
                nodes=self._nodes,
            )
            if is_bad_state(state):
                self._branch_cache[key] = cached
        return cached

    def successors(self, state: LoadState,
                   sequential: bool = False) -> tuple[frozenset[LoadState], bool]:
        """Distinct (canonicalised) successor states and truncation flag."""
        key = (state, sequential)
        cached = self._successor_cache.get(key)
        if cached is not None:
            return cached
        enumeration = self.branches(state, sequential=sequential)
        result = (
            frozenset(self._canon(s) for s in enumeration.successor_states()),
            enumeration.truncated,
        )
        self._successor_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # packed expansion
    # ------------------------------------------------------------------

    def _kernel_for(self, codec: StateCodec) -> TransitionKernel | None:
        """The (possibly ineligible) kernel for ``codec``, memoized."""
        kernel = self._kernel_cache.get(codec, _KERNEL_UNSET)
        if kernel is _KERNEL_UNSET:
            kernel = build_kernel(
                self.policy, codec,
                choice_mode=self.choice_mode,
                max_orders=self.max_orders,
            )
            self._kernel_cache[codec] = kernel
        return kernel  # type: ignore[return-value]

    def _packed_memo(self, codec: StateCodec, sequential: bool,
                     ) -> dict[PackedState, tuple[frozenset[PackedState], bool]]:
        """The per-``(codec, sequential)`` successor memo sub-dict."""
        key = (codec, sequential)
        memo = self._packed_successor_cache.get(key)
        if memo is None:
            memo = self._packed_successor_cache[key] = {}
        return memo

    def _expand_fresh(self, packed_states: Sequence[PackedState],
                      codec: StateCodec, sequential: bool,
                      ) -> tuple[list[tuple[frozenset[PackedState], bool]], Any]:
        """Uncached packed successors of a chunk, in input order.

        Dispatches to the transition kernel when the policy and
        parameters admit one, else decodes and runs the tuple executor
        per state — the paths produce identical (canonicalised)
        successor sets, which the CI ``smoke-kernel`` job diffs
        end-to-end.

        Returns the per-state ``(successors, truncated)`` entries plus
        the chunk's flat successor values (each state's deduped
        successors concatenated in input order): a numpy ``int64``
        array on the kernel path, else ``None``. The flat form
        lets BFS drivers build the next frontier with array merges
        instead of per-state set unions.
        """
        kernel = None if sequential else self._kernel_for(codec)
        group = self.symmetry
        if kernel is None:
            out: list[tuple[frozenset[PackedState], bool]] = []
            with TRACER.span("checker.expand", "checker", tier="tuple",
                             states=len(packed_states)):
                for packed in packed_states:
                    succ, truncated = self.successors(
                        codec.decode(packed), sequential=sequential
                    )
                    out.append((
                        frozenset(codec.encode(s) for s in succ),
                        truncated,
                    ))
            return out, None
        # Kernel path: expansion, canonicalisation, and per-state
        # dedup all stay in int64 arrays; Python objects materialise
        # only at the memo boundary below (one bulk tolist). The kernel
        # already returns duplicate-free runs; only canonicalisation
        # can merge successors again.
        with TRACER.span("checker.kernel", "checker", tier="numpy",
                         states=len(packed_states)) as kernel_span:
            values, counts, trunc_flags, rows = kernel.expand_batch_arrays(
                np.asarray(packed_states, dtype=np.int64)
            )
            kernel_span.set(values=int(values.size), rows=rows)
        if not group.is_trivial:
            owner = np.repeat(np.arange(len(packed_states)), counts)
            with TRACER.span("checker.canonicalise", "checker",
                             tier="numpy", values=int(values.size)):
                values = group.canonicalize_batch(values, codec)
            with TRACER.span("checker.dedup", "checker",
                             values=int(values.size)):
                order = np.lexsort((values, owner))
                values = values[order]
                owner = owner[order]
                keep = np.empty(len(values), dtype=bool)
                keep[0] = True
                keep[1:] = (owner[1:] != owner[:-1]) \
                    | (values[1:] != values[:-1])
                values = values[keep]
                counts = np.bincount(owner[keep],
                                     minlength=len(packed_states))
        flat_list = values.tolist()
        entries = []
        cursor = 0
        for count, truncated in zip(counts.tolist(),
                                    trunc_flags.tolist()):
            entries.append((
                frozenset(flat_list[cursor:cursor + count]), truncated
            ))
            cursor += count
        return entries, values

    def expand_packed(self, packed_states: Sequence[PackedState],
                      codec: StateCodec, sequential: bool = False,
                      ) -> tuple[PackedGraph, bool]:
        """Packed successors of a frontier chunk, memoized per checker.

        The batch analogue of :meth:`successors`: every engine's
        expansion — serial levels, pool workers, remote workers — runs
        through here, so the kernel/tuple dispatch and the per-checker
        memo live in exactly one place.
        """
        edges, truncated, _ = self.expand_level(
            packed_states, codec, sequential=sequential
        )
        return edges, truncated

    def expand_level(self, packed_states: Sequence[PackedState],
                     codec: StateCodec, sequential: bool = False,
                     ) -> tuple[PackedGraph, bool, Any]:
        """:meth:`expand_packed` plus the level's flat successor values.

        The third result concatenates every state's (deduped)
        successors: a numpy ``int64`` array when the whole chunk ran
        the kernel pipeline, else a plain list. BFS drivers use it
        to build the next frontier with one ``np.unique`` + merge
        instead of per-state set unions; the edge dict is unchanged
        and remains the wire/store form.
        """
        memo = self._packed_memo(codec, sequential)
        if memo:
            misses = [p for p in packed_states if p not in memo]
        else:
            misses = list(packed_states)
        flat: Any = None
        if misses:
            fresh, flat = self._expand_fresh(misses, codec, sequential)
            memo.update(zip(misses, fresh))
        edges: PackedGraph = {}
        truncated = False
        for packed in packed_states:
            succ, trunc = memo[packed]
            edges[packed] = succ
            truncated = truncated or trunc
        if flat is None or len(misses) != len(packed_states):
            # Tuple path, or memo hits whose successors are not
            # in the fresh flat array: collect from the frozensets.
            flat = [s for succ in edges.values() for s in succ]
        return edges, truncated, flat

    def successors_packed(self, packed: PackedState, codec: StateCodec,
                          sequential: bool = False,
                          ) -> tuple[frozenset[PackedState], bool]:
        """Packed single-state successors (see :meth:`expand_packed`)."""
        self.expand_packed((packed,), codec, sequential=sequential)
        return self._packed_memo(codec, sequential)[packed]

    # ------------------------------------------------------------------
    # work conservation
    # ------------------------------------------------------------------

    def explore(self, initial_states: Iterable[LoadState],
                sequential: bool = False,
                on_expand: Callable[[int], None] | None = None,
                ) -> tuple[PackedClosure, bool]:
        """Reachable closure of ``initial_states`` as a transition graph.

        Returns the closure (every explored state with its distinct
        canonicalised successors, as CSR rows) and whether any
        enumeration was truncated. Exploration is the expensive half of
        :meth:`analyze`; the successor map of a state is a pure function
        of (policy, state, parameters), so every engine builds the same
        closure.

        The closure is computed level-synchronously over *packed* states
        (:mod:`repro.verify.encoding`), expanding whole levels through
        :meth:`expand_packed` so the transition kernel can vectorise
        them, and is returned packed: the codec is order-preserving, so
        the graph algorithms visit rows in tuple order and the states a
        verdict prints decode to exactly the historic tuple engine's.

        ``on_expand`` (when given) is called after each expanded level
        with the cumulative number of states explored so far — the
        progress hook behind :class:`repro.api.Session`'s serial-engine
        events. Pure observer; it cannot influence exploration.
        """
        raw = list(initial_states)
        if not raw:
            return PackedClosure.empty(), False
        # Canonicalisation permutes loads, so the codec fitted to the
        # raw states fits their canonical forms too — which lets the
        # array path below canonicalise the whole initial set in one
        # packed batch instead of one Python call per state.
        codec = StateCodec.for_states(len(raw[0]), raw)
        edges_packed: PackedGraph = {}
        truncated = False
        if codec.use_int:
            # Array-native frontier: visited membership is a sorted
            # int64 array probed with one searchsorted merge per level
            # instead of a Python set probed per successor. The fresh
            # frontier comes out ascending, exactly the order
            # ``sorted(next_frontier)`` produced, so expansion order —
            # and therefore every downstream byte — is unchanged.
            frontier_arr = np.unique(self.symmetry.canonicalize_batch(
                np.asarray(codec.encode_batch(raw), dtype=np.int64),
                codec,
            ))
            seen_arr = frontier_arr
            level = 0
            while frontier_arr.size:
                with TRACER.span("closure.level", "closure", level=level,
                                 frontier=int(frontier_arr.size)):
                    level_edges, trunc, flat = self.expand_level(
                        frontier_arr.tolist(), codec,
                        sequential=sequential,
                    )
                level += 1
                truncated = truncated or trunc
                edges_packed.update(level_edges)
                if on_expand is not None:
                    on_expand(len(edges_packed))
                seen_arr, frontier_arr = merge_fresh(
                    seen_arr, np.unique(np.asarray(flat, dtype=np.int64))
                )
            return PackedClosure.from_edges(codec, edges_packed), truncated
        initial = [self._canon(s) for s in raw]
        frontier = sorted({codec.encode(s) for s in initial})
        seen: set[PackedState] = set(frontier)
        level = 0
        while frontier:
            with TRACER.span("closure.level", "closure", level=level,
                             frontier=len(frontier)):
                level_edges, trunc = self.expand_packed(
                    frontier, codec, sequential=sequential
                )
            level += 1
            truncated = truncated or trunc
            edges_packed.update(level_edges)
            if on_expand is not None:
                on_expand(len(edges_packed))
            next_frontier = {
                successor
                for packed in frontier
                for successor in level_edges[packed]
                if successor not in seen
            }
            seen.update(next_frontier)
            frontier = sorted(next_frontier)
        return PackedClosure.from_edges(codec, edges_packed), truncated

    def analyze_graph(self, scope: StateScope, closure: PackedClosure,
                      truncated: bool, sequential: bool = False,
                      elapsed_s: float = 0.0) -> WorkConservationAnalysis:
        """Run the graph algorithms over an explored closure.

        The cheap half of :meth:`analyze`: the exact worst-case escape
        depth over the bad region and, when the bad region has a cycle,
        the lasso through it. Deterministic in the closure alone (rows
        are visited in ascending state order), so every engine's closure
        yields byte-identical verdicts. Only the lasso's states are
        decoded.
        """
        bad = bad_rows(closure.codec, closure.keys)
        worst, live = bad_escape(closure.offsets, closure.targets, bad)
        lasso = None
        if live.any():
            path, start = bad_lasso(closure.offsets, closure.targets, live)
            states = closure.states(path)
            lasso = Lasso(prefix=tuple(states[:start]),
                          cycle=tuple(states[start:]))
        return WorkConservationAnalysis(
            policy_name=self.policy.name,
            scope=scope.describe(),
            sequential=sequential,
            violated=lasso is not None,
            lasso=lasso,
            worst_case_rounds=None if lasso is not None else worst,
            states_explored=len(closure),
            bad_states=int(bad.sum()),
            truncated=truncated,
            elapsed_s=elapsed_s,
        )

    def analyze(self, scope: StateScope,
                sequential: bool = False,
                initial_states: Iterable[LoadState] | None = None,
                on_expand: Callable[[int], None] | None = None,
                ) -> WorkConservationAnalysis:
        """Model-check work conservation over every state in ``scope``.

        Explores the reachable closure of the scope, finds bad-region
        lassos, and — absent a lasso — computes the exact worst-case
        number of rounds to escape the bad region. ``initial_states``
        optionally overrides the scope sweep (the parallel engine's
        per-shard hook); ``on_expand`` observes exploration progress
        (see :meth:`explore`).
        """
        with timed_check() as timer:
            if initial_states is None:
                initial_states = self.symmetry.iter_representatives(scope)
            edges, truncated = self.explore(
                initial_states, sequential=sequential, on_expand=on_expand
            )
            analysis = self.analyze_graph(
                scope, edges, truncated, sequential=sequential
            )
        analysis.elapsed_s = timer.elapsed
        return analysis

    # ------------------------------------------------------------------
    # auxiliary obligations
    # ------------------------------------------------------------------

    def check_good_state_closure(self, scope: StateScope,
                                 states: Iterable[LoadState] | None = None,
                                 ) -> ProofResult:
        """Good states must only step to good states (§3.2 persistence).

        ``states`` optionally restricts the sweep to one shard's chunk.
        """
        checked = 0
        counterexample: Counterexample | None = None
        with timed_check() as timer:
            if states is None:
                states = self.symmetry.iter_representatives(scope)
            for state in states:
                state = self._canon(state)
                if is_bad_state(state):
                    continue
                checked += 1
                succ, _ = self.successors(state)
                bad_next = [s for s in succ if is_bad_state(s)]
                if bad_next:
                    counterexample = Counterexample(
                        state=state,
                        detail=(
                            f"good state reaches bad state {bad_next[0]}"
                            " in one round"
                        ),
                        data={"successor": bad_next[0]},
                    )
                    break
        status = (
            ProofStatus.REFUTED if counterexample is not None
            else ProofStatus.PROVED_AT_SCOPE
        )
        return ProofResult(
            obligation=GOOD_STATE_CLOSURE,
            policy_name=self.policy.name,
            status=status,
            scope=scope.describe(),
            states_checked=checked,
            counterexample=counterexample,
            elapsed_s=timer.elapsed,
        )

    def check_progress(self, scope: StateScope,
                       states: Iterable[LoadState] | None = None,
                       ) -> ProofResult:
        """Every branch out of a bad state commits at least one steal.

        This is the "first executed steal always succeeds" argument: in
        a bad state Lemma1 gives the idle core a candidate, so the round
        has intents, and the first steal to execute re-checks against
        unmutated state and must succeed. ``states`` optionally restricts
        the sweep to one shard's chunk.
        """
        checked = 0
        counterexample: Counterexample | None = None
        with timed_check() as timer:
            if states is None:
                states = self.symmetry.iter_representatives(scope)
            for state in states:
                state = self._canon(state)
                if not is_bad_state(state):
                    continue
                enumeration = self.branches(state)
                for branch in enumeration.branches:
                    checked += 1
                    if branch.attempts and branch.successes == 0:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                "a round with steal intents committed no"
                                f" steal (order {branch.order})"
                            ),
                            data={"order": branch.order},
                        )
                        break
                    if not branch.attempts:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                "bad state produced no steal intent at all"
                                " (idle core starves with nothing to try)"
                            ),
                            data={},
                        )
                        break
                if counterexample is not None:
                    break
        status = (
            ProofStatus.REFUTED if counterexample is not None
            else ProofStatus.PROVED_AT_SCOPE
        )
        return ProofResult(
            obligation=PROGRESS,
            policy_name=self.policy.name,
            status=status,
            scope=scope.describe(),
            states_checked=checked,
            counterexample=counterexample,
            elapsed_s=timer.elapsed,
        )


# ---------------------------------------------------------------------------
# graph algorithms
# ---------------------------------------------------------------------------


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` for each pair."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(
        ends[-1] if ends.size else 0
    )


def bad_rows(codec: StateCodec, keys: Any) -> np.ndarray:
    """Per-row :func:`is_bad_state` of ascending packed ``keys``.

    Some core idle and some overloaded: one vectorised test over the
    unpacked digit matrix under an int-form codec; bytes-form keys
    decode per state.
    """
    with TRACER.span("graph.bad", "graph", states=len(keys)) as span:
        if codec.use_int:
            digits = codec.unpack_array(keys)
            bad = (digits == 0).any(axis=1) & (digits >= 2).any(axis=1)
        else:
            bad = np.fromiter(
                (is_bad_state(codec.decode(key)) for key in keys),
                dtype=bool, count=len(keys),
            )
        span.set(bad=int(bad.sum()))
        return bad


def bad_escape(offsets: np.ndarray, targets: np.ndarray,
               bad: np.ndarray) -> tuple[int, np.ndarray]:
    """Worst-case rounds to leave the bad region, by a reverse peel.

    ``escape(s)`` is 0 for good states and ``1 + max(escape(succ))``
    for bad ones — the adversary picks the successor — and the maximum
    over bad states is the paper's ``N``. A level-synchronous Kahn
    peel computes it without recursion: round 1 removes the bad states
    with no bad successor, and each later round removes the bad states
    whose last bad successor the previous round removed, so a state
    leaves in round ``escape(s)`` and the number of rounds is ``N``.
    Total work is linear in the bad subgraph (one ``unique`` per
    round).

    Returns ``(N, live)``: ``live`` marks the bad states the peel never
    removes — those on, or leading into, a bad cycle. When ``live`` is
    non-empty ``N`` covers only the acyclic remainder and no finite
    bound exists.
    """
    with TRACER.span("graph.escape", "graph", states=int(bad.size),
                     bad=int(bad.sum())) as span:
        source = np.repeat(np.arange(bad.size), np.diff(offsets))
        inner = bad[source] & bad[targets]
        source, dest = source[inner], targets[inner]
        remaining = np.bincount(source, minlength=bad.size)
        preds = source[np.argsort(dest)]
        pred_offsets = np.zeros(bad.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(dest, minlength=bad.size),
                  out=pred_offsets[1:])
        frontier = np.flatnonzero(bad & (remaining == 0))
        rounds = 0
        while frontier.size:
            rounds += 1
            starts = pred_offsets[frontier]
            hit, times = np.unique(
                preds[_ranges(starts, pred_offsets[frontier + 1] - starts)],
                return_counts=True,
            )
            remaining[hit] -= times
            frontier = hit[remaining[hit] == 0]
        span.set(rounds=rounds)
        return rounds, bad & (remaining > 0)


def bad_lasso(offsets: np.ndarray, targets: np.ndarray,
              live: np.ndarray) -> tuple[list[int], int]:
    """A cycle through the ``live`` rows, with its access path.

    Iterative DFS with colouring: roots in ascending row order,
    children in ascending order, non-live children skipped. Returns the
    DFS path at the moment a grey child closes the cycle and the path
    index where the cycle starts.

    Restricting the walk to the rows :func:`bad_escape` left live finds
    the lasso a walk over every bad row would: a peeled row reaches
    only peeled rows, so a full walk's excursions into them return
    without touching the path, and its first root that can reach a
    cycle is the first live one.

    Raises:
        VerificationError: no live row lies on or before a cycle.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    with TRACER.span("graph.lasso", "graph", live=int(live.sum())):
        bounds = offsets.tolist()
        children = targets.tolist()
        is_live = live.tolist()
        colour = bytearray(live.size)
        for root in np.flatnonzero(live).tolist():
            if colour[root] != WHITE:
                continue
            path = [root]
            colour[root] = GREY
            stack = [iter(children[bounds[root]:bounds[root + 1]])]
            while stack:
                for child in stack[-1]:
                    if not is_live[child]:
                        continue
                    if colour[child] == GREY:
                        return path, path.index(child)
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        path.append(child)
                        stack.append(iter(
                            children[bounds[child]:bounds[child + 1]]
                        ))
                        break
                else:
                    colour[path.pop()] = BLACK
                    stack.pop()
    raise VerificationError("no cycle through the live bad states")


def _index_graph(edges: dict[Any, frozenset[Any]], bad: set[Any],
                 ) -> tuple[list[Any], np.ndarray, np.ndarray, np.ndarray]:
    """Sorted states, CSR ``offsets``/``targets`` and bad mask of a dict
    graph (successors that are not keys become rows without edges)."""
    states = sorted(set(edges).union(bad, *edges.values()))
    index = {state: row for row, state in enumerate(states)}
    rows = [sorted(index[s] for s in edges.get(state, ()))
            for state in states]
    offsets = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)),
              out=offsets[1:])
    targets = np.fromiter(
        (s for row in rows for s in row), np.int64, int(offsets[-1])
    )
    mask = np.fromiter((state in bad for state in states), bool,
                       len(states))
    return states, offsets, targets, mask


def find_bad_lasso(edges: dict[Hashable, frozenset[Hashable]],
                   bad: set[Hashable]) -> Lasso | None:
    """Find a cycle lying wholly inside ``bad``, with an access path.

    Every bad state is a legal initial state (the definition quantifies
    over all initial states), so any bad cycle is a violation witness.
    The dict-graph form of :meth:`ModelChecker.analyze_graph`'s search:
    the graph is indexed in sorted state order and handed to
    :func:`bad_escape` and :func:`bad_lasso`.
    """
    states, offsets, targets, mask = _index_graph(edges, bad)
    _, live = bad_escape(offsets, targets, mask)
    if not live.any():
        return None
    path, start = bad_lasso(offsets, targets, live)
    return Lasso(prefix=tuple(states[row] for row in path[:start]),
                 cycle=tuple(states[row] for row in path[start:]))


def longest_bad_escape(edges: dict[Hashable, frozenset[Hashable]],
                       bad: set[Hashable]) -> int:
    """Worst-case rounds to leave the (acyclic) bad region.

    The dict-graph form of :func:`bad_escape`: the paper's ``N``.

    Raises:
        VerificationError: the bad subgraph has a cycle.
    """
    _, offsets, targets, mask = _index_graph(edges, bad)
    worst, live = bad_escape(offsets, targets, mask)
    if live.any():
        raise VerificationError("bad region has a cycle; no escape bound")
    return worst
