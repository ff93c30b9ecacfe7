"""Vectorised batch transition kernel over packed states.

The serial transition executor (:mod:`repro.verify.transition`) spends
its time building :class:`~repro.core.cpu.CoreSnapshot` objects and
calling the policy's filter per (thief, victim) pair, per permutation,
per state. For the policies this library proves — whose filters and
steal amounts depend only on the *loads* of the two cores involved —
all of that is table lookups in disguise: during a round a core is fully
described by its round-start running bit and its current ready count,
so ``can_steal``/``steal_amount`` over live views factor through a
``(running_t, running_v, ready_t, ready_v)`` table probed once per
codec from the *real* policy.

:class:`TransitionKernel` exploits that factoring to expand a whole
frontier at once in numpy. One advanced-indexing probe gives every
state's intent mask; states are then grouped by their number ``k`` of
racing thieves, and each group runs one dynamic programme over the
*steal-order DAG* (:func:`_order_dag`), with no per-state Python:

* **The DAG.** The tuple executor enumerates the first ``max_orders``
  permutations of the ``k`` thieves. As a prefix tree, a node's *suffix
  class* is the set of order suffixes still below it. Nodes with equal
  classes have equal futures, so the DAG keeps one node per class:
  without truncation a class is the set of thieves still to steal
  (``C(k, d)`` classes at depth ``d``), and a cap adds at most one
  partial class per depth.
* **Rows.** A row is ``(state, suffix class, live ready vector)``,
  held as 1-D ``int64`` arrays with the ready vector packed. Each depth
  expands every row along its class's out-edges and, per edge, along
  that thief's victims, applies the table-driven steal, and keeps one
  row per key with one sort (ready vectors enter the key as ranks, so
  its width never depends on the codec).
* **Why merging is exact.** A thief's victim set is fixed by the
  round-start snapshot, running bits never change within a round, and a
  steal reads only ``(running, ready)``; so rows with equal keys reach
  identical leaf sets. The leaf universe and the truncation flag are the
  tuple executor's.
* **The cap.** No depth materialises more than
  :attr:`TransitionKernel._ROW_CAP` rows before dedup: larger groups
  run in state slices (one state is never split).

:meth:`TransitionKernel.expand_batch_arrays` returns each state's
successors duplicate-free and ascending, as flat arrays that feed the
engines' array pipeline without per-state lists.

Whether a kernel may stand in for the tuple executor at all is an
eligibility question answered by
:attr:`~repro.core.policy.Policy.filter_invariance` (``"loads"``,
``"scoped-loads"`` with a static pair mask, or ``"none"`` to opt out)
plus the checker parameters: only ``choice_mode='all'``, the
stale-snapshot (non-sequential) regime, ``max_orders >= 1``, and an
int-form codec (whole frontiers must fit ``int64`` lanes). Everything
else — bytes-form codecs included — runs on the tuple executor, the
single reference oracle.

The ``REPRO_KERNEL`` environment variable selects the path: ``off``
(tuple executor everywhere) or the default ``numpy``.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Any, Sequence

import numpy as np

from repro.core.cpu import CoreSnapshot
from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.core.task import NICE_0_WEIGHT
from repro.verify.encoding import StateCodec
from repro.verify.transition import DEFAULT_MAX_ORDERS

#: Environment toggle for the kernel tier.
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted values of :data:`KERNEL_ENV`.
KERNEL_MODES = ("off", "numpy")


def kernel_mode() -> str:
    """The configured kernel tier (validated ``REPRO_KERNEL``)."""
    mode = os.environ.get(KERNEL_ENV, "numpy").strip().lower() or "numpy"
    if mode not in KERNEL_MODES:
        raise VerificationError(
            f"{KERNEL_ENV} must be one of {'|'.join(KERNEL_MODES)},"
            f" got {mode!r}"
        )
    return mode


#: Probe tables of more cells are never built. The tables cost about
#: 0.4-0.5 us and 34 bytes per cell (policy calls and Python list
#: slots), so this caps them near half a second and 34 MiB, i.e.
#: ``max_value <= 511`` (measured on a 2-CPU x86_64 host; see
#: docs/encoding.md).
TABLE_CELL_CEILING = 1 << 20


def table_fits(codec: StateCodec) -> bool:
    """Whether the kernel's probe tables fit under ``codec``.

    The tables hold ``4 * (max_value + 1)**2`` cells, quadratic in the
    codec's conserved total; past :data:`TABLE_CELL_CEILING` the kernel
    declines and the tuple executor explores. Huge totals (two cores at
    21 bits) therefore never allocate their tables.
    """
    return 4 * (codec.max_value + 1) ** 2 <= TABLE_CELL_CEILING


#: Steal-order DAGs of capped thief permutations, keyed ``(k, n_orders)``.
_ORDER_DAGS: dict[tuple[int, int], list[tuple[Any, Any, Any]]] = {}


def _order_dag(k: int, n_orders: int) -> list[tuple[Any, Any, Any]]:
    """Suffix-class DAG of the first ``n_orders`` thief permutations.

    The steal-order DAG of the module docstring: one node per distinct
    suffix class of ``itertools.permutations(range(k))`` truncated to
    ``n_orders``, the tuple executor's order universe.

    Returns one ``(offsets, cols, dsts)`` CSR triple per depth
    ``d < k``: class ``c`` at depth ``d`` owns edges
    ``offsets[c]:offsets[c + 1]``, and edge ``e`` steals with thief
    column ``cols[e]`` and leads to class ``dsts[e]`` at depth ``d + 1``.
    Edges leave each class in ascending column order, so a depth-first
    walk of the paths lists the universe in ``itertools`` order. Depth
    0 holds the root class alone and depth ``k`` the empty suffix alone.
    """
    cached = _ORDER_DAGS.get((k, n_orders))
    if cached is not None:
        return cached
    level = [frozenset(itertools.islice(
        itertools.permutations(range(k)), n_orders
    ))]
    dag = []
    for _ in range(k):
        index: dict[frozenset[tuple[int, ...]], int] = {}
        offsets = [0]
        cols: list[int] = []
        dsts: list[int] = []
        for cls in level:
            by_first: dict[int, set[tuple[int, ...]]] = {}
            for suffix in cls:
                by_first.setdefault(suffix[0], set()).add(suffix[1:])
            for col in sorted(by_first):
                cols.append(col)
                dsts.append(index.setdefault(
                    frozenset(by_first[col]), len(index)
                ))
            offsets.append(len(cols))
        dag.append((np.asarray(offsets, dtype=np.int64),
                    np.asarray(cols, dtype=np.int64),
                    np.asarray(dsts, dtype=np.int64)))
        level = list(index)
    _ORDER_DAGS[(k, n_orders)] = dag
    return dag


def pair_mask_for(policy: Policy, n_cores: int) -> list[list[bool]] | None:
    """The static thief/victim admission mask of a scoped policy.

    ``None`` for plain ``"loads"`` policies (every off-diagonal pair is
    admissible). For ``"scoped-loads"`` policies the mask comes from the
    policy's ``core_to_group`` attribute: a pair is admissible exactly
    when both cores share a group.
    """
    invariance = getattr(policy, "filter_invariance", "none")
    if invariance != "scoped-loads":
        return None
    groups = getattr(policy, "core_to_group", None)
    if groups is None or len(groups) != n_cores:
        raise VerificationError(
            f"policy {policy.name!r} declares scoped-loads invariance"
            " but exposes no matching core_to_group"
        )
    return [
        [t != v and groups[t] == groups[v] for v in range(n_cores)]
        for t in range(n_cores)
    ]


def build_kernel(policy: Policy, codec: StateCodec,
                 choice_mode: str = "all",
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 n_cores: int | None = None) -> "TransitionKernel | None":
    """A kernel for ``(policy, codec)``, or ``None`` when ineligible.

    Eligibility: ``REPRO_KERNEL`` not ``off``; an int-form codec (the
    kernel holds whole frontiers in ``int64`` lanes, so bytes-form
    codecs take the tuple executor) whose probe tables fit
    (:func:`table_fits`); ``choice_mode='all'`` (policy mode consults
    ``choose``, which tables cannot capture); ``max_orders >= 1``; and
    the policy declares a table-compatible
    :attr:`~repro.core.policy.Policy.filter_invariance`. Nothing is
    allocated before the decision.
    """
    if kernel_mode() == "off" or not codec.use_int:
        return None
    if not table_fits(codec):
        return None
    if choice_mode != "all" or max_orders < 1:
        return None
    invariance = getattr(policy, "filter_invariance", "none")
    if invariance not in ("loads", "scoped-loads"):
        return None
    n = codec.n_cores if n_cores is None else n_cores
    return TransitionKernel(
        policy, codec,
        max_orders=max_orders,
        pair_mask=pair_mask_for(policy, n),
    )


class TransitionKernel:
    """Table-driven round expansion for loads-invariant policies.

    Built once per ``(policy, codec)`` and cached by the checker; the
    construction probes the real policy over the full
    ``(running, ready)`` grid (bounded by the codec's conserved total),
    after which no policy code runs during exploration. The codec must
    be int-form (see :func:`build_kernel`).

    Attributes:
        policy: the policy the tables were probed from.
        codec: the packed-state codec frontiers are expressed in.
        max_orders: permutation cap, mirrored from the tuple executor.
    """

    def __init__(self, policy: Policy, codec: StateCodec,
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 pair_mask: Sequence[Sequence[bool]] | None = None) -> None:
        self.policy = policy
        self.codec = codec
        self.max_orders = max_orders
        self._mask = (
            None if pair_mask is None
            else np.asarray(pair_mask, dtype=bool)
        )
        self._build_tables()
        self._eye = np.eye(codec.n_cores, dtype=bool)
        # Per-core digit weights and shifts of the packed form: the
        # steal walk reads and moves digits in place on packed rows.
        self._weights = codec.pack_array(
            np.eye(codec.n_cores, dtype=np.int64)
        )
        self._shifts = np.asarray(
            [int(w).bit_length() - 1 for w in self._weights], dtype=np.int64
        )
        self._digit = (1 << codec.bits) - 1

    # -- table construction ---------------------------------------------

    def _probe_view(self, cid: int, running: int, ready: int) -> CoreSnapshot:
        """A live view, constructed exactly like ``_LiveState.view``.

        ``filter_invariance="loads"`` licenses ``node=0``: the filter
        and amount may not consult cid or node, so any placement probes
        the same table entry the real round would.
        """
        return CoreSnapshot(
            cid=cid,
            nr_ready=ready,
            has_current=running == 1,
            weighted_load=(running + ready) * NICE_0_WEIGHT,
            node=0,
            version=0,
        )

    def _probe_cids(self) -> tuple[int, int]:
        """A representative admissible (thief, victim) cid pair."""
        if self._mask is not None:
            pairs = np.argwhere(self._mask)
            if not len(pairs):
                return -1, -1  # no admissible pair: tables stay all-False
            return int(pairs[0][0]), int(pairs[0][1])
        return 0, 1

    def _build_tables(self) -> None:
        """Probe ``can_steal``/``steal_amount`` over the live-state grid.

        A core's live view during a round is determined by its
        round-start running bit (fixed for the whole round) and its
        current ready count; ready counts are bounded by the conserved
        total, i.e. by ``codec.max_value``. Tables are indexed
        ``[running_t, running_v, ready_t, ready_v]``.
        """
        top = self.codec.max_value
        t_cid, v_cid = self._probe_cids()
        can = [[[[False] * (top + 1) for _ in range(top + 1)]
                for _ in range(2)] for _ in range(2)]
        amt = [[[[0] * (top + 1) for _ in range(top + 1)]
                for _ in range(2)] for _ in range(2)]
        if t_cid >= 0:
            policy = self.policy
            can_steal = policy.can_steal
            steal_amount = policy.steal_amount
            # Views are precreated per (running, ready) — 2(top+1) each
            # side instead of one pair per grid cell.
            t_views = [[self._probe_view(t_cid, r, q)
                        for q in range(top + 1)] for r in (0, 1)]
            v_views = [[self._probe_view(v_cid, r, q)
                        for q in range(top + 1)] for r in (0, 1)]
            for rt in (0, 1):
                for rv in (0, 1):
                    v_row = v_views[rv]
                    for qt in range(top + 1):
                        thief = t_views[rt][qt]
                        can_row = can[rt][rv][qt]
                        amt_row = amt[rt][rv][qt]
                        # Ready counts on the two sides of a steal can
                        # never sum past the conserved total, so the
                        # triangle qt + qv > top is unreachable — leave
                        # it unprobed (False / 0).
                        for qv in range(top + 1 - qt):
                            victim = v_row[qv]
                            if can_steal(thief, victim):
                                can_row[qv] = True
                                amt_row[qv] = steal_amount(thief, victim)
        self._can = np.asarray(can, dtype=bool)
        # Merged executor table: the live re-check (`can` else skip)
        # and the clamp's lower bound collapse into one lookup, because
        # a filtered pair and a non-positive amount both execute as
        # "nothing moves". Intent construction still reads `can` — an
        # admissible pair with amount <= 0 must create a (no-op) branch.
        self._step = np.where(
            self._can, np.maximum(np.asarray(amt, dtype=np.int64), 0), 0
        )

    # -- batch expansion --------------------------------------------------

    #: Peak rows (state x order class x ready vector) one depth of the
    #: steal-order walk materialises before dedup; larger groups run
    #: in state slices.
    _ROW_CAP = 1 << 17

    def expand_batch_arrays(self, packed: Any) -> tuple[Any, Any, Any, int]:
        """Array-native expansion of an ``int64`` frontier chunk.

        The kernel's native surface: takes a packed ``int64`` array
        and returns ``(values, counts, truncated, rows)``. State ``i``
        owns the run of ``counts[i]`` successors inside ``values`` —
        duplicate-free and ascending — and ``truncated[i]`` flags a
        capped permutation enumeration. ``rows`` counts the rows the
        steal-order walk materialised before dedup, summed over depths
        and the root's one row per state included (the kernel's work,
        for tracing). States are grouped by thief
        count ``k`` and every group, zero and single thieves included,
        runs the same walk (:meth:`_expand_multi`) — no per-state
        Python.
        """
        n_states = len(packed)
        if n_states == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                0,
            )
        # Decode the whole chunk: loads[s, cid].
        loads = self.codec.unpack_array(packed)
        running = (loads > 0).astype(np.int64)
        ready = loads - running
        # Intent mask: may thief t steal from victim v in state s?
        intents = self._can[
            running[:, :, None], running[:, None, :],
            ready[:, :, None], ready[:, None, :],
        ]
        intents &= ~self._eye
        if self._mask is not None:
            intents &= self._mask
        thief_counts = intents.any(axis=2).sum(axis=1)

        truncated = np.zeros(n_states, dtype=bool)
        piece_idx: list[Any] = []
        piece_vals: list[Any] = []
        rows = 0
        for k in np.unique(thief_counts).tolist():
            group = np.nonzero(thief_counts == k)[0]
            k_idx, k_vals, k_trunc, k_rows = self._expand_multi(
                int(k), group, intents, running, ready
            )
            piece_idx.append(k_idx)
            piece_vals.append(k_vals)
            truncated[group] = k_trunc
            rows += k_rows

        all_idx = np.concatenate(piece_idx)
        all_vals = np.concatenate(piece_vals)
        # Each group's walk yields its states' runs duplicate-free,
        # ascending, and in state order; a stable sort by state
        # interleaves the groups back into input order.
        order = np.argsort(all_idx, kind="stable")
        counts = np.bincount(all_idx, minlength=n_states)
        return all_vals[order], counts, truncated, rows

    def _expand_multi(self, k: int, group: Any, intents: Any,
                      running: Any,
                      ready: Any) -> tuple[Any, Any, bool, int]:
        """Expansion of states with exactly ``k`` racing thieves.

        A round's leaves are every capped steal order of the ``k``
        thieves crossed with every victim combination. Instead of
        replaying that product, this walks the steal-order DAG
        (:func:`_order_dag`) depth by depth, one row per
        ``(state, suffix class, live ready vector)``. Each depth
        expands every row along its class's out-edges and, per edge,
        along that thief's victims; applies the steal by table lookup;
        and keeps one row per key with one sort of an ``int64`` key
        ``(state, class, rank of ready)``. Victims are chosen at steal time,
        which enumerates the same combinations as choosing them up
        front: thief ``j``'s victim is read only by thief ``j``'s steal.

        Merging equal keys is exact. A thief's victim set is fixed by
        the round-start snapshot, running bits never change within a
        round, and a steal reads only ``(running, ready)`` of its two
        cores; so two rows with equal keys reach identical leaf sets.
        The DAG's paths are exactly the first ``max_orders``
        permutations, so the leaf universe and the truncation flag are
        the tuple executor's. Steals move only ready tasks, so packed
        loads are packed ready plus packed running at the leaves.

        The cap: rows stay sorted by state, and a depth whose expansion
        would exceed :data:`_ROW_CAP` rows before dedup splits its
        states into slices. A single state is never split. Slices run
        lowest state first, so each state's leaves come out together,
        ascending.

        Returns ``(state_indices, packed_values, truncated, rows)``:
        each state's successors, duplicate-free and ascending, mapped
        back to their source state, in state order; plus the rows
        materialised before dedup, summed over depths, the root's one
        row per state included.
        """
        n = self.codec.n_cores
        m = len(group)
        sub = intents[group]
        # Exactly k thief rows per state, ascending within each row.
        _, tcol = np.nonzero(sub.any(axis=2))
        thieves = tcol.reshape(m, k)
        # Victims of thief column j in state s, ascending and padded:
        # vic[s, j, i] for i < n_vic[s, j]; flattened for 1-D gathers.
        admits = sub[np.arange(m)[:, None], thieves]
        n_vic = admits.sum(axis=2).reshape(-1)
        vic = np.argsort(~admits, axis=2, kind="stable").reshape(-1)
        thief_f = thieves.reshape(-1)
        run_f = running[group].reshape(-1)
        packed_running = self.codec.pack_array(running[group])
        n_orders = math.factorial(k)
        truncated = n_orders > self.max_orders
        dag = _order_dag(k, min(n_orders, self.max_orders))
        shifts, weights, digit = self._shifts, self._weights, self._digit
        # Flat strides of the 4-D step table for 1-D gathers below.
        dim_b, dim_c, dim_d = self._step.shape[1:]
        step_flat = self._step.reshape(-1)

        leaf_state: list[Any] = []
        leaf_ready: list[Any] = []
        rows = m  # the root depth: one row per state
        stack = [(0, np.arange(m), np.zeros(m, dtype=np.int64),
                  self.codec.pack_array(ready[group]))]
        while stack:
            depth, st, cls, rdy = stack.pop()
            if depth == k:
                leaf_state.append(st)
                leaf_ready.append(rdy)
                continue
            offsets, cols, dsts = dag[depth]
            # Rows x out-edges of their class.
            first = offsets[cls]
            deg = offsets[cls + 1] - first
            row_e = np.repeat(np.arange(len(st)), deg)
            ends = np.cumsum(deg)
            edge = np.arange(len(row_e)) + np.repeat(first - ends + deg, deg)
            tj = st[row_e] * k + cols[edge]
            fan = n_vic[tj]
            cum = np.cumsum(fan)
            total = int(cum[-1])
            if total > self._ROW_CAP and st[-1] != st[0]:
                # Slice at state boundaries: keys include the state, so
                # each slice dedups on its own.
                cuts = np.flatnonzero(st[1:] != st[:-1]) + 1
                state_end = np.append(cuts, len(st))
                cum_end = cum[ends[state_end - 1] - 1]
                slices = []
                lo = 0
                while lo < len(state_end):
                    before = int(cum_end[lo - 1]) if lo else 0
                    hi = int(np.searchsorted(
                        cum_end, before + self._ROW_CAP, side="right"
                    ))
                    hi = min(max(hi, lo + 1), len(state_end))
                    a = int(state_end[lo - 1]) if lo else 0
                    b = int(state_end[hi - 1])
                    slices.append((depth, st[a:b], cls[a:b], rdy[a:b]))
                    lo = hi
                # Lowest states on top: leaves come out in state order.
                stack.extend(reversed(slices))
                continue
            rows += total
            # Out-edges x victims of the edge's thief.
            edge_v = np.repeat(np.arange(len(row_e)), fan)
            pos = np.arange(total) - np.repeat(cum - fan, fan)
            tj = tj[edge_v]
            src = row_e[edge_v]
            s = st[src]
            t = thief_f[tj]
            v = vic[tj * n + pos]
            r = rdy[src]
            qt = (r >> shifts[t]) & digit
            qv = (r >> shifts[v]) & digit
            # Merged re-check + clamp (see ``_step``): filtered pairs
            # and non-positive amounts move nothing, and no steal moves
            # more than the victim's ready count.
            idx = (run_f[s * n + t] * dim_b + run_f[s * n + v]) * dim_c
            idx += qt
            idx *= dim_d
            idx += qv
            moved = np.minimum(step_flat[idx], qv)
            r += moved * (weights[t] - weights[v])
            # One row per (state, class, ready): sort one int64 key
            # (state offset, class, rank of the ready vector) and keep
            # first occurrences. Ranking the ready vectors keeps the key
            # width-free: every field is bounded by this depth's row
            # count or the DAG's class count, never by the codec.
            n_cls = int(dsts.max()) + 1
            s0 = st[0]
            ready_vals, key = np.unique(r, return_inverse=True)
            n_r = len(ready_vals)
            key += ((s - s0) * n_cls + dsts[edge[edge_v]]) * n_r
            key.sort()
            keep = np.empty(total, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
            high, low = np.divmod(key, n_r)
            s_hi, c = np.divmod(high, n_cls)
            stack.append((depth + 1, s0 + s_hi, c, ready_vals[low]))
        st = np.concatenate(leaf_state)
        return (
            group[st],
            np.concatenate(leaf_ready) + packed_running[st],
            truncated,
            rows,
        )
