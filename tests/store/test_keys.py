"""The keying discipline: semantically equal requests share a key,
result-changing differences never do."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineSpec, VerificationRequest, with_engine
from repro.store import (
    STORE_FORMAT,
    canonical_key_json,
    key_document,
    proof_key,
    proof_request,
    store_key,
    subsumes,
)

from tests.conftest import host_cpu_counts


def prove_request(**kwargs):
    builder = VerificationRequest.builder("prove")
    builder.policy(kwargs.pop("policy", "balance_count"),
                   margin=kwargs.pop("margin", 2),
                   seed=kwargs.pop("seed", 0))
    for name, value in kwargs.items():
        getattr(builder, name)(value)
    return builder.build()


class TestKeyShape:
    def test_key_is_sha256_hex(self):
        key = store_key(prove_request())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_key_json(prove_request())
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True,
                          separators=(",", ":")) == text
        assert parsed["format"] == STORE_FORMAT

    def test_key_document_resolves_effective_defaults(self):
        document = key_document(prove_request())
        assert document["scope"] == {"cores": 3, "max_load": 3}
        assert document["max_orders"] == 5040
        assert document["choice_mode"] == "all"
        assert "engine" not in document  # serial is the absence


class TestSemanticInvariance:
    def test_explicit_defaults_key_like_omitted_ones(self):
        implicit = prove_request()
        explicit = (VerificationRequest.builder("prove")
                    .policy("balance_count", margin=2, seed=0)
                    .scope(cores=3, max_load=3)
                    .max_orders(5040)
                    .choice_mode("all")
                    .build())
        assert store_key(implicit) == store_key(explicit)

    def test_flat_topology_keys_like_no_topology(self):
        assert store_key(prove_request(topology="flat")) \
            == store_key(prove_request())

    def test_topology_spelling_is_canonicalised(self):
        assert store_key(prove_request(topology="NUMA:2x2")) \
            == store_key(prove_request(topology="numa:2x2"))

    def test_pool_with_one_job_keys_as_serial(self):
        pooled = with_engine(prove_request(),
                             EngineSpec(kind="pool", jobs=1))
        assert store_key(pooled) == store_key(prove_request())

    def test_equal_shard_counts_share_a_key(self):
        # --jobs N and --distributed N are byte-identical (the
        # engine-equivalence tests pin it), so they share entries —
        # however the N workers are reached.
        pooled = with_engine(prove_request(),
                             EngineSpec(kind="pool", jobs=2))
        spawned = with_engine(prove_request(),
                              EngineSpec(kind="distributed", workers=2))
        in_process = with_engine(
            prove_request(),
            EngineSpec(kind="distributed", workers=2, in_process=True),
        )
        endpoints = with_engine(
            prove_request(),
            EngineSpec(kind="distributed",
                       endpoints=("10.0.0.5:7070", "10.0.0.6:7070")),
        )
        keys = {store_key(r) for r in (pooled, spawned, in_process,
                                       endpoints)}
        assert len(keys) == 1

    def test_jobs_zero_persists_machine_independently(self, monkeypatch):
        # jobs=0 resolves to this machine's CPU count; the stored
        # spelling must embed the resolved value so re-hash
        # verification gives the same answer on every host.
        from repro.store import storage_request

        auto = with_engine(prove_request(),
                           EngineSpec(kind="pool", jobs=0))
        for cpus in host_cpu_counts(monkeypatch):
            persisted = storage_request(auto)
            assert store_key(persisted) == store_key(auto)
            if cpus == 1:
                assert persisted.engine == EngineSpec()
            else:
                assert persisted.engine == EngineSpec(kind="pool",
                                                      jobs=cpus)

    def test_entries_for_jobs_zero_survive_reverification(self, tmp_path,
                                                         monkeypatch):
        from repro.api import (
            LevelCompleted,
            ResultReused,
            Session,
            StatesExplored,
        )
        from repro.store import FileStore

        auto = with_engine(prove_request(),
                           EngineSpec(kind="pool", jobs=0))
        for cpus in host_cpu_counts(monkeypatch):
            store = FileStore(tmp_path / f"cpus-{cpus}")
            Session(store=store).run(auto)
            report = store.verify_integrity()
            assert report.kept == 1 and report.evicted == ()
            # A proved result lives at the engine-normalised proof key,
            # whatever jobs=0 resolved to on this host...
            assert store.load(proof_key(auto)) is not None
            # ...and a warm re-run is served from there, exploring
            # nothing.
            events = []
            Session(store=store, subscribers=[events.append]).run(auto)
            reused = [e for e in events if isinstance(e, ResultReused)]
            assert [e.key for e in reused] == [proof_key(auto)]
            assert not [e for e in events
                        if isinstance(e, (LevelCompleted, StatesExplored))]

    def test_endpoint_addresses_do_not_change_the_key(self):
        # A worker fleet reconnecting on new OS-assigned ports keeps
        # hitting its entries: the coverage class is the count.
        before = with_engine(
            prove_request(),
            EngineSpec(kind="distributed",
                       endpoints=("127.0.0.1:40787", "127.0.0.1:40788")),
        )
        after = with_engine(
            prove_request(),
            EngineSpec(kind="distributed",
                       endpoints=("127.0.0.1:50001", "127.0.0.1:50002")),
        )
        assert store_key(before) == store_key(after)

    def test_zoo_order_cap_default_is_resolved(self):
        implicit = VerificationRequest.builder("zoo").build()
        explicit = (VerificationRequest.builder("zoo")
                    .max_orders(720).scope(cores=3, max_load=3).build())
        assert store_key(implicit) == store_key(explicit)

    def test_campaign_budgets_are_resolved(self):
        implicit = (VerificationRequest.builder("campaign")
                    .policy("balance_count").build())
        explicit = (VerificationRequest.builder("campaign")
                    .policy("balance_count")
                    .campaign(machines=50, max_cores=12, rounds=30,
                              seed=0)
                    .scope(max_load=8)
                    .build())
        assert store_key(implicit) == store_key(explicit)


class TestKeySeparation:
    def test_margin_changes_the_key(self):
        assert store_key(prove_request(margin=2)) \
            != store_key(prove_request(margin=3))

    def test_scope_changes_the_key(self):
        wider = (VerificationRequest.builder("prove")
                 .policy("balance_count").scope(max_load=4).build())
        assert store_key(prove_request()) != store_key(wider)

    def test_kind_changes_the_key(self):
        hunt = (VerificationRequest.builder("hunt")
                .policy("balance_count").scope(max_load=3).build())
        assert store_key(prove_request()) != store_key(hunt)

    def test_engine_coverage_class_changes_the_key(self):
        # Deliberate: refuted-sweep states_checked and campaign
        # coverage depend on the shard count, so entries are keyed per
        # coverage class (docs/store.md explains the trade-off).
        pooled = with_engine(prove_request(),
                             EngineSpec(kind="pool", jobs=2))
        assert store_key(pooled) != store_key(prove_request())
        wider = with_engine(prove_request(),
                            EngineSpec(kind="pool", jobs=4))
        assert store_key(pooled) != store_key(wider)

    def test_single_distributed_worker_keys_as_serial(self):
        # One shard is the serial path whoever provides it:
        # make_campaign_tasks returns the unsharded master config at
        # one shard, and CI diffs --distributed 1 against serial.
        lone = with_engine(prove_request(),
                           EngineSpec(kind="distributed", workers=1))
        assert store_key(lone) == store_key(prove_request())

    def test_choice_mode_changes_the_key(self):
        assert store_key(prove_request(choice_mode="policy")) \
            != store_key(prove_request())

    def test_topology_changes_the_key(self):
        numa = (VerificationRequest.builder("prove")
                .policy("balance_count").topology("numa:2x2").build())
        mesh = (VerificationRequest.builder("prove")
                .policy("balance_count").topology("mesh:2x2").build())
        assert store_key(numa) != store_key(mesh)

    def test_campaign_seed_changes_the_key(self):
        one = (VerificationRequest.builder("campaign")
               .policy("balance_count").campaign(seed=1).build())
        two = (VerificationRequest.builder("campaign")
               .policy("balance_count").campaign(seed=2).build())
        assert store_key(one) != store_key(two)


# -- the property: builder-call order is irrelevant -------------------------

_SETTER_VALUES = {
    "scope": {"cores": 3, "max_load": 2},
    "max_orders": 720,
    "choice_mode": "policy",
    "no_symmetry": True,
    "topology": "numa:2x2",
}


def _apply(builder, setter):
    value = _SETTER_VALUES[setter]
    if setter == "scope":
        builder.scope(max_load=value["max_load"])
    else:
        getattr(builder, setter)(value)


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(sorted(_SETTER_VALUES)),
    margin=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=3),
    used=st.sets(st.sampled_from(sorted(_SETTER_VALUES))),
)
def test_store_key_is_invariant_under_builder_call_order(
        order, margin, seed, used):
    """The satellite property: however the builder calls are ordered,
    the same request fields hash to the same address."""
    def build(setter_order):
        builder = VerificationRequest.builder("prove")
        builder.policy("balance_count", margin=margin, seed=seed)
        for setter in setter_order:
            if setter in used:
                _apply(builder, setter)
        return builder.build()

    reference = build(sorted(_SETTER_VALUES))
    shuffled = build(order)
    assert shuffled == reference
    assert store_key(shuffled) == store_key(reference)


class TestProofKeys:
    """Engine-normalised addresses for proved entries, and when one
    proof may answer a smaller request."""

    def test_proof_request_strips_the_engine(self):
        pooled = with_engine(prove_request(),
                             EngineSpec(kind="pool", jobs=4))
        assert proof_request(pooled).engine == EngineSpec()
        assert proof_request(pooled) == prove_request()

    def test_proof_request_is_identity_on_serial(self):
        request = prove_request()
        assert proof_request(request) is request

    def test_every_engine_shape_shares_one_proof_key(self):
        serial = prove_request()
        keys = {
            proof_key(serial),
            proof_key(with_engine(serial, EngineSpec(kind="pool",
                                                     jobs=2))),
            proof_key(with_engine(serial, EngineSpec(kind="pool",
                                                     jobs=8))),
            proof_key(with_engine(serial, EngineSpec(kind="distributed",
                                                     workers=3))),
        }
        assert keys == {store_key(serial)}

    def test_wider_load_scope_subsumes_narrower(self):
        wide = (VerificationRequest.builder("prove")
                .policy("balance_count").scope(cores=3, max_load=4)
                .build())
        narrow = (VerificationRequest.builder("prove")
                  .policy("balance_count").scope(cores=3, max_load=2)
                  .build())
        assert subsumes(wide, narrow)
        assert subsumes(wide, wide)
        assert not subsumes(narrow, wide)

    def test_higher_order_cap_subsumes_lower(self):
        generous = (VerificationRequest.builder("prove")
                    .policy("balance_count").scope(cores=3, max_load=2)
                    .max_orders(10_000).build())
        tight = (VerificationRequest.builder("prove")
                 .policy("balance_count").scope(cores=3, max_load=2)
                 .max_orders(100).build())
        assert subsumes(generous, tight)
        assert not subsumes(tight, generous)

    def test_different_core_counts_never_subsume(self):
        # More cores is NOT a superset scope: thief/victim structure
        # changes, so neither direction transfers.
        three = prove_request()
        four = (VerificationRequest.builder("prove")
                .policy("balance_count").scope(cores=4, max_load=3)
                .build())
        assert not subsumes(four, three)
        assert not subsumes(three, four)

    def test_policy_differences_never_subsume(self):
        wide = (VerificationRequest.builder("prove")
                .policy("balance_count", margin=3)
                .scope(cores=3, max_load=4).build())
        narrow = prove_request()  # margin=2
        assert not subsumes(wide, narrow)

    def test_only_prove_requests_subsume(self):
        hunt_wide = (VerificationRequest.builder("hunt")
                     .policy("balance_count").scope(cores=3, max_load=4)
                     .build())
        hunt_narrow = (VerificationRequest.builder("hunt")
                       .policy("balance_count").scope(cores=3, max_load=2)
                       .build())
        assert not subsumes(hunt_wide, hunt_narrow)

    def test_subsumption_ignores_engine_spelling(self):
        wide = with_engine(
            (VerificationRequest.builder("prove")
             .policy("balance_count").scope(cores=3, max_load=4)
             .build()),
            EngineSpec(kind="pool", jobs=2))
        narrow = prove_request()
        assert subsumes(wide, narrow)
