//! Property tests for the sharded OEM store (satellites of the MVCC
//! subsystem):
//!
//! 1. Partitioning a materialised ANNODA-GML into **any** shard count
//!    and reassembling it yields the same canonical bytes as a
//!    single-shard partition, and every fragment read through the
//!    router resolves to the same bytes regardless of the shard count
//!    — sharding is invisible to readers.
//! 2. Concurrent transactions follow first-writer-wins per shard:
//!    writers whose staged deltas land on disjoint shards both commit
//!    (and both changes survive assembly), while writers overlapping
//!    on a shard produce exactly one conflict abort.

use std::sync::Arc;

use proptest::prelude::*;

use annoda::{Annoda, CommitError, ShardedGml};
use annoda_oem::{OemStore, ShardRouter, ShardedStore};
use annoda_persist::{encode_fragment, encode_store};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::LocusLinkWrapper;

const GML_ROOT: &str = "ANNODA-GML";

fn corpus(seed: u64) -> Corpus {
    Corpus::generate(CorpusConfig::tiny(seed))
}

fn annoda_over(c: &Corpus) -> Annoda {
    let (a, _) = Annoda::over_sources(c.locuslink.clone(), c.go.clone(), c.omim.clone());
    a
}

fn materialize(a: &Annoda) -> OemStore {
    let (gml, _cost) = a.mediator().materialize_gml().expect("materialize");
    gml
}

/// Materialises the corpus with one locus description rewritten;
/// returns the store and the symbol the rewrite is keyed under.
fn materialize_with_rewrite(c: &Corpus, locus_index: usize, desc: &str) -> (OemStore, String) {
    let mut a = annoda_over(c);
    let record = c
        .locuslink
        .scan()
        .nth(locus_index)
        .expect("locus index in range");
    let w = a
        .registry_mut()
        .mediator_mut()
        .wrapper_mut("LocusLink")
        .expect("LocusLink plugged")
        .as_any_mut()
        .downcast_mut::<LocusLinkWrapper>()
        .expect("native wrapper type");
    w.db_mut()
        .by_id_mut(record.locus_id)
        .expect("record exists")
        .description = desc.to_string();
    // The mediator serves from its plugged harvest until the source is
    // re-pulled; without this the rewrite never reaches the GML.
    a.registry_mut()
        .mediator_mut()
        .refresh_source("LocusLink")
        .expect("LocusLink plugged");
    (materialize(&a), record.symbol.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Partition → assemble is shard-count independent on the encoded
    /// store, and fragment reads through the router match a
    /// single-shard baseline byte-for-byte.
    #[test]
    fn partition_assemble_is_byte_identical(seed in 0u64..4, shards in 1usize..9) {
        let c = corpus(seed);
        let flat = materialize(&annoda_over(&c));

        // `assemble` canonicalises the root's edge order by
        // (label, key), so the invariant is shard-count independence:
        // any partitioning reassembles to the same bytes as the
        // single-shard canonical form.
        let baseline = ShardedStore::partition(&flat, GML_ROOT, 1).expect("baseline");
        let canonical = encode_store(&baseline.assemble());
        let sharded = ShardedStore::partition(&flat, GML_ROOT, shards).expect("partition");
        prop_assert_eq!(sharded.shard_count(), shards);
        prop_assert_eq!(
            sharded.total_objects(),
            (0..shards).map(|i| sharded.shard_objects(i)).sum::<usize>()
        );
        prop_assert_eq!(
            encode_store(&sharded.assemble()),
            canonical,
            "assemble(partition(flat, {})) must be shard-count independent",
            shards
        );

        // Fragment-level reads: every Gene/Annotation/Function the
        // corpus surfaces resolves through the router to the same
        // bytes a one-shard store serves.
        let router = ShardRouter::new(shards);
        let mut compared = 0usize;
        for record in c.locuslink.scan() {
            let mut keys: Vec<(&str, &str)> = vec![
                ("Gene", record.symbol.as_str()),
                ("Annotation", record.symbol.as_str()),
            ];
            keys.extend(record.go_ids.iter().map(|id| ("Function", id.as_str())));
            for (label, key) in keys {
                // Not every locus surfaces every fragment kind; what
                // the baseline holds, the sharded store must hold on
                // the routed shard with identical bytes — and nothing
                // more.
                let base = baseline.fragment(label, key);
                let routed = sharded.fragment(label, key);
                prop_assert_eq!(base.is_some(), routed.is_some(), "{} {}", label, key);
                let (Some((_, base_oid)), Some((shard, oid))) = (base, routed) else {
                    continue;
                };
                prop_assert_eq!(shard, router.route(key));
                prop_assert_eq!(
                    encode_fragment(sharded.shard(shard), oid),
                    encode_fragment(baseline.shard(0), base_oid),
                    "{} {} must read identically at {} shards",
                    label, key, shards
                );
                compared += 1;
            }
        }
        prop_assert!(compared > 0, "the corpus must surface fragments to compare");
    }

    /// A one-shard partition is already canonical: its single shard is
    /// byte-identical to its assembly, so serving the shard itself (as
    /// `ShardedStore::assembled_shard` does) serves the same bytes as
    /// assembling — also after a commit installs a staged partition.
    #[test]
    fn one_shard_partition_is_its_own_assembly(seed in 0u64..4, locus in 0usize..10) {
        let c = corpus(seed);
        let flat = materialize(&annoda_over(&c));
        let mut one = ShardedStore::partition(&flat, GML_ROOT, 1).expect("partition");
        let shard = one.assembled_shard().expect("a partition is canonical");
        prop_assert_eq!(encode_store(shard), encode_store(&one.assemble()));

        let (edited, _) = materialize_with_rewrite(&c, locus, "rewritten for the test");
        let staged = ShardedStore::partition(&edited, GML_ROOT, 1).expect("partition");
        one.adopt(0, &staged);
        let shard = one.assembled_shard().expect("an adopted partition shard is canonical");
        prop_assert_eq!(encode_store(shard), encode_store(&one.assemble()));

        // A shard installed from elsewhere (a replica or recovered
        // segment) promises nothing; the vector assembles it.
        one.install(0, Arc::new(edited));
        prop_assert!(one.assembled_shard().is_none());
    }

    /// First-writer-wins: two writers begun against the same pinned
    /// vector both commit when their deltas land on disjoint shards,
    /// and produce exactly one conflict when they overlap.
    #[test]
    fn concurrent_txns_conflict_only_on_shared_shards(
        seed in 0u64..4,
        shards in 1usize..9,
        first in 0usize..8,
        second in 0usize..8,
    ) {
        let c = corpus(seed);
        let base = materialize(&annoda_over(&c));
        let gml = ShardedGml::new(&base, GML_ROOT, shards).expect("shard the GML");

        let (store_a, symbol_a) = materialize_with_rewrite(&c, first, "writer A rewrote this");
        let (store_b, symbol_b) = materialize_with_rewrite(&c, second, "writer B rewrote this");
        let router = gml.router();
        let overlap = router.route(&symbol_a) == router.route(&symbol_b);

        // Both transactions pin the same epoch vector before either
        // commits — the race the MVCC layer exists to resolve.
        let mut txn_a = gml.begin();
        let mut txn_b = gml.begin();
        txn_a.stage(&store_a).expect("stage A");
        txn_b.stage(&store_b).expect("stage B");

        gml.commit(txn_a).expect("first writer always wins");
        let second_outcome = gml.commit(txn_b);
        let stats = gml.txn_stats();
        if overlap {
            match second_outcome {
                Err(CommitError::Conflict { shards: hit }) => {
                    prop_assert!(
                        hit.contains(&router.route(&symbol_b)),
                        "conflict must name the contended shard: {:?}",
                        hit
                    );
                }
                other => prop_assert!(false, "overlap must conflict, got {:?}", other.is_ok()),
            }
            prop_assert_eq!(stats.commits, 1);
            prop_assert_eq!(stats.conflicts, 1);
        } else {
            prop_assert!(second_outcome.is_ok(), "disjoint shards must not contend");
            prop_assert_eq!(stats.commits, 2);
            prop_assert_eq!(stats.conflicts, 0);
            // Neither commit clobbered the other: both rewrites are in
            // the assembled model.
            let (_, assembled) = gml.assembled();
            let bytes = encode_store(&assembled);
            let text = String::from_utf8_lossy(&bytes);
            prop_assert!(text.contains("writer A rewrote this"));
            prop_assert!(text.contains("writer B rewrote this"));
        }
    }
}
