//! The deterministic counters repeat exactly for a seed, and a new seed
//! changes the inputs but not the set of counters.
//!
//! Run with `cargo test --release --manifest-path calbench/Cargo.toml`.

use calbench::decks;
use calbench::workloads::{counters, WORKLOADS};

#[test]
fn same_seed_same_counts_new_seed_same_names() {
    for workload in WORKLOADS {
        let first = counters(workload, 1).unwrap();
        let again = counters(workload, 1).unwrap();
        assert_eq!(
            first, again,
            "{workload}: counters differ between same-seed runs"
        );
        let other = counters(workload, 2).unwrap();
        assert_eq!(
            first.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "{workload}: a new seed changed the set of counters"
        );
        assert!(first.values().all(|v| v.is_finite() && *v >= 0.0));
    }
}

#[test]
fn a_new_seed_changes_the_inputs() {
    let texts = |seed| {
        decks::table1_pool(seed, 100, 16)
            .into_iter()
            .map(|c| c.text().map(str::to_string))
            .collect::<Vec<_>>()
    };
    assert_ne!(texts(1), texts(2));
    let reduce = |seed| {
        decks::reduce_pool(seed, 50, 1)[0]
            .text()
            .unwrap()
            .to_string()
    };
    assert_ne!(reduce(1), reduce(2));
    let small = |seed| {
        let mut rng = decks::Rng::new(seed, 5);
        decks::small_deck(&mut rng, 30, 30)
            .text()
            .unwrap()
            .to_string()
    };
    assert_ne!(small(1), small(2));
}
