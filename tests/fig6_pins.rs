//! Exact pins of the Fig 6 run's inputs and outputs at fixed seeds.
//!
//! The other experiment tests switch the WebLog history off, so these
//! two are the ones that see the synthesized click stream: one pins the
//! stream `generate_weblogs` emits, event for event, and one pins the
//! whole `ExperimentResult` of a small run that ingests it. Both
//! digests are FNV-1a over `{:?}` renderings (an `f64` renders as its
//! shortest exact form), so any changed bit, count or order fails them.

use spa::prelude::*;
use spa::synth::weblog::{self, WeblogConfig};

/// FNV-1a (64-bit) folded over `bytes`, starting from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[test]
fn the_weblog_stream_is_pinned_at_a_fixed_seed() {
    let population =
        Population::generate(PopulationConfig { n_users: 300, seed: 21, ..Default::default() })
            .unwrap();
    let actions = ActionCatalog::emagister();
    let courses = CourseCatalog::generate(50, 8, 3).unwrap();
    let config = WeblogConfig { seed: 0x5EED, ..Default::default() };
    let mut digest = FNV_OFFSET;
    let stats = weblog::generate_weblogs(&population, &actions, &courses, &config, |event| {
        digest = fnv1a(digest, format!("{event:?}").as_bytes());
    })
    .unwrap();
    assert_eq!(
        (stats.events, digest),
        (42_192, 3_922_457_823_041_017_105),
        "events and stream digest"
    );
}

#[test]
fn a_run_that_ingests_weblogs_is_pinned() {
    let config = ExperimentConfig {
        n_users: 1500,
        n_courses: 30,
        n_topics: 6,
        ingest_weblogs: true,
        history_eit_rounds: 6,
        n_training_campaigns: 2,
        n_eval_campaigns: 4,
        target_fraction: 0.4,
        seed: 0xF16,
        ..Default::default()
    };
    let result = Experiment::new(config).unwrap().run().unwrap();
    let digest = fnv1a(FNV_OFFSET, format!("{result:?}").as_bytes());
    assert_eq!(
        (result.total_targets, digest),
        (2_400, 8_882_523_726_433_656_396),
        "contacts and result digest"
    );
}
