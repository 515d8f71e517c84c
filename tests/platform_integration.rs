//! Cross-crate integration tests: the full SPA pipeline from raw
//! LifeLog events through storage, learning and messaging.

use spa::prelude::*;
use spa::store::log::LogConfig;
use spa::synth::eit::AnswerSimulator;
use spa::synth::weblog::{self, WeblogConfig};

/// A single-node world: one shard, no write-ahead log.
fn world(n_users: usize) -> (Population, CourseCatalog, ActionCatalog, ShardedSpa) {
    let population =
        Population::generate(PopulationConfig { n_users, ..Default::default() }).unwrap();
    let courses = CourseCatalog::generate(30, 6, 9).unwrap();
    let actions = ActionCatalog::emagister();
    let spa = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
    (population, courses, actions, spa)
}

/// The registry of the world's one engine — every model lives there.
fn registry(spa: &ShardedSpa) -> &SumRegistry {
    spa.shard(ShardId::new(0)).registry()
}

#[test]
fn weblogs_flow_through_event_log_into_the_platform() {
    let (population, courses, actions, spa) = world(200);
    // persist raw events through the durable log, then replay into SPA —
    // the off-line pre-processing path of §4
    let dir = std::env::temp_dir().join(format!("spa-int-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = EventLog::open(&dir, LogConfig::default()).unwrap();
    let stats = weblog::generate_weblogs(
        &population,
        &actions,
        &courses,
        &WeblogConfig { mean_sessions: 3.0, ..Default::default() },
        |event| log.append(event).unwrap(),
    )
    .unwrap();
    log.flush().unwrap();
    let replayed: Vec<_> = EventLog::replay_iter(&dir).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(replayed.len() as u64, stats.events);
    spa.ingest_batch(replayed.iter()).unwrap();
    let processed = spa.stats();
    assert_eq!(processed.actions + processed.transactions, stats.events);
    assert!(!registry(&spa).is_empty(), "models materialized from the log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sensibility_index_agrees_with_the_messaging_agent() {
    let (population, _courses, _actions, spa) = world(300);
    let sim = AnswerSimulator { noise: 0.02, seed: 7 };
    for round in 0..20u64 {
        for user in population.users() {
            let q = spa.next_eit_question(user.id);
            let event = sim.react(user, q.id, q.target, round, Timestamp::from_millis(round));
            spa.ingest(&event).unwrap();
        }
    }
    // a single-appeal message is standard exactly when the user's model
    // holds that attribute under the sensibility threshold (§5.3 step 3);
    // a user who never answered has no model and reads as 0 everywhere
    let threshold = registry(&spa).config().sensibility_threshold;
    let emotional_ids = spa.schema().emotional_ids();
    let mut checked = 0;
    for user in population.users().take(100) {
        let model = spa.model(user.id);
        for (ordinal, emo) in EMOTIONAL_ATTRIBUTES.into_iter().enumerate() {
            let message = spa.assign_message(user.id, &[emo]).unwrap();
            let value = model.as_ref().map_or(0.0, |m| m.value(emotional_ids[ordinal]));
            let sensitive = value >= threshold;
            match message.case {
                AssignmentCase::Standard => assert!(!sensitive, "{} {emo}", user.id),
                _ => assert!(sensitive, "{} {emo}", user.id),
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 1000);
}

#[test]
fn selection_function_beats_random_targeting_end_to_end() {
    let (population, courses, _actions, spa) = world(1200);
    for user in population.users() {
        spa.import_objective(user.id, &user.objective).unwrap();
    }
    let sim = AnswerSimulator::default();
    for round in 0..12u64 {
        for user in population.users() {
            let q = spa.next_eit_question(user.id);
            let event = sim.react(user, q.id, q.target, round, Timestamp::from_millis(round));
            spa.ingest(&event).unwrap();
        }
    }
    let response = ResponseModel::new(ResponseConfig::default())
        .calibrate_mixed(&population, 0.21, 0.2)
        .unwrap();
    let runner = CampaignRunner::new(&population, &response);
    // one training campaign
    let spec = CampaignSpec {
        id: CampaignId::new(1),
        channel: Channel::Push,
        target_size: 600,
        course: courses.course(CourseId::new(0)).unwrap().clone(),
        at: Timestamp::from_millis(0),
        seed: 99,
    };
    let mut rows = Vec::new();
    let outcome = runner
        .run(&spa, &spec, |spa, user, _message| {
            rows.push(spa.advice_row(user).unwrap());
            f64::NAN
        })
        .unwrap();
    let mut data = Dataset::new(75);
    for (row, contact) in rows.iter().zip(outcome.contacts.iter()) {
        data.push(row, if contact.responded { 1.0 } else { -1.0 }).unwrap();
    }
    let mut selection = SelectionFunction::with_imbalance(75, 4.0);
    selection.fit(&data).unwrap();
    // evaluation campaign scored by the model
    let spec2 = CampaignSpec { id: CampaignId::new(2), seed: 77, ..spec };
    let outcome2 = runner
        .run(&spa, &spec2, |spa, user, _message| {
            selection.score(&spa.advice_row(user).unwrap()).unwrap()
        })
        .unwrap();
    let labels: Vec<f64> =
        outcome2.contacts.iter().map(|c| if c.responded { 1.0 } else { -1.0 }).collect();
    let scores: Vec<f64> = outcome2.contacts.iter().map(|c| c.score).collect();
    let auc = spa::ml::metrics::roc_auc(&labels, &scores).unwrap();
    assert!(auc > 0.6, "end-to-end propensity AUC {auc} barely beats random");
    let gains = spa::ml::metrics::gains_curve(&labels, &scores, 50).unwrap();
    let at40 = spa::ml::metrics::captured_at(&gains, 0.4);
    assert!(at40 > 0.45, "captured at 40% = {at40}");
}

#[test]
fn cf_baselines_run_on_the_synthetic_interaction_matrix() {
    // build a user×course interaction matrix from weblogs and check the
    // kNN baselines produce sane recommendations on it
    let (population, courses, actions, _spa) = world(250);
    let mut matrix = CsrMatrix::new(courses.len());
    let mut per_user: std::collections::HashMap<u32, std::collections::HashMap<u32, f64>> =
        std::collections::HashMap::new();
    weblog::generate_weblogs(
        &population,
        &actions,
        &courses,
        &WeblogConfig { mean_sessions: 5.0, ..Default::default() },
        |event| {
            let course = match &event.kind {
                EventKind::Action { course: Some(c), .. } => Some(*c),
                EventKind::Transaction { course, .. } => Some(*course),
                _ => None,
            };
            if let Some(c) = course {
                *per_user.entry(event.user.raw()).or_default().entry(c.raw()).or_insert(0.0) += 1.0;
            }
        },
    )
    .unwrap();
    let mut user_row: Vec<u32> = Vec::new();
    for id in 0..population.len() as u32 {
        let pairs: Vec<(u32, f64)> = per_user
            .get(&id)
            .map(|m| {
                let mut v: Vec<(u32, f64)> = m.iter().map(|(&c, &n)| (c, n)).collect();
                v.sort_unstable_by_key(|&(c, _)| c);
                v
            })
            .unwrap_or_default();
        let row = SparseVec::from_pairs(courses.len(), pairs).unwrap();
        matrix.push_row(&row).unwrap();
        user_row.push(id);
    }
    let knn =
        spa::ml::knn::UserKnn::new(matrix.clone(), 10, spa::ml::knn::Similarity::Cosine).unwrap();
    // find an active user and check recommendations exclude seen items
    let active = (0..matrix.rows()).max_by_key(|&r| matrix.row(r).nnz()).unwrap();
    let recs = knn.recommend(active, 5).unwrap();
    let seen = matrix.row_vec(active);
    for (item, score) in recs {
        assert_eq!(seen.get(item), 0.0, "recommended an already-seen course");
        assert!(score > 0.0);
    }
    let pop = spa::ml::knn::Popularity::fit(&matrix);
    assert!(!pop.top(3).is_empty());
}
