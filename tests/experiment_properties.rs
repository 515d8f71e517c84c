//! Property-based integration tests over the experiment machinery.

use proptest::prelude::*;
use spa::prelude::*;
use spa::synth::eit::AnswerSimulator;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The messaging case analysis is total: any combination of product
    /// attributes and sensibilities yields exactly one of the four §5.3
    /// cases, and the chosen attribute is always a member of both sets.
    #[test]
    fn messaging_case_analysis_is_total(
        product_bits in 1u16..1024,
        sens_bits in 0u16..1024,
        strengths in proptest::collection::vec(0.6f64..1.0, 10),
        priority_policy in proptest::bool::ANY,
    ) {
        use spa::core::messaging::MessagingAgent;
        let product: Vec<EmotionalAttribute> = EMOTIONAL_ATTRIBUTES
            .into_iter()
            .enumerate()
            .filter(|(i, _)| product_bits & (1 << i) != 0)
            .map(|(_, e)| e)
            .collect();
        let mut sens: Vec<(EmotionalAttribute, f64)> = EMOTIONAL_ATTRIBUTES
            .into_iter()
            .enumerate()
            .filter(|(i, _)| sens_bits & (1 << i) != 0)
            .map(|(i, e)| (e, strengths[i]))
            .collect();
        sens.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let policy = if priority_policy { MessagePolicy::Priority } else { MessagePolicy::MaxSensibility };
        let agent = MessagingAgent::new(MessageCatalog::standard_catalog("X"), policy);
        let msg = agent.assign(&product, &sens).unwrap();
        let n_matches = sens.iter().filter(|(e, _)| product.contains(e)).count();
        match n_matches {
            0 => {
                prop_assert_eq!(msg.case, AssignmentCase::Standard);
                prop_assert!(msg.attribute.is_none());
            }
            1 => {
                prop_assert_eq!(msg.case, AssignmentCase::SingleAttribute);
            }
            _ => {
                prop_assert!(matches!(
                    msg.case,
                    AssignmentCase::PriorityOrder | AssignmentCase::MaxSensibility
                ));
            }
        }
        if let Some(chosen) = msg.attribute {
            prop_assert!(product.contains(&chosen));
            prop_assert!(sens.iter().any(|(e, _)| *e == chosen));
        }
        prop_assert_eq!(msg.matches.len(), n_matches);
    }

    /// SUM estimates never escape [0, 1] under arbitrary interleavings
    /// of EIT answers, rewards and punishments.
    #[test]
    fn sum_values_stay_in_unit_interval(
        ops in proptest::collection::vec((0u8..3, 0usize..10, -1.0f64..1.0), 1..60),
    ) {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema);
        let user = UserId::new(1);
        let ids = schema.emotional_ids();
        for (op, ordinal, v) in ops {
            registry.with_model(user, |model| {
                let attr = ids[ordinal];
                match op {
                    0 => model.apply_eit_answer(attr, ordinal, Valence::new(v)).unwrap(),
                    1 => model.reward(&[attr]).unwrap(),
                    _ => model.punish(&[attr]).unwrap(),
                }
            });
        }
        let model = registry.get(user).unwrap();
        for &attr in &ids {
            let value = model.value(attr);
            prop_assert!((0.0..=1.0).contains(&value), "value {} out of range", value);
            let relevance = model.relevance(attr);
            prop_assert!((0.0..=1.0).contains(&relevance));
        }
    }

    /// The EIT scheduler keeps per-attribute answer counts within one of
    /// each other no matter how many contacts happen (even coverage).
    #[test]
    fn eit_scheduler_balances_coverage(contacts in 1usize..80, seed in 0u64..500) {
        let population = Population::generate(PopulationConfig {
            n_users: 1,
            seed,
            mean_eit_response: 1.0,
            ..Default::default()
        }).unwrap();
        let courses = CourseCatalog::generate(5, 2, seed).unwrap();
        let spa = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
        let user = population.users().next().unwrap();
        let sim = AnswerSimulator { noise: 0.0, seed };
        for round in 0..contacts {
            let q = spa.next_eit_question(user.id);
            let event = sim.react(user, q.id, q.target, round as u64, Timestamp::from_millis(0));
            spa.ingest(&event).unwrap();
        }
        if let Some(model) = spa.model(user.id) {
            let counts = model.eit_answer_counts();
            let lo = counts.iter().min().unwrap();
            let hi = counts.iter().max().unwrap();
            prop_assert!(hi - lo <= 1, "uneven coverage: {:?}", counts);
        }
    }

    /// Campaign outcomes are invariant under re-running with the same
    /// seeds (full determinism across the platform + simulator stack).
    #[test]
    fn campaigns_are_reproducible(seed in 0u64..50) {
        let population = Population::generate(PopulationConfig {
            n_users: 120,
            seed,
            ..Default::default()
        }).unwrap();
        let courses = CourseCatalog::generate(8, 3, seed).unwrap();
        let response = ResponseModel::new(ResponseConfig { seed, ..Default::default() });
        let runner = CampaignRunner::new(&population, &response);
        let spec = CampaignSpec {
            id: CampaignId::new(5),
            channel: Channel::Push,
            target_size: 60,
            course: courses.course(CourseId::new(0)).unwrap().clone(),
            at: Timestamp::from_millis(0),
            seed,
        };
        let run = || {
            let spa = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
            runner.run(&spa, &spec, |_, _, _| 0.0).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.responses, b.responses);
        prop_assert_eq!(a.contacts, b.contacts);
    }
}
