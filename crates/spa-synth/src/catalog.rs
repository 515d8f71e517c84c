//! Action and course catalogs.
//!
//! §5.1: "The set of possible on-line user's actions on the web of
//! emagister.com was 984." The action catalog partitions that space into
//! the behavioural families the paper names (click streams, information
//! requirements, enrollments, opinions, …). The course catalog supplies
//! the items campaigns sell; each course is tagged with the product
//! attributes (including emotional attributes) that its sales messages
//! can appeal to (§5.3 step 1).

use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{ActionId, CourseId, EmotionalAttribute, Result, SpaError, EMOTIONAL_ATTRIBUTES};

/// Behavioural family of a catalogued action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Plain page view / navigation click.
    Browse,
    /// Catalogue search.
    Search,
    /// Request for information about a course — a "transaction" in the
    /// paper's counting.
    InfoRequest,
    /// Course enrollment — the strongest transaction.
    Enroll,
    /// Posting an opinion / rating.
    Opinion,
    /// Opening or clicking a push / newsletter message.
    MessageInteraction,
}

impl ActionKind {
    /// All families, in catalog order.
    pub const ALL: [ActionKind; 6] = [
        ActionKind::Browse,
        ActionKind::Search,
        ActionKind::InfoRequest,
        ActionKind::Enroll,
        ActionKind::Opinion,
        ActionKind::MessageInteraction,
    ];

    /// True for the families the paper counts as transactions
    /// ("click streams, information requirement …, enrollments,
    /// opinions" — §5.4 counts these as the actions campaigns elicit).
    pub(crate) fn is_transactional(self) -> bool {
        matches!(self, ActionKind::InfoRequest | ActionKind::Enroll | ActionKind::Opinion)
    }
}

/// The catalog of distinct on-line actions.
#[derive(Debug, Clone)]
pub struct ActionCatalog {
    kinds: Vec<ActionKind>,
    /// The actions of each family in id order, indexed by the family's
    /// position in [`ActionKind::ALL`]: built once, so biased sampling
    /// never scans the catalog.
    by_kind: [Vec<ActionId>; ActionKind::ALL.len()],
}

impl ActionCatalog {
    /// Paper-scale catalog: exactly 984 actions.
    pub(crate) const EMAGISTER_ACTIONS: usize = 984;

    /// Builds a catalog of `n` actions, spreading the behavioural
    /// families with realistic skew: browsing dominates, enrollments
    /// are rare.
    pub(crate) fn new(n: usize) -> Result<Self> {
        if n < ActionKind::ALL.len() {
            return Err(SpaError::Invalid(format!(
                "catalog needs at least {} actions",
                ActionKind::ALL.len()
            )));
        }
        // proportions: browse 55%, search 18%, info 12%, enroll 5%,
        // opinion 5%, message 5%
        let weights = [0.55, 0.18, 0.12, 0.05, 0.05, 0.05];
        let mut kinds = Vec::with_capacity(n);
        for (kind, w) in ActionKind::ALL.into_iter().zip(weights) {
            let count = ((n as f64 * w).round() as usize).max(1);
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        kinds.truncate(n);
        while kinds.len() < n {
            kinds.push(ActionKind::Browse);
        }
        let mut by_kind: [Vec<ActionId>; ActionKind::ALL.len()] = Default::default();
        for (i, &kind) in kinds.iter().enumerate() {
            by_kind[kind as usize].push(ActionId::new(i as u32));
        }
        Ok(Self { kinds, by_kind })
    }

    /// The emagister-scale catalog (984 actions).
    pub fn emagister() -> Self {
        Self::new(Self::EMAGISTER_ACTIONS).expect("984 > 6")
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when empty (constructors prevent this).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Family of one action.
    pub fn kind(&self, action: ActionId) -> Option<ActionKind> {
        self.kinds.get(action.index()).copied()
    }

    /// All actions of one family, in id order.
    pub fn actions_of(&self, kind: ActionKind) -> &[ActionId] {
        &self.by_kind[kind as usize]
    }

    /// Samples an action, biased toward the given family with
    /// probability `bias` (else uniform over the catalog).
    pub(crate) fn sample(&self, rng: &mut StdRng, prefer: ActionKind, bias: f64) -> ActionId {
        if rng.gen::<f64>() < bias {
            let pool = self.actions_of(prefer);
            if !pool.is_empty() {
                return pool[rng.gen_range(0..pool.len())];
            }
        }
        ActionId::new(rng.gen_range(0..self.kinds.len()) as u32)
    }
}

/// A training course offered through the Intelligent Learning Guide.
#[derive(Debug, Clone, PartialEq)]
pub struct Course {
    /// Course identifier.
    pub id: CourseId,
    /// Topic index (links courses to subjective topic affinities).
    pub topic: usize,
    /// Product attributes usable in this course's sales talk (§5.3
    /// step 1): the emotional attributes the course can appeal to.
    pub appeal: Vec<EmotionalAttribute>,
    /// Relative price level in `[0, 1]`.
    pub(crate) price_level: f64,
}

/// The course catalog.
#[derive(Debug, Clone)]
pub struct CourseCatalog {
    courses: Vec<Course>,
    n_topics: usize,
    /// The courses of each topic in id order, built once, so drawing a
    /// course of the user's topic never scans the catalog.
    by_topic: Vec<Vec<CourseId>>,
}

impl CourseCatalog {
    /// Generates `n` courses over `n_topics` topics, each appealing to
    /// 1–4 emotional attributes.
    pub fn generate(n: usize, n_topics: usize, seed: u64) -> Result<Self> {
        if n == 0 || n_topics == 0 {
            return Err(SpaError::Invalid("catalog needs courses and topics".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut courses = Vec::with_capacity(n);
        let mut by_topic = vec![Vec::new(); n_topics];
        for id in 0..n {
            let n_appeal = rng.gen_range(1..=4usize);
            let mut pool: Vec<EmotionalAttribute> = EMOTIONAL_ATTRIBUTES.to_vec();
            pool.shuffle(&mut rng);
            pool.truncate(n_appeal);
            pool.sort();
            let course = Course {
                id: CourseId::new(id as u32),
                topic: rng.gen_range(0..n_topics),
                appeal: pool,
                price_level: rng.gen(),
            };
            by_topic[course.topic].push(course.id);
            courses.push(course);
        }
        Ok(Self { courses, n_topics, by_topic })
    }

    /// Number of courses.
    pub fn len(&self) -> usize {
        self.courses.len()
    }

    /// True when empty (constructors prevent this).
    pub fn is_empty(&self) -> bool {
        self.courses.is_empty()
    }

    /// Number of topics.
    pub(crate) fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Lookup by id.
    pub fn course(&self, id: CourseId) -> Option<&Course> {
        self.courses.get(id.index())
    }

    /// Iterates over all courses.
    pub fn courses(&self) -> impl Iterator<Item = &Course> {
        self.courses.iter()
    }

    /// Ids of the courses in one topic, in id order (empty for a topic
    /// out of range).
    pub(crate) fn by_topic(&self, topic: usize) -> &[CourseId] {
        self.by_topic.get(topic).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emagister_catalog_has_984_actions() {
        let catalog = ActionCatalog::emagister();
        assert_eq!(catalog.len(), 984, "paper §5.1");
    }

    #[test]
    fn every_family_is_represented() {
        let catalog = ActionCatalog::emagister();
        for kind in ActionKind::ALL {
            assert!(!catalog.actions_of(kind).is_empty(), "{kind:?} missing");
        }
    }

    #[test]
    fn family_pools_are_the_catalog_in_id_order() {
        let catalog = ActionCatalog::emagister();
        for kind in ActionKind::ALL {
            let scanned: Vec<ActionId> = (0..catalog.len() as u32)
                .map(ActionId::new)
                .filter(|&a| catalog.kind(a) == Some(kind))
                .collect();
            assert_eq!(catalog.actions_of(kind), scanned.as_slice(), "{kind:?}");
        }
    }

    #[test]
    fn browse_dominates_enroll() {
        let catalog = ActionCatalog::emagister();
        assert!(
            catalog.actions_of(ActionKind::Browse).len()
                > 5 * catalog.actions_of(ActionKind::Enroll).len()
        );
    }

    #[test]
    fn kind_lookup_and_bounds() {
        let catalog = ActionCatalog::emagister();
        assert!(catalog.kind(ActionId::new(0)).is_some());
        assert!(catalog.kind(ActionId::new(984)).is_none());
    }

    #[test]
    fn transactional_families() {
        assert!(ActionKind::Enroll.is_transactional());
        assert!(ActionKind::InfoRequest.is_transactional());
        assert!(ActionKind::Opinion.is_transactional());
        assert!(!ActionKind::Browse.is_transactional());
        assert!(!ActionKind::Search.is_transactional());
    }

    #[test]
    fn tiny_catalogs_are_rejected() {
        assert!(ActionCatalog::new(3).is_err());
        assert!(ActionCatalog::new(6).is_ok());
    }

    #[test]
    fn biased_sampling_prefers_the_family() {
        let catalog = ActionCatalog::emagister();
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..500)
            .filter(|_| {
                let a = catalog.sample(&mut rng, ActionKind::Enroll, 0.9);
                catalog.kind(a) == Some(ActionKind::Enroll)
            })
            .count();
        // ~90% biased + ~0.5% uniform mass
        assert!(hits > 350, "only {hits}/500 enroll samples");
    }

    #[test]
    fn course_generation_is_deterministic_and_valid() {
        let a = CourseCatalog::generate(200, 12, 7).unwrap();
        let b = CourseCatalog::generate(200, 12, 7).unwrap();
        assert_eq!(a.len(), 200);
        assert_eq!(a.n_topics(), 12);
        for (ca, cb) in a.courses().zip(b.courses()) {
            assert_eq!(ca, cb);
            assert!((1..=4).contains(&ca.appeal.len()));
            assert!(ca.topic < 12);
            assert!((0.0..=1.0).contains(&ca.price_level));
            // appeal lists are deduplicated and sorted
            assert!(ca.appeal.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn course_lookup_and_topics() {
        let catalog = CourseCatalog::generate(100, 5, 1).unwrap();
        assert!(catalog.course(CourseId::new(99)).is_some());
        assert!(catalog.course(CourseId::new(100)).is_none());
        let total: usize = (0..5).map(|t| catalog.by_topic(t).len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn topic_pools_are_the_catalog_in_id_order() {
        let catalog = CourseCatalog::generate(100, 5, 1).unwrap();
        // topic 5 is out of range: its pool is empty
        for topic in 0..6 {
            let scanned: Vec<CourseId> =
                catalog.courses().filter(|c| c.topic == topic).map(|c| c.id).collect();
            assert_eq!(catalog.by_topic(topic), scanned.as_slice(), "topic {topic}");
        }
    }

    #[test]
    fn degenerate_course_configs_rejected() {
        assert!(CourseCatalog::generate(0, 5, 1).is_err());
        assert!(CourseCatalog::generate(5, 0, 1).is_err());
    }
}
