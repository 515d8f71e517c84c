//! The end-to-end Fig 6 experiment.
//!
//! Pipeline (mirroring §5.2–§5.4):
//!
//! 1. **History build-up** — WebLogs are generated and ingested so SUMs
//!    acquire subjective attributes; objective attributes are imported
//!    from the (synthetic) socio-demographic database.
//! 2. **Training campaigns** — a few campaigns run with untrained
//!    scores; their outcomes label the training set for the selection
//!    function (features = advice-stage rows at contact time).
//! 3. **Selection training** — a class-weighted linear SVM learns to
//!    rank users by propensity. For the E7 ablation the emotional block
//!    is masked out of both training and scoring.
//! 4. **Evaluation campaigns** — ten campaigns (8 push + 2 newsletter),
//!    each targeting a random slice of the population. Contacts record
//!    the model score and the realized response, yielding:
//!    * Fig 6(a): the cumulative redemption (gains) curve over all
//!      contacts, read at 40% of commercial action;
//!    * Fig 6(b): per-campaign predictive scores and their mean;
//!    * the "90% improvement" comparison against generic (standard-
//!      message, unranked) marketing.

use crate::campaign::{CampaignOutcome, CampaignRunner, CampaignSpec, Channel};
use spa_core::platform::SpaConfig;
use spa_core::selection::SelectionFunction;
use spa_core::ShardedSpa;
use spa_linalg::RowView;
use spa_ml::metrics::{self, GainsPoint};
use spa_ml::Dataset;
use spa_synth::catalog::{ActionCatalog, CourseCatalog};
use spa_synth::weblog::{self, WeblogConfig};
use spa_synth::{Population, PopulationConfig, ResponseConfig, ResponseModel};
use spa_types::{AttributeId, CampaignId, CourseId, Result, SpaError, Timestamp, UserId};
use std::cell::RefCell;

/// Number of attributes in the non-emotional block (objective +
/// subjective) — the ablation keeps features below this index.
const NON_EMOTIONAL_DIM: u32 = 65;

/// One campaign-aware feature row, written in place by
/// [`Experiment::featurize`]: its buffers are reused from contact to
/// contact, so featurizing allocates nothing once they have grown.
#[derive(Default)]
struct FeatureRow {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl FeatureRow {
    fn view(&self, dim: usize) -> RowView<'_> {
        RowView::new(dim, &self.indices, &self.values)
    }
}

thread_local! {
    /// The feature row of the contacts this thread runs.
    static FEATURE_ROW: RefCell<FeatureRow> = RefCell::default();
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Population size (the paper had 3,162,069 registered users; the
    /// default keeps CI runtimes sane — scale up via examples/benches).
    pub n_users: usize,
    /// Course catalog size.
    pub n_courses: usize,
    /// Topic count.
    pub n_topics: usize,
    /// Whether to generate + ingest WebLog history first.
    pub ingest_weblogs: bool,
    /// Gradual-EIT warm-up contacts before any campaign (the paper's
    /// marketing strategy sent questions over many pushes before the
    /// measured campaigns; each contact carries one question, §5.2).
    pub history_eit_rounds: usize,
    /// Campaigns used purely to gather training labels.
    pub n_training_campaigns: usize,
    /// Evaluation campaigns (the paper ran 10: 8 push + 2 newsletters).
    pub n_eval_campaigns: usize,
    /// Fraction of the population targeted per campaign (the paper's
    /// 1,340,432 of 3,162,069 ≈ 0.424).
    pub target_fraction: f64,
    /// Calibration target for the mean matched response rate (the
    /// paper's Fig 6(b) average predictive score ≈ 0.21).
    pub response_target: f64,
    /// E7 ablation: mask the emotional attribute block everywhere.
    pub mask_emotional: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            n_users: 20_000,
            n_courses: 120,
            n_topics: 12,
            ingest_weblogs: true,
            history_eit_rounds: 18,
            n_training_campaigns: 4,
            n_eval_campaigns: 10,
            target_fraction: 0.424,
            response_target: 0.21,
            mask_emotional: false,
            seed: 0x1CDE,
        }
    }
}

/// One row of the Fig 6(b) table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignReport {
    /// Campaign number (1-based, as the paper charts them).
    pub(crate) number: usize,
    /// Channel.
    pub(crate) channel: Channel,
    /// Users targeted.
    pub(crate) targets: usize,
    /// Useful impacts (transactions).
    pub useful_impacts: usize,
    /// Predictive score = useful impacts / targets.
    pub(crate) predictive_score: f64,
    /// ROC-AUC of the selection scores within this campaign.
    pub(crate) auc: f64,
}

/// Everything the Fig 6 experiment measures.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-campaign rows (Fig 6b).
    pub campaigns: Vec<CampaignReport>,
    /// Mean predictive score across campaigns (paper: ≈ 21%).
    pub mean_predictive_score: f64,
    /// Total contacts across evaluation campaigns.
    pub total_targets: usize,
    /// Total useful impacts (paper: 282,938 at its scale).
    pub total_useful_impacts: usize,
    /// Cumulative redemption curve over all contacts (Fig 6a).
    pub gains: Vec<GainsPoint>,
    /// Useful-impact share captured at 40% of commercial action
    /// (paper: > 76%).
    pub captured_at_40: f64,
    /// ROC-AUC of the selection scores against realized responses.
    pub auc: f64,
    /// Expected response rate of generic marketing (standard message,
    /// no ranking) over the same audience.
    pub(crate) baseline_rate: f64,
    /// Realized SPA response rate over all contacts.
    pub spa_rate: f64,
    /// Relative redemption improvement over generic marketing
    /// (paper: "we have improved the redemption … in a 90%").
    pub redemption_improvement: f64,
}

/// The assembled experiment.
pub struct Experiment {
    config: ExperimentConfig,
    population: Population,
    courses: CourseCatalog,
    actions: ActionCatalog,
    response: ResponseModel,
}

impl Experiment {
    /// Generates the synthetic substrate for a configuration.
    pub fn new(config: ExperimentConfig) -> Result<Self> {
        if config.n_eval_campaigns == 0 {
            return Err(SpaError::Invalid("need at least one evaluation campaign".into()));
        }
        if !(0.0..=1.0).contains(&config.target_fraction) || config.target_fraction == 0.0 {
            return Err(SpaError::Invalid("target_fraction must be in (0,1]".into()));
        }
        let population = Population::generate(PopulationConfig {
            n_users: config.n_users,
            seed: config.seed,
            ..Default::default()
        })?;
        let courses =
            CourseCatalog::generate(config.n_courses, config.n_topics, config.seed ^ 0xC0)?;
        let actions = ActionCatalog::emagister();
        // Calibrate against the realistic campaign mix (empirically,
        // just over a third of contacts end up emotionally matched and
        // the matched attribute is not always the dominant one, so a
        // dominant-matched coverage of 0.35 reproduces the paper's ≈21%
        // realized rate; the Gradual EIT never reaches full coverage —
        // §5.2's sparsity).
        let response =
            ResponseModel::new(ResponseConfig { seed: config.seed ^ 0x0E5, ..Default::default() })
                .calibrate_mixed(&population, config.response_target, 0.35)?;
        Ok(Self { config, population, courses, actions, response })
    }

    /// The latent population (for inspection).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The calibrated latent response model.
    pub fn response(&self) -> &ResponseModel {
        &self.response
    }

    /// Campaign-aware feature row, written into `row`: the advice-stage
    /// row (its emotional block dropped under the E7 ablation) plus
    /// four *match features* at the schema's width and above — the
    /// maximum and mean estimated sensibility of the user for the
    /// campaign course's appeal attributes, the assigned message's
    /// estimate and a matched flag. The paper scores users per campaign
    /// ("ranking users to assess their propensity to accept a
    /// recommended item", §5.2), and the match features are exactly
    /// what a per-campaign model can see: how well this user's
    /// discovered emotional profile fits *this* course's sales talk.
    /// Under the E7 ablation they are zeroed along with the emotional
    /// block. `emotional_ids` is the schema's emotional block.
    fn featurize(
        &self,
        spa: &ShardedSpa,
        emotional_ids: &[AttributeId],
        user: UserId,
        appeal: &[spa_types::EmotionalAttribute],
        message: &spa_core::messaging::AssignedMessage,
        row: &mut FeatureRow,
    ) {
        row.indices.clear();
        row.values.clear();
        // the published row is copied straight out of its read guard;
        // its indices ascend, so the ablation keeps a prefix
        let keep_below = if self.config.mask_emotional { NON_EMOTIONAL_DIM } else { u32::MAX };
        spa.with_advice_row(user, |advice| {
            if let Some(advice) = advice {
                let kept = advice.indices().partition_point(|&i| i < keep_below);
                row.indices.extend_from_slice(&advice.indices()[..kept]);
                row.values.extend_from_slice(&advice.values()[..kept]);
            }
        });
        // one borrowed read of the user's model (under its registry
        // shard mutex) computes every match feature — no whole-model
        // clone per contact (this runs inside the per-campaign contact
        // fan-out, so a clone here was the dominant allocation of the
        // whole experiment)
        let (max_match, mean_match, assigned_estimate, matched_flag): (f64, f64, f64, f64) =
            if self.config.mask_emotional {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                spa.with_model_read(user, |model| match model {
                    Some(model) => {
                        let estimates = appeal.iter().map(|e| {
                            let attr = emotional_ids[e.ordinal()];
                            if model.relevance(attr) > 0.0 {
                                model.value(attr)
                            } else {
                                0.0
                            }
                        });
                        let (mut max, mut sum, mut count) = (0.0f64, 0.0f64, 0usize);
                        for estimate in estimates {
                            max = max.max(estimate);
                            sum += estimate;
                            count += 1;
                        }
                        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
                        // the assigned message is known before the send: its
                        // appealed attribute's estimate and a matched flag
                        let (estimate, flag) = match message.attribute {
                            Some(emo) => (model.value(emotional_ids[emo.ordinal()]), 1.0),
                            None => (0.0, 0.0),
                        };
                        (max, mean, estimate, flag)
                    }
                    None => match message.attribute {
                        Some(_) => (0.0, 0.0, 0.0, 1.0),
                        None => (0.0, 0.0, 0.0, 0.0),
                    },
                })
            };
        // floored above zero, so all four are always stored
        let offset = spa.schema().len() as u32;
        for (j, feature) in
            [max_match, mean_match, assigned_estimate, matched_flag].into_iter().enumerate()
        {
            let feature = feature.max(1e-9);
            debug_assert!(feature.is_finite(), "match feature {j} is {feature}");
            row.indices.push(offset + j as u32);
            row.values.push(feature);
        }
    }

    fn campaign_spec(&self, number: usize, id_offset: u32) -> CampaignSpec {
        // the paper ran 8 push + 2 newsletter campaigns; we make the
        // last two of the eval set newsletters
        let channel = if number + 2 >= self.config.n_eval_campaigns {
            Channel::Newsletter
        } else {
            Channel::Push
        };
        let course_id = CourseId::new((number as u32 * 7 + id_offset) % self.courses.len() as u32);
        CampaignSpec {
            id: CampaignId::new(id_offset + number as u32),
            channel,
            target_size: ((self.population.len() as f64) * self.config.target_fraction).round()
                as usize,
            course: self.courses.course(course_id).expect("course id in range").clone(),
            at: Timestamp::from_millis((id_offset as u64 + number as u64) * 86_400_000),
            seed: self.config.seed ^ 0xA0D1,
        }
    }

    /// Runs the full experiment.
    pub fn run(&self) -> Result<ExperimentResult> {
        let spa = ShardedSpa::new(&self.courses, SpaConfig, 1)?;

        // --- 1. history build-up -----------------------------------------
        // objective attributes from the socio-demographic database
        for user in self.population.users() {
            spa.import_objective(user.id, &user.objective)?;
        }
        if self.config.ingest_weblogs {
            let weblog_config = WeblogConfig {
                mean_sessions: 2.0,
                mean_session_len: 4.0,
                seed: self.config.seed ^ 0x3E6,
                ..Default::default()
            };
            let mut ingest_error = None;
            weblog::generate_weblogs(
                &self.population,
                &self.actions,
                &self.courses,
                &weblog_config,
                |event| {
                    if ingest_error.is_none() {
                        if let Err(e) = spa.ingest(event) {
                            ingest_error = Some(e);
                        }
                    }
                },
            )?;
            if let Some(e) = ingest_error {
                return Err(e);
            }
        }
        // Gradual-EIT warm-up: one question per contact, scheduled by
        // the engine, answered (or skipped) by the latent simulator.
        let answer_sim =
            spa_synth::eit::AnswerSimulator { noise: 0.10, seed: self.config.seed ^ 0xE17 };
        for round in 0..self.config.history_eit_rounds {
            for user in self.population.users() {
                let question = spa.next_eit_question(user.id);
                let event = answer_sim.react(
                    user,
                    question.id,
                    question.target,
                    round as u64,
                    Timestamp::from_millis(round as u64 * 3_600_000),
                );
                spa.ingest(&event)?;
            }
        }

        let runner = CampaignRunner::new(&self.population, &self.response);

        // --- 2. training campaigns ---------------------------------------
        // Feature rows are captured through the contact hook, which runs
        // *before* the response is drawn and fed back — capturing them
        // afterwards would leak the label through the reward/punish
        // update of the very outcome being predicted. Contacts fan out
        // across the pool's threads; rows come back in
        // contact order, so the training set is thread-count-invariant.
        let feature_dim = spa.schema().len() + 4;
        let emotional_ids = spa.schema().emotional_ids();
        let mut training = Dataset::new(feature_dim);
        for t in 0..self.config.n_training_campaigns {
            let spec = self.campaign_spec(t, 1000);
            let appeal = spec.course.appeal.clone();
            let (outcome, rows) = runner.run_collect(&spa, &spec, |spa, user, message| {
                let row = FEATURE_ROW.with_borrow_mut(|row| {
                    self.featurize(spa, &emotional_ids, user, &appeal, message, row);
                    row.view(feature_dim).to_owned_vec()
                });
                (f64::NAN, row)
            })?;
            for (row, contact) in rows.iter().zip(outcome.contacts.iter()) {
                training.push(row, if contact.responded { 1.0 } else { -1.0 })?;
            }
        }

        // --- 3. selection training ----------------------------------------
        let mut selection = SelectionFunction::with_imbalance(feature_dim, {
            let pos = training.positives().max(1);
            ((training.len() - pos) as f64 / pos as f64).clamp(1.0, 16.0)
        });
        if training.is_empty() {
            return Err(SpaError::Invalid("no training contacts were generated".into()));
        }
        selection.fit(&training)?;

        // --- 4. evaluation campaigns ---------------------------------------
        let mut campaigns = Vec::with_capacity(self.config.n_eval_campaigns);
        let mut all_labels: Vec<f64> = Vec::new();
        let mut all_scores: Vec<f64> = Vec::new();
        let mut baseline_expectation = 0.0f64;
        let mut outcomes: Vec<CampaignOutcome> = Vec::new();
        for number in 0..self.config.n_eval_campaigns {
            let spec = self.campaign_spec(number, 2000);
            let appeal = spec.course.appeal.clone();
            // Parallel target scoring: each contact featurizes and
            // scores its user independently (chunked over the sharded
            // SumRegistry), so the 42%-of-population scoring sweep —
            // the paper's 1.34M-users-per-push workload — uses every
            // core while staying deterministic.
            let (outcome, _) = runner.run_collect(&spa, &spec, |spa, user, message| {
                let score = FEATURE_ROW.with_borrow_mut(|row| {
                    self.featurize(spa, &emotional_ids, user, &appeal, message, row);
                    selection.score_view(row.view(feature_dim)).unwrap_or(0.0)
                });
                (score, ())
            })?;
            // Pool *within-campaign percentile ranks*, not raw margins:
            // "X% of commercial action" (Fig 6a) means contacting the
            // top-X% of each campaign's own ranking, so the aggregate
            // curve must be rank-aligned across campaigns whose base
            // rates differ.
            let mut order: Vec<usize> = (0..outcome.contacts.len()).collect();
            order.sort_by(|&a, &b| {
                outcome.contacts[b]
                    .score
                    .partial_cmp(&outcome.contacts[a].score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let n_contacts = order.len().max(1);
            let mut percentile = vec![0.0f64; order.len()];
            for (rank, &i) in order.iter().enumerate() {
                percentile[i] = 1.0 - rank as f64 / n_contacts as f64;
            }
            for (i, contact) in outcome.contacts.iter().enumerate() {
                all_labels.push(if contact.responded { 1.0 } else { -1.0 });
                all_scores.push(percentile[i]);
                let latent = self.population.user(contact.user).expect("contact users exist");
                baseline_expectation += self.response.probability(latent, None);
            }
            let campaign_labels: Vec<f64> =
                outcome.contacts.iter().map(|c| if c.responded { 1.0 } else { -1.0 }).collect();
            let campaign_scores: Vec<f64> = outcome.contacts.iter().map(|c| c.score).collect();
            campaigns.push(CampaignReport {
                number: number + 1,
                channel: outcome.channel,
                targets: outcome.contacts.len(),
                useful_impacts: outcome.responses,
                predictive_score: outcome.predictive_score(),
                auc: metrics::roc_auc(&campaign_labels, &campaign_scores)?,
            });
            outcomes.push(outcome);
        }

        let total_targets = all_labels.len();
        let total_useful_impacts = all_labels.iter().filter(|&&y| y > 0.0).count();
        let spa_rate = if total_targets == 0 {
            0.0
        } else {
            total_useful_impacts as f64 / total_targets as f64
        };
        let baseline_rate =
            if total_targets == 0 { 0.0 } else { baseline_expectation / total_targets as f64 };
        let gains = metrics::gains_curve(&all_labels, &all_scores, 100)?;
        let result = ExperimentResult {
            mean_predictive_score: campaigns.iter().map(|c| c.predictive_score).sum::<f64>()
                / campaigns.len() as f64,
            campaigns,
            total_targets,
            total_useful_impacts,
            captured_at_40: metrics::captured_at(&gains, 0.40),
            auc: metrics::roc_auc(&all_labels, &all_scores)?,
            gains,
            baseline_rate,
            spa_rate,
            redemption_improvement: if baseline_rate > 0.0 {
                (spa_rate - baseline_rate) / baseline_rate
            } else {
                0.0
            },
        };
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(mask: bool) -> ExperimentConfig {
        ExperimentConfig {
            n_users: 2500,
            n_courses: 40,
            n_topics: 8,
            ingest_weblogs: false,
            history_eit_rounds: 15,
            n_training_campaigns: 3,
            n_eval_campaigns: 10,
            target_fraction: 0.4,
            mask_emotional: mask,
            ..Default::default()
        }
    }

    /// A featurized row is the published advice row (cut below the
    /// emotional block under the ablation) followed by the four match
    /// features at the schema's width, each stored, and the reused
    /// buffers carry nothing over from the contact before.
    #[test]
    fn a_feature_row_is_the_advice_row_then_the_match_block() {
        for mask in [false, true] {
            let experiment =
                Experiment::new(ExperimentConfig { n_users: 200, ..small_config(mask) }).unwrap();
            let spa = ShardedSpa::new(&experiment.courses, SpaConfig, 1).unwrap();
            let answers = spa_synth::eit::AnswerSimulator::default();
            for user in experiment.population.users().take(50) {
                spa.import_objective(user.id, &user.objective).unwrap();
                for round in 0..12 {
                    let question = spa.next_eit_question(user.id);
                    let event = answers.react(
                        user,
                        question.id,
                        question.target,
                        round,
                        Timestamp::from_millis(round),
                    );
                    spa.ingest(&event).unwrap();
                }
            }
            let emotional_ids = spa.schema().emotional_ids();
            let width = spa.schema().len() as u32;
            let appeal = experiment.courses.course(CourseId::new(3)).unwrap().appeal.clone();
            let mut row = FeatureRow::default();
            // users 0–49 have models; 150 has none
            for user in [0u32, 7, 49, 150].map(UserId::new) {
                let message = spa.assign_message(user, &appeal).unwrap();
                experiment.featurize(&spa, &emotional_ids, user, &appeal, &message, &mut row);
                let advice: Vec<(u32, f64)> = spa
                    .advice_row(user)
                    .unwrap()
                    .iter()
                    .filter(|&(i, _)| !mask || i < NON_EMOTIONAL_DIM)
                    .collect();
                let entries: Vec<(u32, f64)> = row.view(width as usize + 4).iter().collect();
                let (head, tail) = entries.split_at(advice.len().min(entries.len()));
                assert_eq!(head, advice.as_slice(), "{user}");
                let tail_indices: Vec<u32> = tail.iter().map(|&(i, _)| i).collect();
                assert_eq!(tail_indices, (width..width + 4).collect::<Vec<_>>(), "{user}");
                assert!(tail.iter().all(|&(_, v)| v >= 1e-9), "{user}: {tail:?}");
                if mask {
                    assert!(
                        tail.iter().all(|&(_, v)| v == 1e-9),
                        "ablation zeroes the match block"
                    );
                }
            }
        }
    }

    #[test]
    fn experiment_validates_config() {
        assert!(Experiment::new(ExperimentConfig { n_eval_campaigns: 0, ..small_config(false) })
            .is_err());
        assert!(Experiment::new(ExperimentConfig { target_fraction: 0.0, ..small_config(false) })
            .is_err());
    }

    #[test]
    fn full_experiment_reproduces_the_fig6_shape() {
        let experiment = Experiment::new(small_config(false)).unwrap();
        let result = experiment.run().unwrap();

        // Fig 6(b): ten campaigns, 8 push + 2 newsletters, mean near 21%
        assert_eq!(result.campaigns.len(), 10);
        let newsletters =
            result.campaigns.iter().filter(|c| c.channel == Channel::Newsletter).count();
        assert_eq!(newsletters, 2);
        assert!(
            (0.10..0.35).contains(&result.mean_predictive_score),
            "mean predictive score {} strays from the paper's ~21%",
            result.mean_predictive_score
        );

        // Fig 6(a): strong concentration of impacts in the top-ranked slice
        // At this deliberately tiny scale (2.5k users, 3 training
        // campaigns) the curve is noisier than the 50k-user example run
        // recorded in EXPERIMENTS.md; it must still clear the diagonal
        // by a wide margin.
        assert!(
            result.captured_at_40 > 0.50,
            "captured at 40% effort = {} — should far exceed the diagonal's 0.40",
            result.captured_at_40
        );
        assert!(result.auc > 0.65, "AUC {}", result.auc);

        // redemption improvement over generic marketing is large
        assert!(
            result.redemption_improvement > 0.3,
            "improvement {} too small",
            result.redemption_improvement
        );

        // bookkeeping consistency
        assert_eq!(
            result.total_useful_impacts,
            result.campaigns.iter().map(|c| c.useful_impacts).sum::<usize>()
        );
        assert_eq!(result.total_targets, result.campaigns.iter().map(|c| c.targets).sum::<usize>());
        let last = result.gains.last().unwrap();
        assert!((last.captured - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_masking_emotional_features_hurts_ranking() {
        let full = Experiment::new(small_config(false)).unwrap().run().unwrap();
        let masked = Experiment::new(small_config(true)).unwrap().run().unwrap();
        assert!(
            full.auc > masked.auc + 0.02,
            "emotional features must add ranking skill: full {} vs masked {}",
            full.auc,
            masked.auc
        );
        assert!(
            full.captured_at_40 > masked.captured_at_40,
            "gains at 40%: full {} vs masked {}",
            full.captured_at_40,
            masked.captured_at_40
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = Experiment::new(small_config(false)).unwrap().run().unwrap();
        let b = Experiment::new(small_config(false)).unwrap().run().unwrap();
        assert_eq!(a.total_useful_impacts, b.total_useful_impacts);
        assert_eq!(a.auc, b.auc);
        assert_eq!(a.campaigns, b.campaigns);
    }
}
