//! The Smart User Model (SUM).
//!
//! §3 of the paper defines three stages for managing a user's emotional
//! information, all implemented here:
//!
//! 1. **Initialization** — emotional features are acquired through the
//!    Gradual EIT ([`SmartUserModel::apply_eit_answer`]): each answer
//!    updates the estimate for the probed attribute and raises its
//!    relevance (the "weight (relevancy)" the Attributes Manager
//!    assigns, §4);
//! 2. **Advice** — [`SmartUserModel::advice_row`] produces the feature
//!    vector handed to recommenders, with excitatory attributes
//!    *activated* (positive valence) or *inhibited* (negative valence)
//!    in proportion to their relevance;
//! 3. **Update** — [`SmartUserModel::reward`] / [`SmartUserModel::punish`]
//!    implement the reward-and-punish mechanism of Fig 4: opening a
//!    recommendation reinforces the attributes its message appealed to;
//!    ignoring it weakens them.
//!
//! The paper says what each stage does but gives no number for it, so
//! the rates they apply ([`EIT_BLEND`], [`SUBJECTIVE_BLEND`],
//! [`REWARD_RATE`], [`PUNISH_RATE`], [`RELEVANCE_GAIN`]) and §5.3's
//! [`SENSIBILITY_THRESHOLD`] are calibrated inputs: named constants,
//! not settings.
//!
//! A model holds only the attributes a user has revealed until they
//! make up half the schema, and one pair per attribute after that (see
//! [`SmartUserModel`]). That layout is private to this module: every
//! other reader goes through [`SmartUserModel::value`],
//! [`SmartUserModel::relevance`], the row builders or
//! [`SumRegistry::write_state`], none of which depends on it.
//!
//! Resident, a user is a slot in its registry shard: a 104 B master in
//! a `Vec` under the shard's mutex, which writers mutate, and at the
//! same slot a 48 B published advice row in a dense table behind the
//! shard's `RwLock`, which readers score from (`RowTable`). A row of up
//! to three entries sits inline in the table, so scoring such a user
//! follows no pointer past it; a longer row spills to one pair of heap
//! buffers (see `PublishedRow`). With a sparse master the user's only
//! allocation of its own is the master's pairs. A write section takes
//! the shard mutex, and the table's write guard only when it ends, to
//! copy its rows in (see [`SumRegistry`]).

use crate::fastmap::FastIdMap;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use spa_linalg::{RowView, SparseVec};
use spa_types::{AttributeId, AttributeKind, AttributeSchema, Result, SpaError, UserId, Valence};
use std::sync::atomic::{AtomicU64, Ordering};

/// Precomputed per-attribute advice coefficients.
///
/// The advice-stage factor of an attribute is
/// `(1 + valence · relevance).max(0)` for emotional attributes and `1`
/// for the rest. Only `relevance` varies per user — the valence and the
/// emotional/non-emotional split are fixed by the immutable
/// [`AttributeSchema`] — so the schema part is folded once into a flat
/// coefficient table (`valence` for emotional attributes, `0.0`
/// otherwise) and the hot scoring loop never touches the schema again.
/// `(1 + 0·r).max(0) ≡ 1`, so one branch-free formula covers both kinds
/// bit-identically.
#[derive(Debug, Clone)]
pub(crate) struct AdviceFactors {
    coeffs: Vec<f64>,
}

impl AdviceFactors {
    /// Builds the coefficient table for a schema.
    pub(crate) fn new(schema: &AttributeSchema) -> Self {
        let coeffs = schema
            .iter()
            .map(|def| if def.kind == AttributeKind::Emotional { def.valence.value() } else { 0.0 })
            .collect();
        Self { coeffs }
    }

    /// Attribute dimensionality.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// The advice factor of attribute `index` at `relevance` — exactly
    /// the value [`SmartUserModel::advice_row`] derives from the schema.
    #[inline]
    pub(crate) fn factor(&self, index: usize, relevance: f64) -> f64 {
        (1.0 + self.coeffs[index] * relevance).max(0.0)
    }
}

/// Blend factor of each Gradual-EIT answer after the first: the
/// estimate moves this share of the way to the expressed sensibility.
/// A calibrated input for §3's initialization stage; the paper gives
/// no number.
pub const EIT_BLEND: f64 = 0.35;
/// Blend factor of each subjective observation after the first (the
/// LifeLogs Pre-processor's web-usage indices). A calibrated input for
/// §4's pre-processing; the paper gives no number.
pub const SUBJECTIVE_BLEND: f64 = 0.3;
/// Share of the remaining distance to 1 a reward moves an estimate. A
/// calibrated input for §3's update stage (Fig 4); the paper gives no
/// number.
pub const REWARD_RATE: f64 = 0.12;
/// Share of an estimate a punishment takes away. A calibrated input
/// for §3's update stage (Fig 4); the paper gives no number.
pub const PUNISH_RATE: f64 = 0.05;
/// Relevance an EIT answer or a subjective observation adds (a reward
/// adds half of it), capped at 1. A calibrated input for the
/// relevance weights of §3 and §4; the paper gives no number.
pub const RELEVANCE_GAIN: f64 = 0.2;
/// Estimate an emotional attribute must reach to count as a dominant
/// sensibility. A calibrated input for §5.3 step 3 ("attributes … that
/// exceed a sensibility threshold"); the paper gives no number.
pub const SENSIBILITY_THRESHOLD: f64 = 0.6;

/// Attributes the sparse form's `live` bitmap can address; a wider
/// schema starts dense.
const LIVE_BITS: usize = 128;

/// Bytes of a model record's fixed part in [`SumRegistry::write_state`]:
/// user, update counter, ten EIT counters and `nnz`.
const RECORD_HEAD: usize = 4 + 8 + 40 + 4;

/// Bytes of one stored attribute in a model record: index, value bits
/// and relevance bits.
const RECORD_ENTRY: usize = 4 + 8 + 8;

/// One user's Smart User Model.
///
/// Each attribute carries an `[estimate, relevance]` pair: the estimate
/// in `[0, 1]`, the relevance (confidence × importance) that says how
/// much of it the platform has seen. An attribute no update rule has
/// touched is *absent* and reads as `[0, 0]`. Most users reveal a few
/// attributes out of 75 (§5.2), so the pairs are stored by density:
///
/// * **sparse** — a bitmap of the stored attributes (`live`) and their
///   pairs in ascending attribute order, which is what a user with a
///   handful of EIT answers holds;
/// * **dense** — one pair per schema attribute, indexed directly, which
///   is what a user with an objective import holds (§5.1 fills 40 of
///   75 attributes at once).
///
/// A model switches from sparse to dense, one way, when its stored
/// count reaches half the schema width; a schema wider than the bitmap
/// starts dense. The layout changes no value: every update rule does
/// the same arithmetic on the same pair in either form, and equality
/// compares content, not layout.
#[derive(Debug, Clone)]
pub struct SmartUserModel {
    /// Owner.
    pub(crate) user: UserId,
    /// Attribute dimensionality of the schema.
    dim: u32,
    /// Per-emotional-attribute count of EIT answers incorporated.
    eit_answers: [u32; 10],
    /// Total update events applied.
    updates: u64,
    /// Sparse form: bit `i` set ⇔ attribute `i` has a pair in `cells`.
    /// Unused (zero) in the dense form.
    live: [u64; 2],
    /// `[estimate, relevance]` pairs: one per stored attribute in
    /// ascending order (sparse), or one per schema attribute (dense —
    /// exactly when `cells.len() == dim`).
    cells: Vec<[f64; 2]>,
}

impl PartialEq for SmartUserModel {
    fn eq(&self, other: &Self) -> bool {
        self.user == other.user
            && self.dim == other.dim
            && self.eit_answers == other.eit_answers
            && self.updates == other.updates
            && (0..self.dim()).all(|i| self.pair(i) == other.pair(i))
    }
}

impl SmartUserModel {
    /// Fresh, empty model for a 75-attribute schema (or any `dim`).
    pub(crate) fn new(user: UserId, dim: usize) -> Self {
        let cells = if dim > LIVE_BITS { vec![[0.0; 2]; dim] } else { Vec::new() };
        Self { user, dim: dim as u32, eit_answers: [0; 10], updates: 0, live: [0; 2], cells }
    }

    /// Attribute dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Current estimate for an attribute.
    pub fn value(&self, attr: AttributeId) -> f64 {
        self.pair(attr.index())[0]
    }

    /// Current relevance weight for an attribute.
    pub fn relevance(&self, attr: AttributeId) -> f64 {
        self.pair(attr.index())[1]
    }

    #[inline]
    fn is_dense(&self) -> bool {
        self.cells.len() == self.dim()
    }

    /// Where attribute `index`'s pair sits in `cells`, if stored.
    #[inline]
    fn position(&self, index: usize) -> Option<usize> {
        if self.is_dense() {
            return (index < self.cells.len()).then_some(index);
        }
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        (word < 2 && self.live[word] & bit != 0).then(|| self.rank(word, bit))
    }

    /// Sparse form: how many stored attributes precede `bit` of `word`.
    #[inline]
    fn rank(&self, word: usize, bit: u64) -> usize {
        let below = if word == 1 { self.live[0].count_ones() } else { 0 };
        (below + (self.live[word] & (bit - 1)).count_ones()) as usize
    }

    /// Attribute `index`'s pair, `[0, 0]` when absent.
    #[inline]
    fn pair(&self, index: usize) -> [f64; 2] {
        self.position(index).map_or([0.0; 2], |at| self.cells[at])
    }

    /// Attribute `index`'s pair (`index < dim`), stored as `[0, 0]`
    /// first when absent — switching to the dense form when that
    /// brings the stored count to half the schema.
    #[inline]
    fn pair_mut(&mut self, index: usize) -> &mut [f64; 2] {
        if self.is_dense() {
            return &mut self.cells[index];
        }
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        let at = self.rank(word, bit);
        if self.live[word] & bit == 0 {
            if 2 * (self.cells.len() + 1) >= self.dim() {
                self.densify();
                return &mut self.cells[index];
            }
            self.live[word] |= bit;
            self.cells.insert(at, [0.0; 2]);
        }
        &mut self.cells[at]
    }

    /// Rewrites a sparse model into the dense form.
    fn densify(&mut self) {
        let mut dense = vec![[0.0; 2]; self.dim()];
        for (index, pair) in self.stored() {
            dense[index] = pair;
        }
        self.cells = dense;
        self.live = [0; 2];
    }

    /// Makes room for `count` more stored attributes: straight to the
    /// dense form when they alone reach half the schema, rather than
    /// growing the sparse form only to copy it out.
    fn reserve_stored(&mut self, count: usize) {
        if !self.is_dense() {
            if 2 * count >= self.dim() {
                self.densify();
            } else {
                self.cells.reserve(count);
            }
        }
    }

    /// Every stored `(attribute, [estimate, relevance])` pair in
    /// ascending attribute order — all `dim` of them, absent ones
    /// included, in the dense form.
    fn stored(&self) -> impl Iterator<Item = (usize, [f64; 2])> + Clone + '_ {
        let (dense, mut live) = (self.is_dense(), self.live);
        self.cells.iter().enumerate().map(move |(at, &pair)| {
            if dense {
                return (at, pair);
            }
            let word = usize::from(live[0] == 0);
            let index = word * 64 + live[word].trailing_zeros() as usize;
            live[word] &= live[word] - 1;
            (index, pair)
        })
    }

    /// EIT answers incorporated per emotional attribute (paper order).
    pub fn eit_answer_counts(&self) -> &[u32; 10] {
        &self.eit_answers
    }

    fn check(&self, attr: AttributeId) -> Result<()> {
        if attr.index() >= self.dim() {
            return Err(SpaError::DimensionMismatch {
                got: attr.index() + 1,
                expected: self.dim(),
            });
        }
        Ok(())
    }

    /// Imports a directly observed (objective) attribute: full
    /// relevance, exact value.
    pub fn set_observed(&mut self, attr: AttributeId, value: f64) -> Result<()> {
        self.check(attr)?;
        *self.pair_mut(attr.index()) = [value.clamp(0.0, 1.0), 1.0];
        self.updates += 1;
        Ok(())
    }

    /// Imports an objective block: `values[i]` is observed for attribute
    /// `i` ([`SmartUserModel::set_observed`], in order).
    pub(crate) fn import_objective(&mut self, values: &[f64]) -> Result<()> {
        self.reserve_stored(values.len());
        for (i, &v) in values.iter().enumerate() {
            self.set_observed(AttributeId::new(i as u32), v)?;
        }
        Ok(())
    }

    /// Folds in a noisy observation of a subjective attribute (running
    /// exponential average, growing relevance).
    pub(crate) fn observe_subjective(&mut self, attr: AttributeId, value: f64) -> Result<()> {
        self.check(attr)?;
        let pair = self.pair_mut(attr.index());
        pair[0] = if pair[1] == 0.0 {
            value.clamp(0.0, 1.0)
        } else {
            (1.0 - SUBJECTIVE_BLEND) * pair[0] + SUBJECTIVE_BLEND * value.clamp(0.0, 1.0)
        };
        pair[1] = (pair[1] + RELEVANCE_GAIN).min(1.0);
        self.updates += 1;
        Ok(())
    }

    /// **Initialization stage** — incorporates one Gradual-EIT answer
    /// for the emotional attribute at schema position `attr`.
    ///
    /// The expressed [`Valence`] is mapped to a `[0, 1]` sensibility
    /// and blended into the estimate; relevance grows with every
    /// answer. `emo_ordinal` is the attribute's position among the ten
    /// emotional attributes.
    pub fn apply_eit_answer(
        &mut self,
        attr: AttributeId,
        emo_ordinal: usize,
        answer: Valence,
    ) -> Result<()> {
        self.check(attr)?;
        if emo_ordinal >= 10 {
            return Err(SpaError::Invalid(format!("emotional ordinal {emo_ordinal} out of range")));
        }
        let sensed = (answer.value() + 1.0) / 2.0;
        let first = self.eit_answers[emo_ordinal] == 0;
        let pair = self.pair_mut(attr.index());
        pair[0] = if first { sensed } else { (1.0 - EIT_BLEND) * pair[0] + EIT_BLEND * sensed };
        pair[1] = (pair[1] + RELEVANCE_GAIN).min(1.0);
        self.eit_answers[emo_ordinal] += 1;
        self.updates += 1;
        Ok(())
    }

    /// **Update stage, reward** — the user opened / acted on a message
    /// appealing to `attrs`: reinforce those attributes (Fig 4). All or
    /// nothing: an out-of-range attribute errors before any pair moves.
    pub fn reward(&mut self, attrs: &[AttributeId]) -> Result<()> {
        attrs.iter().try_for_each(|&attr| self.check(attr))?;
        for &attr in attrs {
            let pair = self.pair_mut(attr.index());
            pair[0] += (1.0 - pair[0]) * REWARD_RATE;
            pair[1] = (pair[1] + RELEVANCE_GAIN / 2.0).min(1.0);
        }
        self.updates += 1;
        Ok(())
    }

    /// **Update stage, punish** — the user ignored a message appealing
    /// to `attrs`: weaken those attributes. An absent attribute stays
    /// absent (its estimate is 0, and `0 − 0 · rate` is 0). All or
    /// nothing, like [`SmartUserModel::reward`].
    pub fn punish(&mut self, attrs: &[AttributeId]) -> Result<()> {
        attrs.iter().try_for_each(|&attr| self.check(attr))?;
        for &attr in attrs {
            if let Some(at) = self.position(attr.index()) {
                let value = &mut self.cells[at][0];
                *value -= *value * PUNISH_RATE;
            }
        }
        self.updates += 1;
        Ok(())
    }

    /// Plain feature row: attribute estimates where relevance > 0
    /// (unobserved attributes stay absent — the sparsity the paper
    /// fights). Values are floored at a tiny epsilon so an observed
    /// zero still registers as present.
    pub(crate) fn feature_row(&self) -> SparseVec {
        let pairs = self
            .stored()
            .filter(|&(_, pair)| pair[1] > 0.0)
            .map(|(i, pair)| (i as u32, pair[0].max(1e-9)));
        SparseVec::from_pairs(self.dim(), pairs).expect("indices are in range")
    }

    /// **Advice stage** — the activated/inhibited feature row handed to
    /// recommenders: each *emotional* attribute is scaled by
    /// `1 + valence · relevance`, so attraction-valenced attributes are
    /// amplified and aversion-valenced ones damped, in proportion to
    /// how well-established they are.
    pub fn advice_row(&self, schema: &AttributeSchema) -> Result<SparseVec> {
        if schema.len() != self.dim() {
            return Err(SpaError::DimensionMismatch { got: schema.len(), expected: self.dim() });
        }
        let pairs = self.stored().filter(|&(_, pair)| pair[1] > 0.0).map(|(i, pair)| {
            let (v, r) = (pair[0], pair[1]);
            let def = schema.get(AttributeId::new(i as u32)).expect("len checked");
            let factor = if def.kind == AttributeKind::Emotional {
                (1.0 + def.valence.value() * r).max(0.0)
            } else {
                1.0
            };
            (i as u32, (v * factor).max(1e-9))
        });
        SparseVec::from_pairs(self.dim(), pairs)
    }

    /// [`SmartUserModel::advice_row`] written compactly into caller
    /// buffers: the row's `(index, value)` entries land at the front of
    /// `indices`/`values` (ascending, the [`spa_linalg::RowView`]
    /// invariants) and the entry count is returned. This is the
    /// registry's publication kernel: the one place a reader-visible
    /// row is derived from a master ([`SumRegistry`]), pinned
    /// bit-for-bit to `advice_row(schema)` by the unit tests.
    ///
    /// # Panics
    /// When `factors` or the buffers disagree with the model dimension
    /// (all derive from the platform schema, so a mismatch is a bug).
    pub(crate) fn advice_compact_into(
        &self,
        factors: &AdviceFactors,
        indices: &mut [u32],
        values: &mut [f64],
    ) -> usize {
        assert_eq!(factors.len(), self.dim(), "advice factors built for another schema");
        assert_eq!(indices.len(), self.dim(), "index buffer has the wrong dimension");
        assert_eq!(values.len(), self.dim(), "value buffer has the wrong dimension");
        let mut n = 0usize;
        let mut emit = |i: usize, [v, r]: [f64; 2]| {
            if r > 0.0 {
                indices[n] = i as u32;
                values[n] = (v * factors.factor(i, r)).max(1e-9);
                n += 1;
            }
        };
        // the dense form scans its pairs by position, without decoding
        // the bitmap
        if self.is_dense() {
            for (i, &pair) in self.cells.iter().enumerate() {
                emit(i, pair);
            }
        } else {
            for (i, pair) in self.stored() {
                emit(i, pair);
            }
        }
        n
    }

    /// Emotional attributes whose estimate reaches
    /// [`SENSIBILITY_THRESHOLD`], sorted by estimate descending — the
    /// "dominant sensibilities" of §5.3. `emotional_ids` is the schema's
    /// emotional block (see [`AttributeSchema::emotional_ids`]). Tied
    /// estimates break by ascending attribute id (the same determinism
    /// contract as [`crate::selection::SelectionFunction::sort_by_propensity`]),
    /// so the result never depends on the input order of `emotional_ids`.
    pub(crate) fn dominant_sensibilities(
        &self,
        emotional_ids: &[AttributeId],
    ) -> Vec<(AttributeId, f64)> {
        let mut out: Vec<(AttributeId, f64)> = emotional_ids
            .iter()
            .filter(|&&a| self.relevance(a) > 0.0)
            .map(|&a| (a, self.value(a)))
            .filter(|&(_, v)| v >= SENSIBILITY_THRESHOLD)
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        out
    }

    /// Appends this model's record of [`SumRegistry::write_state`]:
    /// every attribute whose estimate or relevance is a non-zero bit
    /// pattern, ascending — the same bytes from either form.
    fn write_to(&self, out: &mut Vec<u8>) {
        let mut head = [0u8; RECORD_HEAD];
        head[0..4].copy_from_slice(&self.user.raw().to_le_bytes());
        head[4..12].copy_from_slice(&self.updates.to_le_bytes());
        for (c, at) in self.eit_answers.iter().zip((12..52).step_by(4)) {
            head[at..at + 4].copy_from_slice(&c.to_le_bytes());
        }
        // nnz (head[52..56]) is patched once the entries are written
        let nnz_at = out.len() + 52;
        out.extend_from_slice(&head);
        let mut nnz = 0u32;
        for (i, pair) in self.stored() {
            if pair[0].to_bits() == 0 && pair[1].to_bits() == 0 {
                continue;
            }
            let mut entry = [0u8; RECORD_ENTRY];
            entry[0..4].copy_from_slice(&(i as u32).to_le_bytes());
            entry[4..12].copy_from_slice(&pair[0].to_bits().to_le_bytes());
            entry[12..20].copy_from_slice(&pair[1].to_bits().to_le_bytes());
            out.extend_from_slice(&entry);
            nnz += 1;
        }
        out[nnz_at..nnz_at + 4].copy_from_slice(&nnz.to_le_bytes());
    }

    /// The most bytes [`SmartUserModel::write_to`] appends for this
    /// model: every stored attribute written.
    fn record_len_bound(&self) -> usize {
        RECORD_HEAD + RECORD_ENTRY * self.cells.len()
    }

    /// Decodes one record written by [`SmartUserModel::write_to`] for a
    /// `dim`-attribute schema, advancing `cursor` past it.
    fn read_from(cursor: &mut &[u8], dim: usize) -> Result<Self> {
        use spa_store::snapshot::take;
        let user = UserId::new(u32::from_le_bytes(take(cursor, 4, "user")?.try_into().expect("4")));
        let mut model = Self::new(user, dim);
        model.updates = u64::from_le_bytes(take(cursor, 8, "updates")?.try_into().expect("8"));
        let eit = take(cursor, 40, "eit counters")?;
        for (i, slot) in model.eit_answers.iter_mut().enumerate() {
            *slot = u32::from_le_bytes(eit[i * 4..i * 4 + 4].try_into().expect("4"));
        }
        let nnz = u32::from_le_bytes(take(cursor, 4, "nnz")?.try_into().expect("4")) as usize;
        if nnz > dim {
            return Err(SpaError::Corrupt(format!("model for {user}: nnz {nnz} > dim {dim}")));
        }
        model.reserve_stored(nnz);
        for _ in 0..nnz {
            let entry = take(cursor, 20, "model entry")?;
            let index = u32::from_le_bytes(entry[0..4].try_into().expect("4")) as usize;
            if index >= dim {
                return Err(SpaError::Corrupt(format!(
                    "model for {user}: attribute index {index} out of range"
                )));
            }
            *model.pair_mut(index) = [
                f64::from_bits(u64::from_le_bytes(entry[4..12].try_into().expect("8"))),
                f64::from_bits(u64::from_le_bytes(entry[12..20].try_into().expect("8"))),
            ];
        }
        Ok(model)
    }
}

/// Entries a published row holds inline before it spills to the heap:
/// every row of the benchmark platform's prefilled users (three EIT
/// answers) fits, and the row stays the 48 B of the two `Vec` headers
/// it replaced.
const INLINE_ENTRIES: usize = 3;

/// What a reader sees of one user: the compact advice-stage row, as
/// [`SmartUserModel::advice_compact_into`] derived it from the master —
/// a handful of nonzeros out of 75 attributes (§5.2).
///
/// Up to [`INLINE_ENTRIES`] entries sit inline, so scoring such a user
/// reads its row in the table and nothing else. A longer row spills to
/// one pair of heap buffers, and a row that has spilled stays spilled:
/// the next publication refills those buffers in place, whatever its
/// length, so a dense Fig 6 row whose length changes on most
/// publications allocates nothing once warm. The spilled form's
/// capacity niche carries the variant, so either form is 48 B.
enum PublishedRow {
    Inline { len: u32, indices: [u32; INLINE_ENTRIES], values: [f64; INLINE_ENTRIES] },
    Spilled { indices: Vec<u32>, values: Vec<f64> },
}

impl Default for PublishedRow {
    /// The empty row: what a newly registered user publishes.
    fn default() -> Self {
        Self::Inline { len: 0, indices: [0; INLINE_ENTRIES], values: [0.0; INLINE_ENTRIES] }
    }
}

impl PublishedRow {
    /// Replaces the row's entries with `indices`/`values` (equal
    /// lengths, ascending indices).
    fn fill(&mut self, indices: &[u32], values: &[f64]) {
        let n = indices.len();
        match self {
            Self::Spilled { indices: spilled, values: spilled_values } => {
                spilled.clear();
                spilled.extend_from_slice(indices);
                spilled_values.clear();
                spilled_values.extend_from_slice(values);
            }
            Self::Inline { len, indices: inline, values: inline_values } if n <= INLINE_ENTRIES => {
                inline[..n].copy_from_slice(indices);
                inline_values[..n].copy_from_slice(values);
                *len = n as u32;
            }
            Self::Inline { .. } => {
                *self = Self::Spilled { indices: indices.to_vec(), values: values.to_vec() };
            }
        }
    }

    /// The row's indices and values, in the order they were filled.
    #[inline]
    fn entries(&self) -> (&[u32], &[f64]) {
        match self {
            Self::Inline { len, indices, values } => {
                let n = *len as usize;
                (&indices[..n], &values[..n])
            }
            Self::Spilled { indices, values } => (indices, values),
        }
    }
}

/// Everything readers of one registry shard touch, behind the shard's
/// `RwLock`: the map from user id to slot and every user's published
/// row, packed densely by slot.
///
/// Growth bound: a user is registered once and never removed, so after
/// N registrations `rows` holds N rows (48 B each) and `slots` N
/// entries (8 B and a control byte each). `rows`, like the masters
/// [`ShardState`] holds by the same slot, grows by half when full, so
/// its capacity stays at most 1.5N + 16; the map doubles, so its
/// capacity stays at most 2N + 16
/// (`sum::tests::row_tables_and_masters_grow_within_twice_their_users`).
/// Republishing a user refills its row in place.
#[derive(Default)]
struct RowTable {
    slots: FastIdMap<u32>,
    rows: Vec<PublishedRow>,
}

impl RowTable {
    #[inline]
    fn slot(&self, user: UserId) -> Option<usize> {
        self.slots.get(&user.raw()).map(|&slot| slot as usize)
    }
}

/// The writer side of a user: the **master** model, the only resident
/// copy, which every mutation applies to in place.
struct Master {
    model: SmartUserModel,
    /// The model's update counter when its row was last published (0
    /// for the empty row a new user starts with). While it differs from
    /// the model's, the user is in the current section's dirty list.
    published: u64,
}

/// Writer-side state of one registry shard, behind the shard's mutex.
/// Scoring never touches this — it reads the shard's [`RowTable`].
struct ShardState {
    /// Every user's master, at the user's slot in the [`RowTable`]:
    /// one per user ever registered (104 B each), capacity at most
    /// 1.5N + 16 like the table's rows.
    masters: Vec<Master>,
    /// Slots touched by the current locked section; drained (and
    /// published) when the section ends. Lives here so per-event ingest
    /// stays allocation-free.
    dirty: Vec<u32>,
    /// `dim`-long scratch the publication kernel writes a row into
    /// before it is copied, trimmed, into the table.
    row_indices: Vec<u32>,
    row_values: Vec<f64>,
}

struct RegistryShard {
    /// Taken by every write section, before the table's guard.
    state: Mutex<ShardState>,
    /// What readers see; written only by a holder of `state`.
    table: RwLock<RowTable>,
}

impl RegistryShard {
    fn new(dim: usize) -> Self {
        let state = ShardState {
            masters: Vec::new(),
            dirty: Vec::new(),
            row_indices: vec![0; dim],
            row_values: vec![0.0; dim],
        };
        Self { state: Mutex::new(state), table: RwLock::new(RowTable::default()) }
    }

    /// `user`'s slot, registering the user with a fresh master and the
    /// empty row when it has none. `state` is this shard's locked state.
    fn slot_or_register(&self, state: &mut ShardState, user: UserId, dim: usize) -> usize {
        if let Some(slot) = self.table.read().slot(user) {
            return slot;
        }
        let slot = state.masters.len();
        push_grown_by_half(
            &mut state.masters,
            Master { model: SmartUserModel::new(user, dim), published: 0 },
        );
        let mut table = self.table.write();
        table.slots.insert(user.raw(), slot as u32);
        push_grown_by_half(&mut table.rows, PublishedRow::default());
        slot
    }
}

/// Pushes `value`, growing a full `vec` by half its length (plus 16)
/// rather than doubling it: the masters and rows are one entry per user
/// for good, so doubling would leave up to half of each allocated and
/// unused.
fn push_grown_by_half<T>(vec: &mut Vec<T>, value: T) {
    if vec.len() == vec.capacity() {
        vec.reserve_exact(vec.len() / 2 + 16);
    }
    vec.push(value);
}

/// Derives `master`'s advice row into the scratch buffers and copies it
/// into `row` in place ([`PublishedRow::fill`]).
fn publish_row(
    master: &mut Master,
    row: &mut PublishedRow,
    factors: &AdviceFactors,
    indices: &mut [u32],
    values: &mut [f64],
) {
    let len = master.model.advice_compact_into(factors, indices, values);
    row.fill(&indices[..len], &values[..len]);
    master.published = master.model.updates;
}

/// A write handle to one user's slot in a locked registry shard (see
/// [`SumRegistry::with_model_slot`]): the model materializes on first
/// [`ModelSlot::get_or_create`], never as a side effect of merely
/// holding the slot.
pub struct ModelSlot<'a> {
    shard: &'a RegistryShard,
    state: &'a mut ShardState,
    user: UserId,
    dim: usize,
    /// The user's slot, resolved at the first
    /// [`ModelSlot::get_or_create`].
    slot: Option<usize>,
}

impl ModelSlot<'_> {
    /// Borrows the user's **master** model, creating an empty one on
    /// first touch. Mutations apply to the master only; scoring keeps
    /// seeing the previously published row until the enclosing locked
    /// section ends and publishes.
    #[inline]
    pub fn get_or_create(&mut self) -> &mut SmartUserModel {
        let slot = match self.slot {
            Some(slot) => slot,
            None => {
                let slot = self.shard.slot_or_register(self.state, self.user, self.dim);
                // nothing unpublished: not yet dirty in this section (a
                // touch that changed nothing may queue the user twice,
                // which the flush skips)
                let master = &self.state.masters[slot];
                if master.published == master.model.updates {
                    self.state.dirty.push(slot as u32);
                }
                *self.slot.insert(slot)
            }
        };
        &mut self.state.masters[slot].model
    }
}

/// Slot factory over one locked registry shard (see
/// [`SumRegistry::with_shard_models`]).
pub(crate) struct ShardModels<'a> {
    shard: &'a RegistryShard,
    state: &'a mut ShardState,
    dim: usize,
    shard_index: usize,
}

impl ShardModels<'_> {
    /// A lazy model slot for one of this shard's users.
    #[inline]
    pub(crate) fn slot(&mut self, user: UserId) -> ModelSlot<'_> {
        debug_assert_eq!(SumRegistry::shard_index_of(user), self.shard_index);
        ModelSlot { shard: self.shard, state: self.state, user, dim: self.dim, slot: None }
    }
}

/// The published rows of one registry shard, held under its read guard
/// (see [`SumRegistry::shard_rows`]).
pub(crate) struct ShardRows<'a> {
    table: RwLockReadGuard<'a, RowTable>,
    dim: usize,
}

impl ShardRows<'_> {
    /// `user`'s slot; `None` when the user has no model.
    #[inline]
    pub(crate) fn slot(&self, user: UserId) -> Option<usize> {
        self.table.slot(user)
    }

    /// The published row at `slot` (from [`ShardRows::slot`]).
    #[inline]
    pub(crate) fn row_at(&self, slot: usize) -> RowView<'_> {
        let (indices, values) = self.table.rows[slot].entries();
        RowView::new(self.dim, indices, values)
    }

    /// `user`'s published row; `None` when the user has no model.
    #[inline]
    pub(crate) fn row(&self, user: UserId) -> Option<RowView<'_>> {
        self.slot(user).map(|slot| self.row_at(slot))
    }
}

/// Counters of the published-row read path (monotone since creation).
///
/// The type and [`crate::engine::Engine::advice_cache_stats`] keep the
/// names of the advice cache they outlived because the frozen
/// `benchmark/` crate reads them (`fixture.rs`, `cache_counts`); both
/// go when a later `benchmark` issue renames the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Scores served from an already-published row.
    pub hits: u64,
    /// Advice rows computed at publication (ingest section ends and
    /// restores).
    pub misses: u64,
}

/// Concurrent registry of SUMs for a whole population, persisted as the
/// SUM section of the platform's engine snapshots
/// ([`SumRegistry::write_state`] / [`SumRegistry::restore_state`]).
///
/// **One resident copy, one read mechanism.** Each of the 32 shards
/// keeps its masters in a `Vec` under a mutex every write section
/// takes, and what readers see in a `RwLock`ed table: user id → slot,
/// and each user's published advice row at that slot. Writers mutate
/// masters in place under the mutex and, when their locked section
/// ends, derive each touched user's compact advice row once and copy
/// them all into the table under one write guard. What waits on what:
///
/// * `SumRegistry::with_advice_row` and the scoring loop's `shard_rows` —
///   everything scoring, ranking and outcome capture read — take the
///   table's read guard. They never wait on an apply, a checkpoint or
///   a WAL write, only on a section end copying rows into the same
///   registry shard or on a new user's registration. A reader sees
///   each user's row exactly as it stood at some section boundary,
///   never a torn intermediate.
/// * `SumRegistry::with_model_read` / [`SumRegistry::get`] — the rare
///   whole-model reads (feature rows, EIT scheduling, dominant
///   sensibilities, checkpoint serialisation) — borrow the master under
///   the shard mutex, and wait for a writer holding it.
///
/// Lock order: the shard mutex, then the table's guard. Readers take
/// only the table's read guard.
pub struct SumRegistry {
    dim: usize,
    /// Schema part of the advice transform, folded once at bring-up.
    factors: AdviceFactors,
    shards: Vec<RegistryShard>,
    publishes: AtomicU64,
    rows_served: AtomicU64,
}

/// Registry shards per [`SumRegistry`].
pub(crate) const SHARDS: usize = 32;

impl SumRegistry {
    /// Creates an empty registry of models over `schema`'s attributes.
    pub fn new(schema: &AttributeSchema) -> Self {
        let dim = schema.len();
        Self {
            dim,
            factors: AdviceFactors::new(schema),
            shards: (0..SHARDS).map(|_| RegistryShard::new(dim)).collect(),
            publishes: AtomicU64::new(0),
            rows_served: AtomicU64::new(0),
        }
    }

    fn shard(&self, user: UserId) -> &RegistryShard {
        &self.shards[Self::shard_index_of(user)]
    }

    /// Publishes the advice row of every master the just-ended section
    /// mutated, under one write guard of the shard's table. Runs with
    /// the shard mutex still held, so a single-threaded caller observes
    /// its own writes immediately and publications are section-atomic.
    fn flush_dirty(&self, shard: &RegistryShard, state: &mut ShardState) {
        let ShardState { masters, dirty, row_indices, row_values } = state;
        let mut table = None;
        let mut published = 0u64;
        for slot in dirty.drain(..) {
            let master = &mut masters[slot as usize];
            if master.published != master.model.updates {
                let guard = table.get_or_insert_with(|| shard.table.write());
                let row = &mut guard.rows[slot as usize];
                publish_row(master, row, &self.factors, row_indices, row_values);
                published += 1;
            }
        }
        if published > 0 {
            self.publishes.fetch_add(published, Ordering::Relaxed);
        }
    }

    /// How many advice rows have been published so far (monotone) —
    /// the write half of publication, surfaced for stats.
    pub(crate) fn model_publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Read-path counters: rows published, and scores the callers of
    /// `shard_rows` reported as served from one.
    pub(crate) fn row_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.rows_served.load(Ordering::Relaxed),
            misses: self.model_publishes(),
        }
    }

    /// Records `count` scores served from published rows. Batch scorers
    /// call this once per sweep, so the read path shares no written
    /// cache line per user.
    pub(crate) fn note_rows_served(&self, count: u64) {
        self.rows_served.fetch_add(count, Ordering::Relaxed);
    }

    /// Number of models stored.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.table.read().slots.len()).sum()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the model for `user`, if present (takes the shard mutex,
    /// see `SumRegistry::with_model_read`).
    pub fn get(&self, user: UserId) -> Option<SmartUserModel> {
        self.with_model_read(user, |model| model.cloned())
    }

    /// Applies `f` to the model for `user`, creating it when absent.
    pub fn with_model<T>(&self, user: UserId, f: impl FnOnce(&mut SmartUserModel) -> T) -> T {
        self.with_model_slot(user, |slot| f(slot.get_or_create()))
    }

    /// Applies `f` to a **lazily materializing** handle for `user`'s
    /// model, under one shard write-lock acquisition. Unlike
    /// [`SumRegistry::with_model`], the model is only created (or even
    /// probed) when `f` actually asks for it via
    /// [`ModelSlot::get_or_create`] — so an event that turns out to
    /// touch no per-user state (a message delivery, a rejected EIT
    /// answer) leaves no empty model behind, and a batch of events for
    /// one user pays the lock once instead of once per event.
    pub fn with_model_slot<T>(&self, user: UserId, f: impl FnOnce(&mut ModelSlot) -> T) -> T {
        let shard = self.shard(user);
        let mut state = shard.state.lock();
        let result = {
            let mut slot = ModelSlot { shard, state: &mut state, user, dim: self.dim, slot: None };
            f(&mut slot)
        };
        self.flush_dirty(shard, &mut state);
        result
    }

    /// The internal shard a user's model lives in (the batched ingest
    /// path buckets events by it so each bucket shares one lock
    /// acquisition, and the scoring loop groups an audience by it so
    /// each group shares one read guard).
    #[inline]
    pub(crate) fn shard_index_of(user: UserId) -> usize {
        user.raw() as usize % SHARDS
    }

    /// Locks one internal shard and hands `f` a slot factory for the
    /// users living there — the batched-ingest fast path: a whole
    /// bucket of events applies under a single write-lock acquisition,
    /// with one map probe per event instead of one lock *and* one
    /// probe. Callers must only request slots for users of this shard
    /// (debug-asserted in [`ShardModels::slot`]).
    pub(crate) fn with_shard_models<T>(
        &self,
        shard_index: usize,
        f: impl FnOnce(&mut ShardModels) -> T,
    ) -> T {
        let shard = &self.shards[shard_index];
        let mut state = shard.state.lock();
        let result = {
            let mut models = ShardModels { shard, state: &mut state, dim: self.dim, shard_index };
            f(&mut models)
        };
        self.flush_dirty(shard, &mut state);
        result
    }

    /// The published rows of internal shard `shard_index`, under one
    /// read guard: the scoring loop reads every audience member of one
    /// shard through it. Holding it delays a section end on this shard
    /// (which waits to copy rows in), never another reader; keep it
    /// short.
    #[inline]
    pub(crate) fn shard_rows(&self, shard_index: usize) -> ShardRows<'_> {
        ShardRows { table: self.shards[shard_index].table.read(), dim: self.dim }
    }

    /// Applies `f` to `user`'s published advice row — bit-identical to
    /// `advice_row(schema)` of the model as it stood when the last
    /// write section touching it ended; `None` when the user has no
    /// model. Takes the shard table's read guard, so it never waits on
    /// ingest, checkpoint or a WAL write, only on a section end copying
    /// rows into this shard (see [`SumRegistry`]); keep `f` short.
    #[inline]
    pub(crate) fn with_advice_row<T>(
        &self,
        user: UserId,
        f: impl FnOnce(Option<RowView<'_>>) -> T,
    ) -> T {
        f(self.shard_rows(Self::shard_index_of(user)).row(user))
    }

    /// Applies `f` to a *borrowed* master model — the clone-free
    /// counterpart of [`SumRegistry::get`] (`None` when the user has no
    /// model). Holds the user's shard mutex for the duration of `f`, so
    /// it waits for a write section on that shard to end, and — the
    /// mutex is not re-entrant — must not be called from inside
    /// [`SumRegistry::with_model`] / [`SumRegistry::with_model_slot`]
    /// or another `with_model_read`.
    pub(crate) fn with_model_read<T>(
        &self,
        user: UserId,
        f: impl FnOnce(Option<&SmartUserModel>) -> T,
    ) -> T {
        let shard = self.shard(user);
        let state = shard.state.lock();
        let slot = shard.table.read().slot(user);
        f(slot.map(|slot| &state.masters[slot].model))
    }

    /// Inserts (or replaces) a fully materialized model — the snapshot
    /// restore path, which rebuilds models from checkpoint bytes rather
    /// than replaying their update history. Publishes unconditionally:
    /// a restored model may carry the same update counter as the entry
    /// it replaces while differing in content.
    pub(crate) fn insert_model(&self, model: SmartUserModel) {
        debug_assert_eq!(model.dim(), self.dim, "model dimension must match the registry");
        let shard = self.shard(model.user);
        let mut state = shard.state.lock();
        let slot = shard.slot_or_register(&mut state, model.user, self.dim);
        let ShardState { masters, row_indices, row_values, .. } = &mut *state;
        let master = &mut masters[slot];
        master.model = model;
        let mut table = shard.table.write();
        publish_row(master, &mut table.rows[slot], &self.factors, row_indices, row_values);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Serializes every model into `out` — the SUM section of a
    /// platform checkpoint ([`crate::snapshot`]). Takes each shard's
    /// mutex once and holds them all while it writes, so the models
    /// form one consistent cut.
    ///
    /// Layout (little-endian): `dim u32 | count u64`, then per model in
    /// ascending user order: `user u32 | updates u64 | 10 × u32 eit
    /// counters | nnz u32 | nnz × (idx u32, value-bits u64,
    /// relevance-bits u64)`. Only attributes where either the value or
    /// the relevance is a non-zero *bit pattern* are stored (advice
    /// rows carry a handful of nonzeros out of 75, §5.2), and floats
    /// travel as raw bits, so the round trip through
    /// [`SumRegistry::restore_state`] is exact to the bit — including
    /// a negative zero, should an update rule ever produce one.
    ///
    /// `out` is reserved once, for the most the models can take, so a
    /// multi-megabyte section is never regrown by copying.
    pub fn write_state(&self, out: &mut Vec<u8>) {
        self.write_state_leaving(out, 0);
    }

    /// [`SumRegistry::write_state`] reserving `room_after` more bytes
    /// for what the caller appends behind the section, so that does not
    /// regrow `out` either.
    pub(crate) fn write_state_leaving(&self, out: &mut Vec<u8>, room_after: usize) {
        let states: Vec<_> = self.shards.iter().map(|shard| shard.state.lock()).collect();
        // (user, slot): a user's shard follows from its id
        let mut bound = 12;
        let mut order: Vec<(u32, u32)> = states
            .iter()
            .flat_map(|state| state.masters.iter().enumerate())
            .map(|(slot, master)| {
                bound += master.model.record_len_bound();
                (master.model.user.raw(), slot as u32)
            })
            .collect();
        order.sort_unstable();
        out.reserve(bound + room_after);
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(order.len() as u64).to_le_bytes());
        for (user, slot) in order {
            let state = &states[Self::shard_index_of(UserId::new(user))];
            state.masters[slot as usize].model.write_to(out);
        }
    }

    /// Rebuilds models from bytes written by
    /// [`SumRegistry::write_state`], inserting them into this (fresh)
    /// registry. Returns how many models were restored. Every length
    /// and index is bounds-checked, so corrupt input errors rather
    /// than panics — though in practice the enclosing snapshot CRC
    /// rejects corruption before decoding starts.
    pub fn restore_state(&self, bytes: &[u8]) -> Result<u64> {
        use spa_store::snapshot::take;
        let mut cursor = bytes;
        let dim = u32::from_le_bytes(take(&mut cursor, 4, "dim")?.try_into().expect("4")) as usize;
        if dim != self.dim {
            return Err(SpaError::DimensionMismatch { got: dim, expected: self.dim });
        }
        let count = u64::from_le_bytes(take(&mut cursor, 8, "model count")?.try_into().expect("8"));
        for _ in 0..count {
            self.insert_model(SmartUserModel::read_from(&mut cursor, dim)?);
        }
        if !cursor.is_empty() {
            return Err(SpaError::Corrupt(format!(
                "{} trailing bytes after SUM state",
                cursor.len()
            )));
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::EMOTIONAL_ATTRIBUTES;

    fn schema() -> AttributeSchema {
        AttributeSchema::emagister()
    }

    fn emo_attr(schema: &AttributeSchema, ordinal: usize) -> AttributeId {
        schema.emotional_ids()[ordinal]
    }

    #[test]
    fn fresh_model_is_empty() {
        let m = SmartUserModel::new(UserId::new(1), 75);
        assert_eq!(m.dim(), 75);
        assert_eq!(m.feature_row().nnz(), 0);
        assert_eq!(m.updates, 0);
    }

    #[test]
    fn observed_attributes_have_full_relevance() {
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        m.set_observed(AttributeId::new(3), 0.7).unwrap();
        assert_eq!(m.value(AttributeId::new(3)), 0.7);
        assert_eq!(m.relevance(AttributeId::new(3)), 1.0);
        assert!(m.set_observed(AttributeId::new(99), 0.5).is_err());
        // clamped
        m.set_observed(AttributeId::new(4), 7.0).unwrap();
        assert_eq!(m.value(AttributeId::new(4)), 1.0);
    }

    #[test]
    fn first_eit_answer_sets_the_estimate() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let attr = emo_attr(&s, 0);
        m.apply_eit_answer(attr, 0, Valence::new(0.6)).unwrap();
        // sensibility = (0.6 + 1)/2 = 0.8
        assert!((m.value(attr) - 0.8).abs() < 1e-12);
        assert_eq!(m.eit_answer_counts()[0], 1);
    }

    #[test]
    fn repeated_answers_blend_toward_truth() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let attr = emo_attr(&s, 2);
        // truth 0.9 expressed repeatedly
        for _ in 0..12 {
            m.apply_eit_answer(attr, 2, Valence::new(0.8)).unwrap();
        }
        assert!((m.value(attr) - 0.9).abs() < 0.02);
        assert!(m.relevance(attr) > 0.9, "relevance accumulates");
    }

    #[test]
    fn eit_answer_validates_ordinal() {
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        assert!(m.apply_eit_answer(AttributeId::new(70), 10, Valence::NEUTRAL).is_err());
    }

    #[test]
    fn reward_raises_and_punish_lowers() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let attr = emo_attr(&s, 1);
        m.apply_eit_answer(attr, 1, Valence::NEUTRAL).unwrap(); // 0.5
        let before = m.value(attr);
        m.reward(&[attr]).unwrap();
        let after_reward = m.value(attr);
        assert!(after_reward > before);
        m.punish(&[attr]).unwrap();
        assert!(m.value(attr) < after_reward);
        assert!(m.value(attr) >= 0.0);
    }

    #[test]
    fn reward_never_exceeds_one_punish_never_below_zero() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let attr = emo_attr(&s, 0);
        m.apply_eit_answer(attr, 0, Valence::MAX).unwrap();
        for _ in 0..100 {
            m.reward(&[attr]).unwrap();
        }
        assert!(m.value(attr) <= 1.0);
        for _ in 0..500 {
            m.punish(&[attr]).unwrap();
        }
        assert!(m.value(attr) >= 0.0);
    }

    #[test]
    fn feature_row_only_contains_observed_attributes() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        m.set_observed(AttributeId::new(0), 0.5).unwrap();
        m.apply_eit_answer(emo_attr(&s, 3), 3, Valence::new(0.2)).unwrap();
        let row = m.feature_row();
        assert_eq!(row.nnz(), 2);
        assert_eq!(row.dim(), 75);
    }

    #[test]
    fn advice_row_activates_positive_and_inhibits_negative() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        // enthusiastic (ordinal 0, valence +1) and apathetic (ordinal 9,
        // valence −1), both at estimate 0.5 with relevance grown
        let enthusiastic = emo_attr(&s, 0);
        let apathetic = emo_attr(&s, 9);
        for _ in 0..5 {
            m.apply_eit_answer(enthusiastic, 0, Valence::NEUTRAL).unwrap();
            m.apply_eit_answer(apathetic, 9, Valence::NEUTRAL).unwrap();
        }
        let plain = m.feature_row();
        let advised = m.advice_row(&s).unwrap();
        assert!(
            advised.get(enthusiastic.raw()) > plain.get(enthusiastic.raw()),
            "positive valence activates"
        );
        assert!(
            advised.get(apathetic.raw()) < plain.get(apathetic.raw()),
            "negative valence inhibits"
        );
        // non-emotional attributes pass through unchanged
        m.set_observed(AttributeId::new(0), 0.4).unwrap();
        let advised = m.advice_row(&s).unwrap();
        assert!((advised.get(0) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn advice_row_checks_schema_dimension() {
        let m = SmartUserModel::new(UserId::new(1), 10);
        assert!(m.advice_row(&schema()).is_err());
    }

    /// A model with mixed objective/subjective/emotional coverage, for
    /// advice-path equivalence tests.
    fn mixed_model(s: &AttributeSchema) -> SmartUserModel {
        let mut m = SmartUserModel::new(UserId::new(7), 75);
        m.set_observed(AttributeId::new(0), 0.4).unwrap();
        m.set_observed(AttributeId::new(17), 0.0).unwrap(); // floored at 1e-9
        m.observe_subjective(AttributeId::new(44), 0.6).unwrap();
        for (ordinal, v) in [(0usize, 0.9), (6, 0.5), (9, -0.7)] {
            for _ in 0..3 {
                m.apply_eit_answer(emo_attr(s, ordinal), ordinal, Valence::new(v)).unwrap();
            }
        }
        m
    }

    #[test]
    fn advice_compact_into_matches_advice_row() {
        let s = schema();
        let m = mixed_model(&s);
        let factors = AdviceFactors::new(&s);
        let reference = m.advice_row(&s).unwrap();
        let mut indices = [u32::MAX; 75]; // pre-poisoned
        let mut values = [f64::NAN; 75];
        let n = m.advice_compact_into(&factors, &mut indices, &mut values);
        assert_eq!(n, reference.nnz());
        assert_eq!(&indices[..n], reference.indices());
        for (a, b) in values[..n].iter().zip(reference.values().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "compact advice row diverges");
        }
    }

    #[test]
    fn with_model_read_borrows_without_cloning() {
        let reg = SumRegistry::new(&schema());
        assert!(reg.with_model_read(UserId::new(3), |m| m.is_none()));
        reg.with_model(UserId::new(3), |m| m.set_observed(AttributeId::new(2), 0.8).unwrap());
        let value = reg.with_model_read(UserId::new(3), |m| m.unwrap().value(AttributeId::new(2)));
        assert_eq!(value, 0.8);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_user_cell_keeps_its_size_with_rows_inline() {
        use std::mem::size_of;
        // a user is a 48 B row in the dense table readers scan (the
        // spilled form's capacity niche carries the variant), a 104 B
        // master under the shard mutex, an 8 B slot-map entry and its
        // master's pairs
        assert_eq!(size_of::<PublishedRow>(), 48);
        assert_eq!(size_of::<Master>(), 104);
    }

    /// Whether `user`'s published row has spilled to the heap.
    fn spilled(reg: &SumRegistry, user: UserId) -> bool {
        let table = reg.shard(user).table.read();
        let slot = table.slot(user).expect("user has a row");
        matches!(table.rows[slot], PublishedRow::Spilled { .. })
    }

    #[test]
    fn rows_cross_the_inline_width_both_ways_and_a_spilled_slot_stays_spilled() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        let user = UserId::new(11);
        let model_of = |stored: usize| {
            let mut m = SmartUserModel::new(user, 75);
            for i in 0..stored {
                let attr = AttributeId::new((7 * i % 75) as u32);
                m.set_observed(attr, 0.1 + i as f64 / 100.0).unwrap();
            }
            m
        };
        // widths on both sides of the inline limit, each published
        // twice
        let widths = [0, 3, 4, 2, 40, 1, 3, 0, 75, 5];
        for (step, &width) in widths.iter().enumerate() {
            for _ in 0..2 {
                let model = model_of(width);
                reg.insert_model(model.clone());
                assert_published_row_matches(&reg, user, &model);
            }
            // a row spills at its first width past the limit and stays
            // spilled: only the first widths can still be inline
            let ever_spilled = widths[..=step].iter().any(|&w| w > INLINE_ENTRIES);
            assert_eq!(spilled(&reg, user), ever_spilled, "after width {width}");
        }
    }

    /// The registry's published row against the allocating reference.
    fn assert_published_row_matches(reg: &SumRegistry, user: UserId, model: &SmartUserModel) {
        let reference = model.advice_row(&schema()).unwrap();
        reg.with_advice_row(user, |row| {
            let row = row.expect("user has a published row");
            assert_eq!(row.dim(), 75);
            assert_eq!(row.indices(), reference.indices());
            for (a, b) in row.values().iter().zip(reference.values().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "published row diverges from advice_row");
            }
        });
    }

    #[test]
    fn section_end_publishes_the_advice_row_of_the_master() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        let user = UserId::new(7);
        assert!(reg.with_advice_row(user, |row| row.is_none()), "unknown users have no row");
        // three sections, so the row is refilled in place twice
        for round in 0..3 {
            reg.with_model(user, |m| {
                if round == 0 {
                    *m = mixed_model(&s);
                } else {
                    m.reward(&[emo_attr(&s, 0)]).unwrap();
                }
            });
            assert_published_row_matches(&reg, user, &reg.get(user).unwrap());
        }
        assert_eq!(reg.model_publishes(), 3);
        // a section that materializes the model without mutating it
        // publishes nothing
        reg.with_model_slot(user, |slot| {
            slot.get_or_create();
        });
        assert_eq!(reg.row_stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn insert_model_republishes_even_at_an_unchanged_update_counter() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        let original = mixed_model(&s);
        reg.insert_model(original.clone());
        assert_published_row_matches(&reg, original.user, &original);
        // same user, same `updates`, different contents — what a
        // restore into a warm registry hands over
        let mut swapped = original.clone();
        swapped.pair_mut(0)[0] = 0.9;
        assert_eq!(swapped.updates, original.updates);
        reg.insert_model(swapped.clone());
        assert_published_row_matches(&reg, swapped.user, &swapped);
        assert_eq!(reg.model_publishes(), 2);
    }

    #[test]
    fn dominant_sensibilities_break_ties_by_ascending_attribute_id() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let ids = s.emotional_ids();
        // three attributes pinned to the *same* estimate above threshold
        for &ordinal in &[4usize, 1, 8] {
            m.set_observed(ids[ordinal], 0.75).unwrap();
        }
        let dom = m.dominant_sensibilities(&ids);
        let order: Vec<u32> = dom.iter().map(|(a, _)| a.raw()).collect();
        assert_eq!(order, vec![ids[1].raw(), ids[4].raw(), ids[8].raw()]);
        // and the order must not depend on how emotional_ids is permuted
        let reversed: Vec<AttributeId> = ids.iter().rev().copied().collect();
        assert_eq!(m.dominant_sensibilities(&reversed), dom);
    }

    #[test]
    fn dominant_sensibilities_sorted_and_thresholded() {
        let s = schema();
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let ids = s.emotional_ids();
        m.apply_eit_answer(ids[0], 0, Valence::new(0.9)).unwrap(); // 0.95
        m.apply_eit_answer(ids[1], 1, Valence::new(0.4)).unwrap(); // 0.70
        m.apply_eit_answer(ids[2], 2, Valence::new(-0.5)).unwrap(); // 0.25
        let dom = m.dominant_sensibilities(&ids);
        assert_eq!(dom.len(), 2, "0.25 is below the 0.6 threshold");
        assert_eq!(dom[0].0, ids[0]);
        assert_eq!(dom[1].0, ids[1]);
        assert!(dom[0].1 > dom[1].1);
    }

    #[test]
    fn registry_creates_on_demand_and_counts() {
        let reg = SumRegistry::new(&schema());
        assert!(reg.is_empty());
        reg.with_model(UserId::new(5), |m| {
            m.set_observed(AttributeId::new(1), 0.3).unwrap();
        });
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(UserId::new(5)).unwrap().value(AttributeId::new(1)), 0.3);
        assert!(reg.get(UserId::new(6)).is_none());
    }

    #[test]
    fn registry_state_round_trips_bit_exactly() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        for id in 0..40u32 {
            reg.with_model(UserId::new(id), |m| {
                m.set_observed(AttributeId::new(id % 40), id as f64 / 41.0).unwrap();
                m.apply_eit_answer(
                    s.emotional_ids()[(id % 10) as usize],
                    (id % 10) as usize,
                    Valence::new(0.3),
                )
                .unwrap();
                if id % 3 == 0 {
                    m.reward(&[s.emotional_ids()[0]]).unwrap();
                }
            });
        }
        let mut state = Vec::new();
        reg.write_state(&mut state);
        let restored = SumRegistry::new(&schema());
        assert_eq!(restored.restore_state(&state).unwrap(), 40);
        assert_eq!(restored.len(), 40);
        for id in 0..40u32 {
            let a = reg.get(UserId::new(id)).unwrap();
            let b = restored.get(UserId::new(id)).unwrap();
            assert_eq!(a.updates, b.updates);
            assert_eq!(a.eit_answer_counts(), b.eit_answer_counts());
            for i in 0..75u32 {
                let attr = AttributeId::new(i);
                assert_eq!(a.value(attr).to_bits(), b.value(attr).to_bits());
                assert_eq!(a.relevance(attr).to_bits(), b.relevance(attr).to_bits());
            }
        }
        // trailing garbage is loud
        let mut trailing = state.clone();
        trailing.push(0);
        assert!(SumRegistry::new(&schema()).restore_state(&trailing).is_err());
    }

    #[test]
    fn registry_restore_validates_dimensions() {
        let reg = SumRegistry::new(&schema());
        reg.with_model(UserId::new(1), |m| m.set_observed(AttributeId::new(0), 0.5).unwrap());
        let mut state = Vec::new();
        reg.write_state(&mut state);
        let mut narrow = AttributeSchema::new();
        for i in 0..10 {
            narrow.push(format!("a{i}"), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        }
        let restored = SumRegistry::new(&narrow);
        assert!(matches!(
            restored.restore_state(&state),
            Err(SpaError::DimensionMismatch { got: 75, expected: 10 })
        ));
        assert!(restored.is_empty(), "a refused state restores nothing");
    }

    #[test]
    fn registry_is_thread_safe() {
        let reg = std::sync::Arc::new(SumRegistry::new(&schema()));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    reg.with_model(UserId::new((t * 1000 + i) % 100), |m| {
                        m.set_observed(AttributeId::new(0), 0.5).unwrap();
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.len(), 100);
    }

    #[test]
    fn emotional_ordinals_align_with_paper_order() {
        // guard: the ten emotional attributes of the schema appear in
        // EMOTIONAL_ATTRIBUTES order, so ordinal ↔ attribute mapping is
        // stable across the codebase
        let s = schema();
        for (ordinal, id) in s.emotional_ids().into_iter().enumerate() {
            assert_eq!(s.get(id).unwrap().name, EMOTIONAL_ATTRIBUTES[ordinal].name());
        }
    }

    /// The dense master every model was before its layout followed its
    /// content: one interleaved `[estimate, relevance]` pair per schema
    /// attribute, under the same update rules. The differential test
    /// holds [`SmartUserModel`] to it.
    #[derive(Debug, Clone)]
    struct DenseOracle {
        user: UserId,
        cells: Vec<f64>,
        eit_answers: [u32; 10],
        updates: u64,
    }

    impl DenseOracle {
        fn new(user: UserId, dim: usize) -> Self {
            Self { user, cells: vec![0.0; 2 * dim], eit_answers: [0; 10], updates: 0 }
        }

        fn dim(&self) -> usize {
            self.cells.len() / 2
        }

        fn value(&self, attr: AttributeId) -> f64 {
            self.cells.get(2 * attr.index()).copied().unwrap_or(0.0)
        }

        fn relevance(&self, attr: AttributeId) -> f64 {
            self.cells.get(2 * attr.index() + 1).copied().unwrap_or(0.0)
        }

        fn check(&self, attr: AttributeId) -> Result<()> {
            if attr.index() >= self.dim() {
                return Err(SpaError::DimensionMismatch {
                    got: attr.index() + 1,
                    expected: self.dim(),
                });
            }
            Ok(())
        }

        fn set_observed(&mut self, attr: AttributeId, value: f64) -> Result<()> {
            self.check(attr)?;
            let i = 2 * attr.index();
            self.cells[i] = value.clamp(0.0, 1.0);
            self.cells[i + 1] = 1.0;
            self.updates += 1;
            Ok(())
        }

        fn import_objective(&mut self, values: &[f64]) -> Result<()> {
            for (i, &v) in values.iter().enumerate() {
                self.set_observed(AttributeId::new(i as u32), v)?;
            }
            Ok(())
        }

        fn observe_subjective(&mut self, attr: AttributeId, value: f64) -> Result<()> {
            self.check(attr)?;
            let i = 2 * attr.index();
            self.cells[i] = if self.cells[i + 1] == 0.0 {
                value.clamp(0.0, 1.0)
            } else {
                (1.0 - SUBJECTIVE_BLEND) * self.cells[i] + SUBJECTIVE_BLEND * value.clamp(0.0, 1.0)
            };
            self.cells[i + 1] = (self.cells[i + 1] + RELEVANCE_GAIN).min(1.0);
            self.updates += 1;
            Ok(())
        }

        fn apply_eit_answer(
            &mut self,
            attr: AttributeId,
            emo_ordinal: usize,
            answer: Valence,
        ) -> Result<()> {
            self.check(attr)?;
            if emo_ordinal >= 10 {
                return Err(SpaError::Invalid(format!(
                    "emotional ordinal {emo_ordinal} out of range"
                )));
            }
            let sensed = (answer.value() + 1.0) / 2.0;
            let i = 2 * attr.index();
            self.cells[i] = if self.eit_answers[emo_ordinal] == 0 {
                sensed
            } else {
                (1.0 - EIT_BLEND) * self.cells[i] + EIT_BLEND * sensed
            };
            self.cells[i + 1] = (self.cells[i + 1] + RELEVANCE_GAIN).min(1.0);
            self.eit_answers[emo_ordinal] += 1;
            self.updates += 1;
            Ok(())
        }

        fn reward(&mut self, attrs: &[AttributeId]) -> Result<()> {
            attrs.iter().try_for_each(|&attr| self.check(attr))?;
            for &attr in attrs {
                let i = 2 * attr.index();
                self.cells[i] += (1.0 - self.cells[i]) * REWARD_RATE;
                self.cells[i + 1] = (self.cells[i + 1] + RELEVANCE_GAIN / 2.0).min(1.0);
            }
            self.updates += 1;
            Ok(())
        }

        fn punish(&mut self, attrs: &[AttributeId]) -> Result<()> {
            attrs.iter().try_for_each(|&attr| self.check(attr))?;
            for &attr in attrs {
                let i = 2 * attr.index();
                self.cells[i] -= self.cells[i] * PUNISH_RATE;
            }
            self.updates += 1;
            Ok(())
        }

        fn feature_row(&self) -> SparseVec {
            let pairs = self
                .cells
                .chunks_exact(2)
                .enumerate()
                .filter(|&(_, pair)| pair[1] > 0.0)
                .map(|(i, pair)| (i as u32, pair[0].max(1e-9)));
            SparseVec::from_pairs(self.dim(), pairs).unwrap()
        }

        fn advice_row(&self, schema: &AttributeSchema) -> SparseVec {
            let pairs = self.cells.chunks_exact(2).enumerate().filter(|&(_, p)| p[1] > 0.0).map(
                |(i, pair)| {
                    let (v, r) = (pair[0], pair[1]);
                    let def = schema.get(AttributeId::new(i as u32)).unwrap();
                    let factor = if def.kind == AttributeKind::Emotional {
                        (1.0 + def.valence.value() * r).max(0.0)
                    } else {
                        1.0
                    };
                    (i as u32, (v * factor).max(1e-9))
                },
            );
            SparseVec::from_pairs(self.dim(), pairs).unwrap()
        }

        fn advice_compact(&self, factors: &AdviceFactors) -> (Vec<u32>, Vec<u64>) {
            let (mut indices, mut values) = (Vec::new(), Vec::new());
            for (i, pair) in self.cells.chunks_exact(2).enumerate() {
                if pair[1] > 0.0 {
                    indices.push(i as u32);
                    values.push((pair[0] * factors.factor(i, pair[1])).max(1e-9).to_bits());
                }
            }
            (indices, values)
        }

        fn write_to(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.user.raw().to_le_bytes());
            out.extend_from_slice(&self.updates.to_le_bytes());
            for c in &self.eit_answers {
                out.extend_from_slice(&c.to_le_bytes());
            }
            let live = self
                .cells
                .chunks_exact(2)
                .enumerate()
                .filter(|&(_, pair)| pair[0].to_bits() != 0 || pair[1].to_bits() != 0);
            out.extend_from_slice(&(live.clone().count() as u32).to_le_bytes());
            for (i, pair) in live {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&pair[0].to_bits().to_le_bytes());
                out.extend_from_slice(&pair[1].to_bits().to_le_bytes());
            }
        }
    }

    /// A `dim`-attribute schema: the emagister one at 75, otherwise
    /// every third attribute emotional with a valence of alternating
    /// sign, so advice factors both activate and inhibit.
    fn schema_of(dim: usize) -> AttributeSchema {
        if dim == 75 {
            return schema();
        }
        let mut s = AttributeSchema::new();
        for i in 0..dim {
            let (kind, valence) = match i % 3 {
                0 => (AttributeKind::Emotional, Valence::new(if i % 2 == 0 { 0.8 } else { -0.6 })),
                1 => (AttributeKind::Objective, Valence::NEUTRAL),
                _ => (AttributeKind::Subjective, Valence::NEUTRAL),
            };
            s.push(format!("a{i}"), kind, valence).unwrap();
        }
        s
    }

    fn bits(row: &SparseVec) -> (Vec<u32>, Vec<u64>) {
        (row.indices().to_vec(), row.values().iter().map(|v| v.to_bits()).collect())
    }

    fn record(model: &SmartUserModel) -> Vec<u8> {
        let mut out = Vec::new();
        model.write_to(&mut out);
        out
    }

    /// Every reader of `model` against the oracle, bit for bit, and the
    /// model's record restored back to a model `==` to it.
    fn assert_matches_oracle(model: &SmartUserModel, oracle: &DenseOracle, s: &AttributeSchema) {
        let dim = oracle.dim();
        assert_eq!(model.dim(), dim);
        assert_eq!(model.updates, oracle.updates);
        assert_eq!(model.eit_answer_counts(), &oracle.eit_answers);
        for i in 0..dim as u32 + 2 {
            let attr = AttributeId::new(i);
            assert_eq!(model.value(attr).to_bits(), oracle.value(attr).to_bits(), "value {i}");
            assert_eq!(model.relevance(attr).to_bits(), oracle.relevance(attr).to_bits());
        }
        assert_eq!(bits(&model.feature_row()), bits(&oracle.feature_row()));
        assert_eq!(bits(&model.advice_row(s).unwrap()), bits(&oracle.advice_row(s)));
        let factors = AdviceFactors::new(s);
        let (mut indices, mut values) = (vec![u32::MAX; dim], vec![f64::NAN; dim]);
        let n = model.advice_compact_into(&factors, &mut indices, &mut values);
        let compact = (indices[..n].to_vec(), values[..n].iter().map(|v| v.to_bits()).collect());
        assert_eq!(compact, oracle.advice_compact(&factors));
        let bytes = record(model);
        let mut expected = Vec::new();
        oracle.write_to(&mut expected);
        assert_eq!(bytes, expected, "write_state bytes");
        let mut cursor = &bytes[..];
        let restored = SmartUserModel::read_from(&mut cursor, dim).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(&restored, model, "a restored model equals the live one");
        assert_eq!(record(&restored), bytes);
    }

    /// A fresh model's record for `user`, holding one all-zero pair at
    /// attribute `index`.
    fn zero_pair_record(user: UserId, index: u32) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&user.raw().to_le_bytes());
        out.extend_from_slice(&[0; 8 + 40]); // updates, EIT counters
        out.extend_from_slice(&1u32.to_le_bytes()); // nnz
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(&[0; 16]); // estimate and relevance bits
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Arbitrary update sequences at dims 10 and 75 — long enough to
        /// cross the sparse → dense switch at both — leave the model
        /// bit-identical to the dense oracle after every step, errors
        /// included.
        #[test]
        fn model_matches_the_dense_oracle_across_the_switch(
            ops in proptest::collection::vec(
                (0u8..6, 0u32..1_000, -0.5f64..1.5, 0usize..11, 0usize..45),
                0..160,
            ),
            zero_pair in (proptest::bool::ANY, 0u32..1_000),
        ) {
            let (restored, zero_at) = zero_pair;
            for dim in [10usize, 75] {
                let s = schema_of(dim);
                // no update rule stores an all-zero pair, but a restored
                // record may hold one, which the model's own record
                // must leave out
                let mut model = if restored {
                    let bytes = zero_pair_record(UserId::new(9), zero_at % dim as u32);
                    let model = SmartUserModel::read_from(&mut &bytes[..], dim).unwrap();
                    assert_eq!(model.cells.len(), 1, "the zero pair is stored");
                    model
                } else {
                    SmartUserModel::new(UserId::new(9), dim)
                };
                let mut oracle = DenseOracle::new(UserId::new(9), dim);
                assert_matches_oracle(&model, &oracle, &s);
                for &(op, raw, value, ordinal, count) in &ops {
                    // one attribute in dim + 1 is out of range
                    let attr = AttributeId::new(raw % (dim as u32 + 1));
                    let appeal = [attr, AttributeId::new(raw / 7 % dim as u32)];
                    let objective: Vec<f64> =
                        (0..count).map(|k| (value + k as f64 * 0.37) % 1.3).collect();
                    let answer = Valence::new(value.clamp(-1.0, 1.0));
                    let (got, want) = match op {
                        0 => (model.set_observed(attr, value), oracle.set_observed(attr, value)),
                        1 => (
                            model.observe_subjective(attr, value),
                            oracle.observe_subjective(attr, value),
                        ),
                        2 => (
                            model.apply_eit_answer(attr, ordinal, answer),
                            oracle.apply_eit_answer(attr, ordinal, answer),
                        ),
                        3 => (model.reward(&appeal), oracle.reward(&appeal)),
                        4 => (model.punish(&appeal), oracle.punish(&appeal)),
                        _ => (
                            model.import_objective(&objective),
                            oracle.import_objective(&objective),
                        ),
                    };
                    proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    assert_matches_oracle(&model, &oracle, &s);
                }
            }
        }
    }

    #[test]
    fn the_switch_to_dense_comes_at_half_the_schema() {
        for (dim, half) in [(10usize, 5usize), (75, 38)] {
            let s = schema_of(dim);
            let mut model = SmartUserModel::new(UserId::new(1), dim);
            let mut oracle = DenseOracle::new(UserId::new(1), dim);
            // descending, so every sparse insertion lands in front
            for i in (dim - half..dim).rev() {
                assert!(!model.is_dense(), "{} stored of {dim}", model.cells.len());
                let attr = AttributeId::new(i as u32);
                model.set_observed(attr, i as f64 / dim as f64).unwrap();
                oracle.set_observed(attr, i as f64 / dim as f64).unwrap();
                assert_matches_oracle(&model, &oracle, &s);
            }
            assert!(model.is_dense(), "dense once {half} of {dim} are stored");
            // one way: an update that lowers a value keeps the form
            model.punish(&[AttributeId::new(dim as u32 - 1)]).unwrap();
            assert!(model.is_dense());
        }
    }

    #[test]
    fn an_objective_import_of_half_the_schema_goes_dense_at_once() {
        let mut model = SmartUserModel::new(UserId::new(1), 75);
        model.import_objective(&[0.5; 38]).unwrap();
        assert!(model.is_dense());
        let mut narrow = SmartUserModel::new(UserId::new(1), 75);
        narrow.import_objective(&[0.5; 37]).unwrap();
        assert!(!narrow.is_dense(), "37 of 75 stays sparse");
        assert_eq!(narrow.cells.len(), 37);
    }

    #[test]
    fn punish_on_an_absent_attribute_stores_nothing() {
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        m.set_observed(AttributeId::new(3), 0.5).unwrap();
        m.punish(&[AttributeId::new(4), AttributeId::new(70)]).unwrap();
        assert_eq!(m.cells.len(), 1, "only the observed attribute is stored");
        assert_eq!(m.position(4), None);
        assert_eq!(m.updates, 2, "the punishment still counts as an update");
        m.punish(&[AttributeId::new(3)]).unwrap();
        assert_eq!(m.value(AttributeId::new(3)), 0.5 - 0.5 * PUNISH_RATE);
    }

    /// The calibrated inputs, pinned through what they do: one of each
    /// update rule on a fresh model, every pair it leaves to the bit.
    #[test]
    fn the_update_rules_apply_the_calibrated_rates() {
        let s = schema();
        let (eit, subjective) = (emo_attr(&s, 0), AttributeId::new(44));
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        m.apply_eit_answer(eit, 0, Valence::new(0.6)).unwrap(); // 0.8
        m.apply_eit_answer(eit, 0, Valence::new(-0.2)).unwrap(); // 0.65 · 0.8 + 0.35 · 0.4
        m.observe_subjective(subjective, 0.7).unwrap();
        m.observe_subjective(subjective, 0.2).unwrap(); // 0.7 · 0.7 + 0.3 · 0.2
        m.reward(&[eit]).unwrap(); // 0.66 + 0.12 · 0.34, relevance + 0.1
        m.punish(&[subjective]).unwrap(); // 0.55 − 0.05 · 0.55
        let bits = |attr| [m.value(attr).to_bits(), m.relevance(attr).to_bits()];
        assert_eq!(bits(eit), [0x3fe6_6cf4_1f21_2d77, 0.5f64.to_bits()], "≈ 0.7008");
        assert_eq!(bits(subjective), [0x3fe0_b851_eb85_1eb8, 0.4f64.to_bits()], "≈ 0.5225");
        // the sensibility threshold admits 0.6 and not 0.5
        m.apply_eit_answer(emo_attr(&s, 1), 1, Valence::new(0.2)).unwrap();
        m.apply_eit_answer(emo_attr(&s, 2), 2, Valence::NEUTRAL).unwrap();
        let dominant: Vec<AttributeId> =
            m.dominant_sensibilities(&s.emotional_ids()).iter().map(|&(a, _)| a).collect();
        assert_eq!(dominant, [eit, emo_attr(&s, 1)]);
    }

    #[test]
    fn reward_and_punish_move_nothing_when_one_attribute_is_out_of_range() {
        let mut m = SmartUserModel::new(UserId::new(1), 75);
        let valid = AttributeId::new(66);
        m.set_observed(valid, 0.5).unwrap();
        let before = m.clone();
        let appeal = [valid, AttributeId::new(75)];
        assert!(m.reward(&appeal).is_err());
        assert_eq!(m, before, "a failed reward moves no pair");
        assert!(m.punish(&appeal).is_err());
        assert_eq!(m, before, "a failed punishment moves no pair");
    }

    #[test]
    fn a_schema_wider_than_the_bitmap_starts_dense() {
        assert!(!SmartUserModel::new(UserId::new(1), LIVE_BITS).is_dense());
        let mut wide = SmartUserModel::new(UserId::new(1), LIVE_BITS + 1);
        assert!(wide.is_dense());
        let attr = AttributeId::new(LIVE_BITS as u32);
        wide.set_observed(attr, 0.25).unwrap();
        assert_eq!(wide.value(attr), 0.25);
        assert_eq!(wide.feature_row().indices(), &[LIVE_BITS as u32]);
    }

    #[test]
    fn equality_compares_content_not_layout() {
        let mut sparse = SmartUserModel::new(UserId::new(1), 75);
        sparse.set_observed(AttributeId::new(2), 0.5).unwrap();
        let mut dense = sparse.clone();
        dense.densify();
        assert!(dense.is_dense() && !sparse.is_dense());
        assert_eq!(sparse, dense);
        dense.pair_mut(2)[0] = 0.25;
        assert_ne!(sparse, dense);
    }

    /// The `(slot map, rows, masters)` capacities and the user count of
    /// the registry shard `user` lives in.
    fn shard_capacities(reg: &SumRegistry, user: UserId) -> ([usize; 3], usize) {
        let shard = reg.shard(user);
        let state = shard.state.lock();
        let table = shard.table.read();
        let capacities = [table.slots.capacity(), table.rows.capacity(), state.masters.capacity()];
        (capacities, table.slots.len())
    }

    #[test]
    fn row_tables_and_masters_grow_within_twice_their_users() {
        let reg = SumRegistry::new(&schema());
        for id in 0..20_000u32 {
            let user = UserId::new(id);
            reg.with_model(user, |m| m.set_observed(AttributeId::new(id % 75), 0.5).unwrap());
            let ([map, rows, masters], users) = shard_capacities(&reg, user);
            assert!(map <= 2 * users + 16, "{map} map entries for {users} users at {id}");
            for vec in [rows, masters] {
                assert!(2 * vec <= 3 * users + 32, "{vec} entries for {users} users at {id}");
            }
        }
        assert_eq!(reg.len(), 20_000);
    }

    /// Each heap buffer a registry shard holds, by address and capacity.
    fn shard_buffers(reg: &SumRegistry, user: UserId) -> Vec<(usize, usize)> {
        let shard = reg.shard(user);
        let state = shard.state.lock();
        let table = shard.table.read();
        let mut buffers = vec![
            (table.rows.as_ptr() as usize, table.rows.capacity()),
            (state.masters.as_ptr() as usize, state.masters.capacity()),
            (state.dirty.as_ptr() as usize, state.dirty.capacity()),
            (0, table.slots.capacity()),
        ];
        for row in &table.rows {
            if let PublishedRow::Spilled { indices, values } = row {
                buffers.push((indices.as_ptr() as usize, indices.capacity()));
                buffers.push((values.as_ptr() as usize, values.capacity()));
            }
        }
        for master in &state.masters {
            buffers.push((master.model.cells.as_ptr() as usize, master.model.cells.capacity()));
        }
        buffers
    }

    #[test]
    fn steady_republication_allocates_nothing() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        // one registry shard's users: inline rows of two entries and
        // spilled rows of five
        let users: Vec<UserId> = (0..64u32).map(|i| UserId::new(i * SHARDS as u32)).collect();
        let appeal = |user: UserId| -> Vec<AttributeId> {
            let width = if user.raw().is_multiple_of(2) { 2 } else { 5 };
            (0..width).map(|k| emo_attr(&s, k)).collect()
        };
        for &user in &users {
            reg.with_model(user, |m| m.set_observed(appeal(user)[0], 0.5).unwrap());
            reg.with_model(user, |m| m.reward(&appeal(user)).unwrap());
        }
        let warm = shard_buffers(&reg, users[0]);
        let publishes = reg.model_publishes();
        for round in 0..20 {
            for &user in &users {
                reg.with_model(user, |m| {
                    if round % 2 == 0 {
                        m.reward(&appeal(user)).unwrap();
                    } else {
                        m.punish(&appeal(user)).unwrap();
                    }
                });
            }
        }
        assert_eq!(reg.model_publishes() - publishes, 20 * 64, "every section republished");
        assert_eq!(shard_buffers(&reg, users[0]), warm, "a buffer moved or grew");
        for &user in &users {
            assert_published_row_matches(&reg, user, &reg.get(user).unwrap());
        }
    }

    #[test]
    fn rows_are_found_across_table_growth() {
        let reg = SumRegistry::new(&schema());
        // 500 users over 32 shards, each shard's table growing past
        // 16; attributes below 65 are not emotional, so the advice row
        // holds the estimate itself
        for i in 0..500u32 {
            reg.with_model(UserId::new(i * 3), |m| {
                m.set_observed(AttributeId::new(i % 65), 0.25).unwrap()
            });
        }
        for i in 0..500u32 {
            let row = reg.with_advice_row(UserId::new(i * 3), |row| {
                row.map(|row| (row.indices().to_vec(), row.values().to_vec()))
            });
            assert_eq!(row, Some((vec![i % 65], vec![0.25])), "user {}", i * 3);
        }
        assert!(reg.with_advice_row(UserId::new(1), |row| row.is_none()));
        assert!(reg.with_advice_row(UserId::new(499 * 3 + 1), |row| row.is_none()));
        assert_eq!(reg.len(), 500);
    }

    #[test]
    fn insert_model_replaces_a_present_user_in_its_slot() {
        let s = schema();
        let reg = SumRegistry::new(&s);
        let first = mixed_model(&s);
        let user = first.user;
        reg.with_model(UserId::new(user.raw() + SHARDS as u32), |m| {
            m.set_observed(AttributeId::new(1), 0.5).unwrap()
        });
        reg.insert_model(first.clone());
        let slot = reg.shard(user).table.read().slot(user);
        let mut second = first.clone();
        second.set_observed(AttributeId::new(2), 0.75).unwrap();
        reg.insert_model(second.clone());
        assert_eq!(reg.shard(user).table.read().slot(user), slot, "the user keeps its slot");
        assert_eq!(reg.len(), 2, "replaced, not added");
        assert_eq!(reg.shard(user).state.lock().masters.len(), 2);
        assert_eq!(reg.get(user), Some(second.clone()));
        assert_published_row_matches(&reg, user, &second);
    }

    #[test]
    fn row_reads_race_user_registration() {
        let reg = std::sync::Arc::new(SumRegistry::new(&schema()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (reg, stop) = (reg.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    loop {
                        // one full sweep runs after every insert landed
                        let stopping = stop.load(Ordering::Acquire);
                        for id in 0..2000u32 {
                            reg.with_advice_row(UserId::new(id), |row| {
                                if let Some(row) = row {
                                    // a user is registered with the empty
                                    // row, then its section publishes (a
                                    // non-emotional attribute: the
                                    // estimate itself)
                                    if row.nnz() > 0 {
                                        assert_eq!(row.indices(), &[id % 65]);
                                        assert_eq!(row.values(), &[id as f64 / 4000.0 + 1e-3]);
                                    }
                                    hits += 1;
                                }
                            });
                        }
                        if stopping {
                            return hits;
                        }
                    }
                })
            })
            .collect();
        for id in 0..2000u32 {
            reg.with_model(UserId::new(id), |m| {
                m.set_observed(AttributeId::new(id % 65), id as f64 / 4000.0 + 1e-3).unwrap()
            });
        }
        stop.store(true, Ordering::Release);
        for reader in readers {
            assert!(reader.join().unwrap() >= 2000, "the last sweep sees every user");
        }
        assert_eq!(reg.len(), 2000);
    }

    /// Readers check that every row of `user` they see holds one value
    /// in all its entries while `writers` threads each publish `rounds`
    /// rows of `width` equal entries; a torn row would mix two.
    fn readers_see_only_whole_rows(writers: u32, width: u32, rounds: u32) {
        let reg = std::sync::Arc::new(SumRegistry::new(&schema()));
        let user = UserId::new(7);
        reg.with_model(user, |m| m.set_observed(AttributeId::new(0), 0.5).unwrap());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (reg, stop) = (reg.clone(), stop.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        reg.with_advice_row(user, |row| {
                            let values = row.expect("registered").values();
                            assert!(values.iter().all(|&v| v == values[0]), "torn row {values:?}");
                        });
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..writers)
            .map(|w| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let value = (round * 2 + w) as f64 / (rounds * 2) as f64;
                        reg.with_model(user, |m| {
                            for attr in 0..width {
                                m.set_observed(AttributeId::new(attr), value).unwrap();
                            }
                        });
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_published_row_matches(&reg, user, &reg.get(user).unwrap());
    }

    #[test]
    fn concurrent_readers_only_ever_see_whole_rows() {
        // three entries fit inline
        readers_see_only_whole_rows(1, 3, 10_000);
    }

    #[test]
    fn readers_race_two_writers_without_tearing() {
        // six entries spill, and two writers take turns at the section
        readers_see_only_whole_rows(2, 6, 3_000);
    }
}
