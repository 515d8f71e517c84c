//! The Messaging Agent: individualized persuasive messages.
//!
//! §5.3: "Outstanding salesmen use a different sales talk depending on
//! the customer. … What the Messaging Agent tries to do is to simulate
//! this salesmen behavior." The three-step pipeline is reproduced
//! faithfully:
//!
//! 1. **select** the product attributes usable for the course's sales
//!    talk (the course's `appeal` set);
//! 2. **generate** one message per product attribute (held in a
//!    [`MessageCatalog`], generated once);
//! 3. **assign** a message per user from the sensibilities of their
//!    user model that exceed the sensibility threshold, with the exact
//!    case analysis of §5.3/Fig 5:
//!    * case 3.a — no matching sensibility → standard message;
//!    * case 3.b — exactly one match → that attribute's message;
//!    * case 3.c.i — several matches, assign by product-attribute
//!      *priority* ([`MessagePolicy::Priority`]);
//!    * case 3.c.ii — several matches, assign the attribute with the
//!      user's *highest sensibility* ([`MessagePolicy::MaxSensibility`]).

use spa_types::{EmotionalAttribute, Result, SpaError, EMOTIONAL_ATTRIBUTES};
use std::sync::Arc;

/// How to resolve case 3.c (several matching sensibilities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessagePolicy {
    /// §5.3 case 3.c.i: order product attributes by campaign priority
    /// and use the highest-priority match.
    Priority,
    /// §5.3 case 3.c.ii: use the match with the user's highest
    /// sensibility (default — what Fig 5(c) shows).
    #[default]
    MaxSensibility,
}

/// Which branch of the §5.3 case analysis fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentCase {
    /// 3.a — no sensibility matched the product attributes.
    Standard,
    /// 3.b — exactly one sensibility matched.
    SingleAttribute,
    /// 3.c.i — several matched; priority order decided.
    PriorityOrder,
    /// 3.c.ii — several matched; maximum sensibility decided.
    MaxSensibility,
}

/// The message chosen for one user.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedMessage {
    /// Case that fired.
    pub case: AssignmentCase,
    /// Attribute whose message was used (`None` for the standard one).
    pub attribute: Option<EmotionalAttribute>,
    /// All matching sensibilities in the order the case considered them
    /// (Fig 5(b) prints this full ordering).
    pub matches: Vec<EmotionalAttribute>,
    /// Final message text, shared with the catalog it came from.
    pub text: Arc<str>,
}

/// Pre-generated sales messages: one per emotional attribute plus the
/// standard fallback (§5.3 step 2: "this generation is carried out once
/// and then is saved in a database of messages").
#[derive(Debug, Clone)]
pub struct MessageCatalog {
    standard: Arc<str>,
    /// One message per emotional attribute, indexed by its ordinal.
    per_attribute: [Arc<str>; EMOTIONAL_ATTRIBUTES.len()],
}

impl MessageCatalog {
    /// Default catalog with one emotional argument per attribute.
    pub fn standard_catalog(course_name: &str) -> Self {
        let per_attribute = EMOTIONAL_ATTRIBUTES.map(|emo| {
            let text = match emo {
                EmotionalAttribute::Enthusiastic => format!(
                    "Feel the rush of something new: {course_name} is the course people can't stop talking about!"
                ),
                EmotionalAttribute::Motivated => format!(
                    "You set goals — {course_name} is how you reach the next one. Start today."
                ),
                EmotionalAttribute::Empathic => format!(
                    "Join a community of learners who help each other grow: {course_name} welcomes you."
                ),
                EmotionalAttribute::Hopeful => format!(
                    "A better tomorrow starts with one step: {course_name} opens the door to the future you imagine."
                ),
                EmotionalAttribute::Lively => format!(
                    "Hands-on, fast-paced and never boring: {course_name} keeps the energy high."
                ),
                EmotionalAttribute::Stimulated => format!(
                    "New ideas every session: {course_name} will keep your curiosity firing."
                ),
                EmotionalAttribute::Impatient => format!(
                    "No waiting: {course_name} gets you productive from the very first lesson."
                ),
                EmotionalAttribute::Frightened => format!(
                    "No pressure, no risk: {course_name} comes with step-by-step guidance and a full guarantee."
                ),
                EmotionalAttribute::Shy => format!(
                    "Learn at your own pace, from home, on your terms: {course_name} fits quietly into your life."
                ),
                EmotionalAttribute::Apathetic => format!(
                    "Five minutes a day is enough to start: {course_name} makes it effortless."
                ),
            };
            Arc::from(text)
        });
        Self {
            standard: Arc::from(format!(
                "Discover {course_name} — one of our most popular training courses."
            )),
            per_attribute,
        }
    }

    /// The fallback message.
    pub(crate) fn standard(&self) -> &Arc<str> {
        &self.standard
    }

    /// The message for one attribute.
    pub(crate) fn for_attribute(&self, emo: EmotionalAttribute) -> &Arc<str> {
        &self.per_attribute[emo.ordinal()]
    }
}

/// The Messaging Agent proper.
#[derive(Debug, Clone)]
pub struct MessagingAgent {
    catalog: MessageCatalog,
    policy: MessagePolicy,
}

impl MessagingAgent {
    /// Creates an agent with a catalog and a case-3.c policy.
    pub fn new(catalog: MessageCatalog, policy: MessagePolicy) -> Self {
        Self { catalog, policy }
    }

    /// Assigns a message.
    ///
    /// * `product_attributes` — the course's sales-talk attributes in
    ///   campaign priority order (step 1);
    /// * `sensibilities` — the user's dominant sensibilities (attribute,
    ///   strength), already thresholded by the Attributes Manager and
    ///   sorted by strength descending.
    pub fn assign(
        &self,
        product_attributes: &[EmotionalAttribute],
        sensibilities: &[(EmotionalAttribute, f64)],
    ) -> Result<AssignedMessage> {
        if product_attributes.is_empty() {
            return Err(SpaError::Invalid("a course needs at least one product attribute".into()));
        }
        // step 3: intersect user sensibilities with product attributes,
        // in sensibility order (strongest first)
        let matches: Vec<EmotionalAttribute> = sensibilities
            .iter()
            .map(|&(emo, _)| emo)
            .filter(|emo| product_attributes.contains(emo))
            .collect();
        match matches.len() {
            0 => Ok(AssignedMessage {
                case: AssignmentCase::Standard,
                attribute: None,
                matches,
                text: Arc::clone(self.catalog.standard()),
            }),
            1 => Ok(AssignedMessage {
                case: AssignmentCase::SingleAttribute,
                attribute: Some(matches[0]),
                text: Arc::clone(self.catalog.for_attribute(matches[0])),
                matches,
            }),
            _ => match self.policy {
                MessagePolicy::Priority => {
                    // order by product priority (the order given)
                    let mut ordered: Vec<EmotionalAttribute> = product_attributes
                        .iter()
                        .filter(|p| matches.contains(p))
                        .copied()
                        .collect();
                    let chosen = ordered[0];
                    ordered.dedup();
                    Ok(AssignedMessage {
                        case: AssignmentCase::PriorityOrder,
                        attribute: Some(chosen),
                        matches: ordered,
                        text: Arc::clone(self.catalog.for_attribute(chosen)),
                    })
                }
                MessagePolicy::MaxSensibility => {
                    // sensibilities arrive sorted descending; keep that order
                    let chosen = matches[0];
                    Ok(AssignedMessage {
                        case: AssignmentCase::MaxSensibility,
                        attribute: Some(chosen),
                        text: Arc::clone(self.catalog.for_attribute(chosen)),
                        matches,
                    })
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EmotionalAttribute::*;

    fn agent(policy: MessagePolicy) -> MessagingAgent {
        MessagingAgent::new(MessageCatalog::standard_catalog("Course X"), policy)
    }

    #[test]
    fn case_3a_standard_message() {
        let a = agent(MessagePolicy::MaxSensibility);
        let msg = a.assign(&[Enthusiastic, Lively], &[(Shy, 0.9)]).unwrap();
        assert_eq!(msg.case, AssignmentCase::Standard);
        assert_eq!(msg.attribute, None);
        assert!(msg.text.contains("most popular"));
        assert!(msg.matches.is_empty());
    }

    #[test]
    fn assigned_texts_share_the_catalog_copy() {
        let a = agent(MessagePolicy::MaxSensibility);
        let hopeful = [
            a.assign(&[Hopeful], &[(Hopeful, 0.9)]).unwrap(),
            a.assign(&[Shy, Hopeful], &[(Hopeful, 0.8), (Shy, 0.7)]).unwrap(),
        ];
        assert_eq!(hopeful[1].case, AssignmentCase::MaxSensibility);
        assert!(Arc::ptr_eq(&hopeful[0].text, &hopeful[1].text));
        let standard =
            [a.assign(&[Shy], &[]).unwrap(), a.assign(&[Lively], &[(Hopeful, 0.9)]).unwrap()];
        assert!(Arc::ptr_eq(&standard[0].text, &standard[1].text));
        assert!(!Arc::ptr_eq(&standard[0].text, &hopeful[0].text));
    }

    #[test]
    fn case_3b_single_attribute_fig5a() {
        // Fig 5(a): the user has very much sensibility for "enthusiastic"
        let a = agent(MessagePolicy::MaxSensibility);
        let msg = a.assign(&[Enthusiastic, Impatient], &[(Enthusiastic, 0.95)]).unwrap();
        assert_eq!(msg.case, AssignmentCase::SingleAttribute);
        assert_eq!(msg.attribute, Some(Enthusiastic));
        assert!(msg.text.contains("rush"));
    }

    #[test]
    fn case_3ci_priority_order_fig5b() {
        // Fig 5(b): four sensibilities ordered by product priority:
        // lively, stimulated, shy, frightened
        let a = agent(MessagePolicy::Priority);
        let product = [Lively, Stimulated, Shy, Frightened];
        let sens = [(Frightened, 0.99), (Shy, 0.9), (Stimulated, 0.8), (Lively, 0.7)];
        let msg = a.assign(&product, &sens).unwrap();
        assert_eq!(msg.case, AssignmentCase::PriorityOrder);
        assert_eq!(msg.attribute, Some(Lively), "priority beats raw sensibility");
        assert_eq!(msg.matches, vec![Lively, Stimulated, Shy, Frightened]);
    }

    #[test]
    fn case_3cii_max_sensibility_fig5c() {
        // Fig 5(c): motivated and hopeful; hopeful impacts most
        let a = agent(MessagePolicy::MaxSensibility);
        let product = [Motivated, Hopeful];
        let sens = [(Hopeful, 0.92), (Motivated, 0.74)];
        let msg = a.assign(&product, &sens).unwrap();
        assert_eq!(msg.case, AssignmentCase::MaxSensibility);
        assert_eq!(msg.attribute, Some(Hopeful));
        assert!(msg.text.contains("tomorrow"));
        assert_eq!(msg.matches, vec![Hopeful, Motivated]);
    }

    #[test]
    fn empty_product_attributes_are_rejected() {
        let a = agent(MessagePolicy::MaxSensibility);
        assert!(a.assign(&[], &[(Hopeful, 0.9)]).is_err());
    }

    #[test]
    fn no_sensibilities_at_all_is_standard() {
        let a = agent(MessagePolicy::Priority);
        let msg = a.assign(&[Motivated], &[]).unwrap();
        assert_eq!(msg.case, AssignmentCase::Standard);
    }

    #[test]
    fn catalog_has_a_distinct_message_per_attribute() {
        let catalog = MessageCatalog::standard_catalog("Course Y");
        let mut texts = std::collections::HashSet::new();
        for emo in EMOTIONAL_ATTRIBUTES {
            assert!(texts.insert(catalog.for_attribute(emo).to_owned()));
            assert!(catalog.for_attribute(emo).contains("Course Y"));
        }
        assert_eq!(texts.len(), 10);
    }

    #[test]
    fn policies_agree_when_one_match_exists() {
        let product = [Stimulated, Apathetic];
        let sens = [(Apathetic, 0.8)];
        let by_priority = agent(MessagePolicy::Priority).assign(&product, &sens).unwrap();
        let by_max = agent(MessagePolicy::MaxSensibility).assign(&product, &sens).unwrap();
        assert_eq!(by_priority.attribute, by_max.attribute);
        assert_eq!(by_priority.case, AssignmentCase::SingleAttribute);
        assert_eq!(by_max.case, AssignmentCase::SingleAttribute);
    }

    #[test]
    fn policies_can_disagree_on_multiple_matches() {
        let product = [Motivated, Hopeful]; // priority: motivated first
        let sens = [(Hopeful, 0.92), (Motivated, 0.74)]; // max: hopeful
        let by_priority = agent(MessagePolicy::Priority).assign(&product, &sens).unwrap();
        let by_max = agent(MessagePolicy::MaxSensibility).assign(&product, &sens).unwrap();
        assert_eq!(by_priority.attribute, Some(Motivated));
        assert_eq!(by_max.attribute, Some(Hopeful));
    }
}
