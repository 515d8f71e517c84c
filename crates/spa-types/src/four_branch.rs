//! The Four-Branch Model of Emotional Intelligence (paper Table 1).
//!
//! The Gradual EIT of §3 measures emotional intelligence "through the
//! Mayer-Salovey-Caruso Emotional Intelligence Test (MSCEIT V2.0)",
//! whose Four-Branch Model organizes EI into four abilities, each
//! assessed by two task families. This module encodes that structure;
//! the proprietary item content is *not* reproduced (see DESIGN.md,
//! Substitutions) — only the branch/task taxonomy enters the algorithms.

use std::fmt;

/// One branch of the MSCEIT V2.0 Four-Branch Model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Branch {
    /// Branch 1 — Perceiving Emotions: the ability to perceive emotions
    /// in oneself and others, as well as in objects, art, stories, etc.
    Perceiving,
    /// Branch 2 — Facilitating Thought (Using Emotions): the ability to
    /// generate and use emotions to communicate feelings or employ them
    /// in thinking.
    Facilitating,
    /// Branch 3 — Understanding Emotions: the ability to understand
    /// emotional information, how emotions combine and progress, and to
    /// appreciate emotional meanings.
    Understanding,
    /// Branch 4 — Managing Emotions: the ability to be open to feelings
    /// and to regulate them in oneself and others to promote growth.
    Managing,
}

/// All four branches in MSCEIT order.
pub const BRANCHES: [Branch; 4] =
    [Branch::Perceiving, Branch::Facilitating, Branch::Understanding, Branch::Managing];

impl Branch {
    /// Branch number as printed in Table 1 (1-based).
    pub(crate) fn number(self) -> u8 {
        match self {
            Branch::Perceiving => 1,
            Branch::Facilitating => 2,
            Branch::Understanding => 3,
            Branch::Managing => 4,
        }
    }

    /// Branch title.
    pub fn title(self) -> &'static str {
        match self {
            Branch::Perceiving => "Perceiving Emotions",
            Branch::Facilitating => "Facilitating Thought",
            Branch::Understanding => "Understanding Emotions",
            Branch::Managing => "Managing Emotions",
        }
    }

    /// One-line ability description.
    pub(crate) fn description(self) -> &'static str {
        match self {
            Branch::Perceiving => {
                "Ability to perceive emotions in oneself and others, and in objects, art and stories"
            }
            Branch::Facilitating => {
                "Ability to generate and use emotions to communicate feelings and employ them in thinking"
            }
            Branch::Understanding => {
                "Ability to understand emotional information, how emotions combine and progress through time"
            }
            Branch::Managing => {
                "Ability to be open to feelings and to manage them in oneself and others to promote growth"
            }
        }
    }

    /// The two MSCEIT V2.0 task families that assess this branch.
    pub fn tasks(self) -> [&'static str; 2] {
        match self {
            Branch::Perceiving => ["Faces", "Pictures"],
            Branch::Facilitating => ["Facilitation", "Sensations"],
            Branch::Understanding => ["Changes", "Blends"],
            Branch::Managing => ["Emotion Management", "Emotional Relations"],
        }
    }
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Branch {} — {}", self.number(), self.title())
    }
}

/// Renders the Four-Branch Model as a plain-text table (the repo's
/// rendition of the paper's Table 1).
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str("Table 1. Four-Branch Model of Emotional Intelligence (MSCEIT V2.0)\n");
    out.push_str(&format!("{:<4}{:<28}{:<44}{}\n", "#", "Branch", "Tasks", "Ability"));
    for branch in BRANCHES {
        let tasks = branch.tasks().join(", ");
        out.push_str(&format!(
            "{:<4}{:<28}{:<44}{}\n",
            branch.number(),
            branch.title(),
            tasks,
            branch.description()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_branches_numbered_in_order() {
        assert_eq!(BRANCHES.len(), 4);
        for (i, b) in BRANCHES.iter().enumerate() {
            assert_eq!(b.number() as usize, i + 1);
        }
    }

    #[test]
    fn each_branch_has_two_tasks() {
        let mut all_tasks = std::collections::HashSet::new();
        for b in BRANCHES {
            for t in b.tasks() {
                assert!(all_tasks.insert(t), "task {t} duplicated");
            }
        }
        assert_eq!(all_tasks.len(), 8, "MSCEIT V2.0 has eight task families");
    }

    #[test]
    fn display_matches_table_format() {
        assert_eq!(Branch::Perceiving.to_string(), "Branch 1 — Perceiving Emotions");
        assert_eq!(Branch::Managing.to_string(), "Branch 4 — Managing Emotions");
    }

    #[test]
    fn table_rendering_contains_every_branch_and_task() {
        let table = render_table1();
        for b in BRANCHES {
            assert!(table.contains(b.title()));
            for t in b.tasks() {
                assert!(table.contains(t));
            }
        }
        assert!(table.starts_with("Table 1."));
        assert_eq!(table.lines().count(), 6, "header + column row + 4 branches");
    }
}
