//! Reproduction of the paper's **Fig 6**: ten push/newsletter campaigns
//! over a synthetic emagister-like population.
//!
//! * Fig 6(a) — the cumulative redemption curve: with 40% of the
//!   commercial action SPA should capture far more than 40% of the
//!   useful impacts (the paper reads >76% off its curve);
//! * Fig 6(b) — per-campaign predictive scores, averaging ≈21%
//!   (282,938 useful impacts over 1,340,432 targets at paper scale).
//!
//! ```text
//! cargo run --release --example campaign_simulation [n_users]
//! ```
//!
//! `n_users` defaults to 50,000; the paper's population was 3,162,069 —
//! pass a larger count if you have the minutes to spare. Results land on
//! stdout and in `target/fig6a.csv` / `target/fig6b.csv`.

use spa::campaign::{csv, report};
use spa::prelude::*;

fn main() -> Result<(), SpaError> {
    let n_users: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_users must be an integer"))
        .unwrap_or(50_000);

    println!("generating a {n_users}-user population (paper scale: 3,162,069)…");
    let config = ExperimentConfig { n_users, ..Default::default() };
    let experiment = Experiment::new(config)?;
    println!("running history build-up, 4 training campaigns and 10 evaluation campaigns…\n");
    let result = experiment.run()?;

    // Fig 6(a)
    println!("{}", report::render_fig6a(&result.gains, 10));
    // Fig 6(b)
    println!("{}", report::render_fig6b(&result));
    // headline claims of §5.4
    println!("{}", report::render_summary(&result));

    // scale one campaign's impact count to the paper's per-campaign
    // audience, the unit its 282,938 is given in
    let paper_targets_per_campaign = 1_340_432.0;
    println!(
        "scaled to the paper's audience (1,340,432 targets per campaign): {:.0} useful impacts \
         per campaign\n(the paper reports 282,938 per campaign ≙ 21% of 1,340,432)",
        result.spa_rate * paper_targets_per_campaign
    );

    csv::write_csv("target/fig6a.csv", &report::gains_csv(&result.gains))?;
    csv::write_csv("target/fig6b.csv", &report::campaigns_csv(&result))?;
    println!("\nwrote target/fig6a.csv and target/fig6b.csv");
    Ok(())
}
