//! Reward-design ablation (the design choices `docs/DESIGN.md` calls out for the
//! compliance reward scheme, §5.2): sweep the α/β weighting of generic-vs-compliance
//! reward and the structure-guided warm-up, reporting how reliably each configuration
//! reaches full compliance on the running-example LDX query.
//!
//! Run with: `cargo run -p linx-bench --bin ablation_rewards`

use linx_cdrl::{CdrlConfig, CdrlTrainer};
use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_ldx::parse_ldx;

fn main() {
    let episodes = linx_bench::env_usize("LINX_TRAIN_EPISODES", 400);
    let rows = linx_bench::env_usize("LINX_DATA_ROWS", 1500);
    let trials = linx_bench::env_usize("LINX_TRIALS", 5);
    let dataset = generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed: 3,
        },
    );
    let ldx = parse_ldx(
        "ROOT CHILDREN {A1,A2}\n\
         A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
         B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
         A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
         B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
    )
    .unwrap();

    println!(
        "Reward-design ablation on the Fig. 1c query ({trials} seeds, {episodes} episodes each)\n"
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "configuration", "struct %", "full %"
    );

    // (beta, label) — alpha fixed at 1.0.
    let betas = [
        (0.5, "alpha=1 beta=0.5 (weak)"),
        (3.0, "alpha=1 beta=3 (default)"),
        (8.0, "alpha=1 beta=8 (strong)"),
    ];
    for (beta, label) in betas {
        let (s, f) = run_trials(&dataset, &ldx, episodes, trials, |c| {
            c.beta = beta;
        });
        println!("{label:<28} {:>11.0}% {:>11.0}%", s * 100.0, f * 100.0);
    }

    // Compliance-reward component ablation: no immediate reward.
    let (s, f) = run_trials(&dataset, &ldx, episodes, trials, |c| {
        c.delta_imm = 0.0;
    });
    println!(
        "{:<28} {:>11.0}% {:>11.0}%",
        "no immediate reward",
        s * 100.0,
        f * 100.0
    );

    // No end-of-session reward (only immediate): structure pressure only.
    let (s, f) = run_trials(&dataset, &ldx, episodes, trials, |c| {
        c.gamma_eos = 0.0;
    });
    println!(
        "{:<28} {:>11.0}% {:>11.0}%",
        "no end-of-session reward",
        s * 100.0,
        f * 100.0
    );
}

fn run_trials(
    dataset: &linx_dataframe::DataFrame,
    ldx: &linx_ldx::Ldx,
    episodes: usize,
    trials: usize,
    tweak: impl Fn(&mut CdrlConfig),
) -> (f64, f64) {
    let mut structural = 0usize;
    let mut full = 0usize;
    for t in 0..trials {
        let mut config = CdrlConfig {
            episodes,
            seed: 100 + t as u64,
            ..CdrlConfig::default()
        };
        tweak(&mut config);
        let outcome = CdrlTrainer::new(config).train(dataset.clone(), ldx.clone());
        if outcome.best_structural {
            structural += 1;
        }
        if outcome.best_compliant {
            full += 1;
        }
    }
    (
        structural as f64 / trials as f64,
        full as f64 / trials as f64,
    )
}
