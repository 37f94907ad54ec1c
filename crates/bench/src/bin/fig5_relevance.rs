//! Figure 5 — User-study relevance ratings (1–7) of exploration notebooks per dataset
//! and system (simulated reviewer panel; see `docs/DESIGN.md` for the substitution).

use linx_study::{run_study, StudyConfig};

fn main() {
    let config = StudyConfig {
        goals_per_dataset: linx_bench::env_usize("LINX_GOALS_PER_DATASET", 4),
        rows: linx_bench::env_usize("LINX_DATA_ROWS", 2000),
        linx_episodes: linx_bench::env_usize("LINX_TRAIN_EPISODES", 300),
        seed: linx_bench::env_usize("LINX_SEED", 0x57d1) as u64,
    };
    let results = run_study(&config);
    println!("Figure 5: Relevance (to Goal) Rating per dataset (1-7, higher is better)\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "System", "Netflix", "Flights", "Play Store"
    );
    for system in linx_study::System::ALL {
        let by_dataset = results.relevance_by_dataset();
        let get = |ds: &str| {
            by_dataset
                .iter()
                .find(|(d, s, _)| d == ds && *s == system)
                .map(|(_, _, v)| linx_bench::cell(*v))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<14} {:>10} {:>10} {:>10}",
            system.label(),
            get("Netflix"),
            get("Flights"),
            get("Play Store")
        );
    }
}
