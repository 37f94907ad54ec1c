//! Figure 6 — Average number of goal-relevant insights users can derive per notebook
//! (insight-extraction oracle; see `docs/DESIGN.md` for the substitution).

use linx_study::{run_study, StudyConfig};

fn main() {
    let config = StudyConfig {
        goals_per_dataset: linx_bench::env_usize("LINX_GOALS_PER_DATASET", 4),
        rows: linx_bench::env_usize("LINX_DATA_ROWS", 2000),
        linx_episodes: linx_bench::env_usize("LINX_TRAIN_EPISODES", 300),
        seed: linx_bench::env_usize("LINX_SEED", 0x57d1) as u64,
    };
    let results = run_study(&config);
    println!("Figure 6: Avg. number of goal-relevant insights per notebook\n");
    println!("{:<14} {:>10}", "System", "Insights");
    for (system, value) in results.mean_insights() {
        println!("{:<14} {:>10}", system.label(), linx_bench::cell(value));
    }
}
