//! The seeded goal slice every workload draws from.
//!
//! `linx_benchgen::generate_benchmark(seed)` gives the 182 goal/LDX pairs over the
//! three datasets; the seed drives its paraphraser, so it decides how every goal is
//! worded. The slice drops goals whose text repeats an earlier one (a repeat would be
//! a cache hit on a cold workload), groups the rest into the 8 meta-goals × 3
//! datasets strata, and interleaves the strata in a fixed order, keeping the
//! generator's order inside each stratum. Any prefix of 24 goals therefore holds one
//! goal of every stratum and any prefix of 8 one goal of every meta-goal, and a
//! position holds the same analytical intent on every seed, worded differently.
//! Drawing the intents at random per seed was tried: the mix of a 40-goal prefix
//! then moved throughput by up to 30% between seeds, which no bound can absorb.

use linx_benchgen::generate_benchmark;
use linx_data::DatasetKind;
use linx_dataframe::fingerprint::Fnv1a;
use linx_ldx::Ldx;

#[derive(Clone)]
pub struct Goal {
    pub dataset: DatasetKind,
    /// 1-based meta-goal index (g1–g8).
    pub meta: usize,
    pub text: String,
    pub gold: Ldx,
}

pub struct Slice {
    pub goals: Vec<Goal>,
    /// Goals of the generated benchmark dropped as repeats of an earlier goal text.
    pub duplicates: usize,
}

/// The id a dataset is registered under with the server.
pub fn dataset_id(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Netflix => "netflix",
        DatasetKind::Flights => "flights",
        DatasetKind::PlayStore => "playstore",
    }
}

fn dataset_index(kind: DatasetKind) -> usize {
    DatasetKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every dataset kind is in ALL")
}

impl Slice {
    pub fn build(seed: u64) -> Slice {
        let bench = generate_benchmark(seed);
        let mut seen = std::collections::HashSet::new();
        let mut strata: Vec<Vec<Goal>> = vec![Vec::new(); 24];
        let mut duplicates = 0;
        for inst in bench.instances {
            if !seen.insert(inst.goal_text.clone()) {
                duplicates += 1;
                continue;
            }
            let meta = inst.meta_goal.index();
            strata[(meta - 1) * 3 + dataset_index(inst.dataset)].push(Goal {
                dataset: inst.dataset,
                meta,
                text: inst.goal_text,
                gold: inst.gold_ldx,
            });
        }
        // Position p of a round takes meta-goal p % 8 from dataset (p % 8 + p / 8) % 3:
        // the 24 positions visit every stratum once, and datasets alternate.
        let order: Vec<usize> = (0..24).map(|p| (p % 8) * 3 + (p % 8 + p / 8) % 3).collect();
        let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
        let mut goals = Vec::new();
        for round in 0..rounds {
            for &s in &order {
                if let Some(goal) = strata[s].get(round) {
                    goals.push(goal.clone());
                }
            }
        }
        Slice { goals, duplicates }
    }

    /// A digest of the first `n` goals (dataset and text), so two runs can be seen
    /// to use the same inputs.
    pub fn digest(&self, n: usize) -> u64 {
        let mut h = Fnv1a::new();
        for g in self.goals.iter().take(n) {
            h.write(dataset_id(g.dataset).as_bytes());
            h.write(&[0]);
            h.write(g.text.as_bytes());
            h.write(&[0]);
        }
        h.finish()
    }

    /// Goals per meta-goal and per dataset among the first `n`.
    pub fn composition(&self, n: usize) -> String {
        let mut metas = [0usize; 8];
        let mut datasets = [0usize; 3];
        for g in self.goals.iter().take(n) {
            metas[g.meta - 1] += 1;
            datasets[dataset_index(g.dataset)] += 1;
        }
        let metas: Vec<String> = metas
            .iter()
            .enumerate()
            .map(|(i, c)| format!("g{}={c}", i + 1))
            .collect();
        let datasets: Vec<String> = DatasetKind::ALL
            .iter()
            .zip(datasets)
            .map(|(k, c)| format!("{}={c}", dataset_id(*k)))
            .collect();
        format!("{} | {}", metas.join(" "), datasets.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_seeded_distinct_and_stratified() {
        let a = Slice::build(7);
        let b = Slice::build(7);
        assert_eq!(a.digest(usize::MAX), b.digest(usize::MAX));
        assert_ne!(a.digest(24), Slice::build(8).digest(24));
        let texts: std::collections::HashSet<&str> =
            a.goals.iter().map(|g| g.text.as_str()).collect();
        assert_eq!(texts.len(), a.goals.len());
        assert_eq!(a.goals.len() + a.duplicates, 182);
        let strata: std::collections::HashSet<(usize, usize)> = a.goals[..24]
            .iter()
            .map(|g| (g.meta, dataset_index(g.dataset)))
            .collect();
        assert_eq!(strata.len(), 24);
        let metas: std::collections::HashSet<usize> = a.goals[..8].iter().map(|g| g.meta).collect();
        assert_eq!(metas.len(), 8);
    }
}
