//! Facade golden: `Linx::explore` and `Linx::explore_with_ldx` on 12 benchmark goals
//! (4 per dataset, spread across meta-goals), recorded when the facade ran its own
//! copy of derive → train → render → narrate. The facade now calls
//! `engine::pipeline::run_exploration`, so this pins the one surviving path to the
//! answers of the deleted one.
//!
//! Pinned per goal: the canonical LDX, `best_compliant` and `best_structural`,
//! `best_score` within 1e-9, `TrainLog::episode_steps`, the notebook's cell count,
//! and the best tree. The trees were recorded once reward statistics summed in key
//! order (`linx_dataframe::stats::Histogram`), and were identical across 5 recording
//! processes; every other field kept the value recorded before that change.

use linx::{Linx, LinxConfig};
use linx_benchgen::generate_benchmark;
use linx_cdrl::TrainOutcome;
use linx_data::{generate, DatasetKind, ScaleConfig};

const ROWS: usize = 300;
const SEED: u64 = 7;
const EPISODES: usize = 40;

/// One recorded answer.
struct Golden {
    /// The benchmark instance id (`manual` for the `explore_with_ldx` call).
    id: &'static str,
    /// The canonical LDX the request trained against.
    ldx: &'static str,
    /// `(best_compliant, best_structural)`.
    flags: (bool, bool),
    score: f64,
    episode_steps: &'static [usize],
    /// The notebook's cell count.
    cells: usize,
    /// The best session, as `ExplorationTree::to_compact_string`.
    tree: &'static str,
}

/// `generate_benchmark(101)`: every `len/4`-th instance of each dataset, in
/// `DatasetKind::ALL` order.
const GOALS: [Golden; 12] = [
    Golden {
        id: "g1-1",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 1.030814400858705,
        episode_steps: &[
            8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([G,rating,count,type],[F,country,neq,United Kingdom]([G,date_added_year,nunique,duration]),[F,country,eq,United Kingdom]([G,genre,avg,date_added_year]))",
    },
    Golden {
        id: "g3-13",
        ldx: "ROOT CHILDREN {A1,A2,A3}\n\
              A1 LIKE [F,director,eq,.*] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,director,eq,.*] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A3 LIKE [F,director,eq,.*] and CHILDREN {B3}\n\
              B3 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (true, true),
        score: 0.7433694186549461,
        episode_steps: &[
            11, 12, 13, 12, 12, 12, 12, 12, 11, 12, 12, 12, 12, 12, 13, 12, 12, 12, 12, 12, 12, 12,
            12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
        ],
        cells: 7,
        tree: "ROOT([F,director,eq,R. Kapoor],[F,director,eq,R. Kapoor]([G,type,max,country]),[F,director,eq,R. Kapoor]([G,type,max,country]),[F,director,eq,R. Kapoor]([G,type,max,country]))",
    },
    Golden {
        id: "g5-16",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,genre,eq,Dramas] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,genre,neq,Dramas] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (true, true),
        score: 0.8850081774687626,
        episode_steps: &[
            8, 8, 7, 8, 8, 8, 8, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([G,rating,max,country],[F,genre,neq,Dramas]([G,rating,max,country]),[F,genre,eq,Dramas]([G,rating,max,type]))",
    },
    Golden {
        id: "g7-13",
        ldx: "ROOT DESCENDANTS {A1}\n\
              A1 LIKE [F,rating,eq,TV-MA] and CHILDREN {B1,B2}\n\
              B1 LIKE [G,.*]\n\
              B2 LIKE [G,.*]",
        flags: (true, true),
        score: 1.0739935946261447,
        episode_steps: &[
            7, 6, 6, 6, 5, 5, 7, 5, 7, 6, 5, 5, 5, 5, 6, 6, 6, 6, 5, 6, 6, 6, 6, 5, 6, 6, 6, 6, 6,
            6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
        ],
        cells: 4,
        tree: "ROOT([G,director,nunique,director],[F,rating,eq,TV-MA]([G,cast_size,max,country],[G,type,nunique,date_added_year]))",
    },
    Golden {
        id: "g1-2",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,airline,eq,(?<X>.*)] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,airline,neq,(?<X>.*)] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 0.8995439140034893,
        episode_steps: &[
            8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 7, 8, 7, 8, 9, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([G,distance,max,month],[F,airline,eq,AA]([G,arrival_delay,max,scheduled_departure]),[F,airline,eq,EV]([G,delay_reason,nunique,month]))",
    },
    Golden {
        id: "g3-11",
        ldx: "ROOT CHILDREN {A1,A2,A3}\n\
              A1 LIKE [F,month,eq,.*] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,month,eq,.*] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A3 LIKE [F,month,eq,.*] and CHILDREN {B3}\n\
              B3 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (true, true),
        score: 0.8391107941083913,
        episode_steps: &[
            11, 12, 13, 12, 12, 12, 12, 12, 11, 12, 13, 12, 12, 12, 13, 12, 12, 12, 12, 12, 12, 12,
            12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
        ],
        cells: 7,
        tree: "ROOT([G,delay_reason,min,flight_id],[F,month,eq,9]([G,delay_reason,min,distance]),[F,month,eq,9]([G,delay_reason,min,airline]),[F,month,eq,9]([G,delay_reason,min,day_of_week]))",
    },
    Golden {
        id: "g5-11",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,origin_airport,eq,ATL] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,origin_airport,neq,ATL] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 0.943566813379453,
        episode_steps: &[
            8, 8, 7, 8, 8, 8, 8, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([G,cancelled,max,day_of_week],[F,origin_airport,eq,ATL]([G,month,max,cancelled]),[F,origin_airport,neq,ATL]([G,airline,nunique,day_of_week]))",
    },
    Golden {
        id: "g7-5",
        ldx: "ROOT DESCENDANTS {A1}\n\
              A1 LIKE [F,month,le,2] and CHILDREN {B1,B2}\n\
              B1 LIKE [G,.*]\n\
              B2 LIKE [G,.*]",
        flags: (true, true),
        score: 0.976755507440113,
        episode_steps: &[
            7, 6, 6, 6, 5, 5, 7, 5, 7, 6, 5, 5, 5, 5, 7, 6, 6, 5, 6, 6, 5, 6, 6, 5, 6, 5, 5, 6, 6,
            5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
        ],
        cells: 4,
        tree: "ROOT([F,month,le,2]([G,airline,max,origin_airport],[G,month,min,arrival_delay]),[G,day_of_week,max,distance])",
    },
    Golden {
        id: "g1-3",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,category,eq,(?<X>.*)] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,category,neq,(?<X>.*)] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 1.034584426113054,
        episode_steps: &[
            8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([G,installs,max,name],[F,name,le,App 100]([G,app_size_kb,nunique,app_size_kb]),[F,category,eq,SPORTS]([G,content_rating,count,installs]))",
    },
    Golden {
        id: "g3-12",
        ldx: "ROOT CHILDREN {A1,A2,A3}\n\
              A1 LIKE [F,android_version,eq,.*] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,android_version,eq,.*] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A3 LIKE [F,android_version,eq,.*] and CHILDREN {B3}\n\
              B3 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 0.9238836362451784,
        episode_steps: &[
            11, 12, 13, 12, 12, 12, 12, 12, 11, 12, 12, 12, 12, 12, 13, 12, 12, 12, 12, 12, 12, 12,
            12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
        ],
        cells: 7,
        tree: "ROOT([F,android_version,eq,5.0 and up],[F,android_version,eq,6.0 and up]([G,app_type,min,rating]),[F,android_version,eq,7.0 and up]([G,category,min,app_size_kb]),[F,android_version,eq,6.0 and up]([G,content_rating,avg,installs]))",
    },
    Golden {
        id: "g5-12",
        ldx: "ROOT CHILDREN {A1,A2}\n\
              A1 LIKE [F,category,eq,GAME] and CHILDREN {B1}\n\
              B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
              A2 LIKE [F,category,neq,GAME] and CHILDREN {B2}\n\
              B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        flags: (false, true),
        score: 0.7553917577007685,
        episode_steps: &[
            8, 8, 7, 8, 8, 8, 8, 8, 7, 8, 7, 8, 9, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        cells: 5,
        tree: "ROOT([F,category,eq,GAME]([G,installs,max,category]),[F,category,eq,GAME]([G,android_version,sum,installs]([G,android_version,nunique,android_version])))",
    },
    Golden {
        id: "g7-6",
        ldx: "ROOT DESCENDANTS {A1}\n\
              A1 LIKE [F,price,eq,0] and CHILDREN {B1,B2}\n\
              B1 LIKE [G,.*]\n\
              B2 LIKE [G,.*]",
        flags: (true, true),
        score: 1.065880444510229,
        episode_steps: &[
            7, 6, 6, 6, 5, 5, 7, 5, 7, 6, 5, 5, 6, 6, 6, 6, 6, 6, 5, 6, 6, 6, 5, 6, 6, 5, 6, 6, 6,
            6, 6, 6, 6, 5, 6, 6, 6, 6, 6, 6,
        ],
        cells: 4,
        tree: "ROOT([G,content_rating,nunique,price],[F,price,eq,0]([G,android_version,max,rating],[G,category,max,app_size_kb]))",
    },
];

/// `explore_with_ldx` on Netflix with a hand-written specification.
const MANUAL: Golden = Golden {
    id: "manual",
    ldx: "ROOT CHILDREN {A1}\n\
          A1 LIKE [F,type,eq,Movie] and CHILDREN {B1}\n\
          B1 LIKE [G,.*]",
    flags: (true, true),
    score: 1.024240100429223,
    episode_steps: &[
        4, 4, 3, 4, 3, 3, 3, 4, 4, 4, 3, 4, 3, 4, 3, 4, 4, 4, 4, 3, 4, 4, 4, 3, 4, 3, 4, 4, 4, 4,
        4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
    ],
    cells: 3,
    tree: "ROOT([G,rating,avg,duration],[F,type,eq,Movie]([G,cast_size,max,title]))",
};

fn dataset(kind: DatasetKind) -> linx_dataframe::DataFrame {
    generate(
        kind,
        ScaleConfig {
            rows: Some(ROWS),
            seed: SEED,
        },
    )
}

fn dataset_id(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Netflix => "netflix",
        DatasetKind::Flights => "flights",
        DatasetKind::PlayStore => "playstore",
    }
}

fn assert_golden(golden: &Golden, ldx: &str, training: &TrainOutcome, cells: usize) {
    let id = golden.id;
    assert_eq!(ldx, golden.ldx, "{id}: LDX");
    assert_eq!(
        (training.best_compliant, training.best_structural),
        golden.flags,
        "{id}: compliance flags"
    );
    assert!(
        (training.best_score - golden.score).abs() < 1e-9,
        "{id}: best_score {} != {}",
        training.best_score,
        golden.score
    );
    assert_eq!(
        training.log.episode_steps, golden.episode_steps,
        "{id}: episode steps"
    );
    assert_eq!(cells, golden.cells, "{id}: notebook cells");
    assert_eq!(
        training.best_tree.to_compact_string(),
        golden.tree,
        "{id}: best tree"
    );
}

#[test]
fn facade_reproduces_its_recorded_answers() {
    let mut config = LinxConfig::fast();
    config.cdrl.episodes = EPISODES;
    let linx = Linx::new(config);
    let benchmark = generate_benchmark(101);
    let mut goldens = GOALS.iter();
    for kind in DatasetKind::ALL {
        let dataset = dataset(kind);
        let instances = benchmark.for_dataset(kind);
        for inst in instances.iter().step_by(instances.len() / 4).take(4) {
            let golden = goldens.next().unwrap();
            assert_eq!(inst.id, golden.id, "benchmark sampling drifted");
            let outcome = linx.explore(&dataset, dataset_id(kind), &inst.goal_text);
            assert_golden(
                golden,
                &outcome.derivation.ldx.canonical(),
                &outcome.training,
                outcome.notebook.len(),
            );
        }
    }
    assert!(goldens.next().is_none());

    let ldx = linx_ldx::parse_ldx(MANUAL.ldx).unwrap();
    let canonical = ldx.canonical();
    let (training, notebook) =
        linx.explore_with_ldx(&dataset(DatasetKind::Netflix), ldx, "manual spec");
    assert_golden(&MANUAL, &canonical, &training, notebook.len());
}
