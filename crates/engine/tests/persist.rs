//! Persistence-layer integration tests: corrupted, truncated, wrong-version, and
//! zero-length cache files must all load as clean misses (and be unlinked) — never
//! panics, never wrong data — and the codec must round-trip a result exactly
//! (proptest-verified).

use std::path::PathBuf;

use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::filter::CompareOp;
use linx_dataframe::fingerprint::Fnv1a;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::Value;
use linx_engine::persist::{decode_result, encode_result};
use linx_engine::{
    DiskTier, EngineConfig, ExploreRequest, ExploreResponse, ExploreResult, PersistConfig, Router,
    RouterConfig,
};
use linx_explore::notebook::{Notebook, NotebookCell};
use linx_explore::{Narrative, QueryOp};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("linx-persist-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn sample_result() -> ExploreResult {
    ExploreResult {
        ldx_canonical: "ROOT CHILDREN {A1}\nA1 LIKE [F,country,eq,India]".to_string(),
        notebook: Notebook {
            title: "netflix — examine India".to_string(),
            cells: vec![
                NotebookCell {
                    node: 1,
                    depth: 1,
                    op: QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
                    code: "view_1 = df[df['country'] == 'India']".to_string(),
                    result_preview: "country  type\nIndia    Movie".to_string(),
                    result_rows: 42,
                    caption: "Focus on rows where country eq India".to_string(),
                },
                NotebookCell {
                    node: 2,
                    depth: 2,
                    op: QueryOp::group_by("type", AggFunc::Count, "show_id"),
                    code: "view_2 = view_1.groupby('type').agg({'show_id': 'count'})".to_string(),
                    result_preview: "type  count".to_string(),
                    result_rows: 2,
                    caption: "Break down count(show_id) by type".to_string(),
                },
            ],
        },
        narrative: Narrative {
            headline: "In India, most titles are movies.".to_string(),
            bullets: vec!["93% of Indian titles are movies.".to_string()],
        },
        best_structural: true,
        best_score: 0.8125,
    }
}

/// The on-disk path of a persisted result entry (format documented in
/// `crates/engine/src/persist.rs`).
fn result_path(tier: &DiskTier, fp: u64) -> PathBuf {
    tier.dir().join(format!("res-{fp:016x}.lnx"))
}

/// Assert that a tier treats the current bytes of entry `fp` as a clean miss *and*
/// unlinks the offending file.
fn assert_clean_miss(tier: &DiskTier, fp: u64, what: &str) {
    let path = result_path(tier, fp);
    assert!(path.exists(), "{what}: corrupt file must exist before load");
    let before = tier.stats().load_errors;
    assert!(
        tier.load_result(fp).is_none(),
        "{what}: corrupt entry must load as a miss"
    );
    assert!(!path.exists(), "{what}: corrupt file must be unlinked");
    assert_eq!(
        tier.stats().load_errors,
        before + 1,
        "{what}: load_errors must count the rejection"
    );
    // Once deleted, the lookup is an ordinary (uncounted-as-error) miss.
    assert!(tier.load_result(fp).is_none());
}

#[test]
fn zero_length_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("zero");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    std::fs::write(result_path(&tier, 1), b"").unwrap();
    assert_clean_miss(&tier, 1, "zero-length");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("trunc");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let full = encode_result(&sample_result());
    // Every strictly-shorter prefix must be rejected: header-only, mid-payload,
    // and all-but-one-checksum-byte truncations included.
    for keep in [1, 7, 14, 15, full.len() / 2, full.len() - 9, full.len() - 1] {
        let keep = keep.min(full.len() - 1);
        std::fs::write(result_path(&tier, 2), &full[..keep]).unwrap();
        assert_clean_miss(&tier, 2, &format!("truncated to {keep} bytes"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("flip");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let full = encode_result(&sample_result());
    // Flip one bit in every region of the file: magic, version, kind, payload
    // (several offsets), and the trailing checksum itself.
    let offsets = [
        0,
        4,
        6,
        7,
        full.len() / 3,
        full.len() / 2,
        full.len() - 8,
        full.len() - 1,
    ];
    for (i, &offset) in offsets.iter().enumerate() {
        let mut corrupt = full.clone();
        corrupt[offset] ^= 1 << (i % 8);
        std::fs::write(result_path(&tier, 3), &corrupt).unwrap();
        assert_clean_miss(&tier, 3, &format!("bit flipped at byte {offset}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Length and FNV-1a digest of `encode_result(&sample_result())`, one row per
/// format version. A payload layout change bumps `FORMAT_VERSION` and adds its
/// row here; changing the bytes under an existing version fails the test below.
const GOLDEN_ENCODINGS: &[(u16, usize, u64)] = &[(1, 588, 0x15ef_41d9_e796_cf09)];

#[test]
fn encoded_bytes_are_pinned_per_format_version() {
    let version = linx_engine::persist::FORMAT_VERSION;
    let bytes = encode_result(&sample_result());
    let mut h = Fnv1a::new();
    h.write(&bytes);
    let Some(&(_, len, digest)) = GOLDEN_ENCODINGS.iter().find(|(v, ..)| *v == version) else {
        panic!("no golden encoding for format version {version}: record one");
    };
    assert_eq!(
        (bytes.len(), h.finish()),
        (len, digest),
        "the encoding of format version {version} changed: bump FORMAT_VERSION"
    );
}

#[test]
fn wrong_version_entries_are_clean_misses_and_unlinked() {
    let dir = temp_dir("version");
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    // A structurally valid file from a *future* format version: patch the version
    // field and re-seal the checksum, so only the version check can reject it.
    let mut future = encode_result(&sample_result());
    let body_len = future.len() - 8;
    future[4..6].copy_from_slice(&(linx_engine::persist::FORMAT_VERSION + 1).to_le_bytes());
    let mut h = Fnv1a::new();
    h.write(&future[..body_len]);
    let sum = h.finish().to_le_bytes();
    future[body_len..].copy_from_slice(&sum);
    assert!(
        decode_result(&future).is_err(),
        "future version must not decode"
    );
    std::fs::write(result_path(&tier, 4), &future).unwrap();
    assert_clean_miss(&tier, 4, "wrong version");

    // At open, the same intact entry is stale rather than damage: the scrub
    // deletes it and counts it as retired, quarantines nothing, and leaves it
    // out of the resident counters.
    std::fs::write(result_path(&tier, 4), &future).unwrap();
    tier.store_result(5, &sample_result());
    let reopened = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let scrub = reopened.scrub_report();
    assert_eq!(
        (
            scrub.scanned,
            scrub.retired,
            scrub.quarantined,
            scrub.entries
        ),
        (2, 1, 0, 1)
    );
    assert_eq!(
        scrub.bytes,
        std::fs::metadata(result_path(&reopened, 5)).unwrap().len()
    );
    assert!(!result_path(&reopened, 4).exists(), "stale entry deleted");
    assert!(
        !reopened.quarantine_dir().exists(),
        "a stale entry is not damage"
    );
    assert!(reopened.load_result(5).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

// --- what a router leaves in the directory -------------------------------------

#[test]
fn a_cache_dir_holds_one_entry_per_answer_and_a_restart_serves_them_all() {
    let dir = temp_dir("router-answers");
    let dataset = generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(200),
            seed: 5,
        },
    );
    let goals = [
        "Survey the duration of the titles",
        "Examine titles from India",
        "Find an atypical type",
    ];
    let config = || {
        let mut engine = EngineConfig::fast();
        engine.workers = 2;
        engine.cdrl.episodes = 30;
        engine.persist = Some(PersistConfig::new(&dir));
        RouterConfig {
            shards: 1,
            vnodes: 64,
            engine,
        }
    };
    let answer_all = |router: &Router| -> Vec<ExploreResponse> {
        let ctx = router.dataset_context(&dataset, "netflix");
        let handles: Vec<_> = goals
            .iter()
            .map(|g| router.submit(&ctx, ExploreRequest::new("netflix", *g)))
            .collect();
        handles.into_iter().map(|h| h.wait()).collect()
    };

    // A fresh directory: every goal trains, and each answer is one entry file —
    // nothing else (no statistics, no temp files, no quarantine) is left behind.
    let cold = Router::new(config());
    let trained = answer_all(&cold);
    cold.shutdown();
    assert!(trained
        .iter()
        .all(|r| r.outcome.is_ok() && !r.served_from_cache));
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), goals.len(), "one file per answer: {files:?}");
    for path in &files {
        assert_eq!(path.extension().and_then(|e| e.to_str()), Some("lnx"));
        let bytes = std::fs::read(path).unwrap();
        assert!(
            decode_result(&bytes).is_ok(),
            "{} is a result",
            path.display()
        );
    }

    // A restarted router answers every goal from the disk tier, byte for byte,
    // without a training job.
    let warm = Router::new(config());
    let served = answer_all(&warm);
    let stats = warm.stats();
    warm.shutdown();
    for (first, again) in trained.iter().zip(&served) {
        assert!(again.served_from_cache, "{} served from cache", again.goal);
        assert_eq!(
            encode_result(again.outcome.as_ref().unwrap()),
            encode_result(first.outcome.as_ref().unwrap()),
            "{} byte-identical after the restart",
            again.goal
        );
    }
    assert_eq!(stats.tier.hits, goals.len() as u64);
    assert_eq!(stats.tier.stores, 0, "a warm restart writes nothing");
    assert_eq!(stats.aggregate().pool.completed, 0, "no training job ran");
    std::fs::remove_dir_all(&dir).ok();
}

// --- startup scrub, durability, and eviction determinism --------------------------

#[test]
fn startup_scrub_quarantines_corrupt_entries_and_rebuilds_counters() {
    let dir = temp_dir("scrub");
    {
        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        tier.store_result(1, &sample_result());
        tier.store_result(2, &sample_result());
    }
    // Damage entry 2 in place and drop in a garbage neighbour plus an empty file.
    let corrupt_path = dir.join(format!("res-{:016x}.lnx", 2u64));
    let mut corrupt = std::fs::read(&corrupt_path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    std::fs::write(dir.join("res-00000000000000ff.lnx"), b"not a cache entry").unwrap();
    std::fs::write(dir.join("res-00000000000000fe.lnx"), b"").unwrap();

    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    let scrub = tier.scrub_report();
    assert_eq!(scrub.scanned, 4);
    assert_eq!(scrub.quarantined, 3);
    assert_eq!(scrub.entries, 1);
    let good_len = std::fs::metadata(result_path(&tier, 1)).unwrap().len();
    assert_eq!(scrub.bytes, good_len);
    // Counters are rebuilt exactly from what survived the scrub...
    let stats = tier.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.bytes, good_len);
    assert_eq!(stats.scrub_scanned, 4);
    assert_eq!(stats.scrub_quarantined, 3);
    // ...the intact entry warm-hits while the damaged one is a clean miss...
    assert_eq!(
        tier.load_result(1).unwrap().best_score,
        sample_result().best_score
    );
    assert!(tier.load_result(2).is_none());
    // ...and every damaged file sits bit-preserved in quarantine/, never unlinked.
    let quarantine = tier.quarantine_dir();
    assert_eq!(
        std::fs::read(quarantine.join(format!("res-{:016x}.lnx", 2u64))).unwrap(),
        corrupt,
        "quarantined bytes must be preserved for forensics"
    );
    assert!(quarantine.join("res-00000000000000ff.lnx").exists());
    assert!(quarantine.join("res-00000000000000fe.lnx").exists());
    drop(tier);

    // Reopen: the quarantine directory is invisible to the next scrub.
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    assert_eq!(tier.scrub_report().scanned, 1);
    assert_eq!(tier.scrub_report().quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_mode_fsyncs_every_store_and_records_sync_latency() {
    let dir = temp_dir("durable");
    let tier = DiskTier::open(&PersistConfig::new(&dir).with_durable(true)).unwrap();
    tier.store_result(1, &sample_result());
    tier.store_result(2, &sample_result());
    assert_eq!(
        tier.latency().sync.count,
        2,
        "one fsync recorded per durable store"
    );
    assert_eq!(
        tier.load_result(1).unwrap().best_score,
        sample_result().best_score
    );
    // A non-durable tier over the same directory records no sync samples.
    let plain = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    plain.store_result(3, &sample_result());
    assert_eq!(plain.latency().sync.count, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orphan_sweep_keeps_fresh_temps_and_counts_reclaimed_ones() {
    let dir = temp_dir("orphan-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(".tmp-1-0"), b"fresh in-flight").unwrap();
    std::fs::write(dir.join(".tmp-1-1"), b"also fresh").unwrap();

    // Temps younger than the sweep window are kept — they may be a live writer's...
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    assert_eq!(tier.scrub_report().orphans_reclaimed, 0);
    drop(tier);
    assert!(dir.join(".tmp-1-0").exists());

    // ...while temps older than the window are orphans, reclaimed and counted.
    let old = std::time::SystemTime::now()
        - std::time::Duration::from_secs(DiskTier::ORPHAN_SWEEP_SECS + 1);
    for name in [".tmp-1-0", ".tmp-1-1"] {
        let f = std::fs::File::options()
            .append(true)
            .open(dir.join(name))
            .unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
    }
    let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
    assert_eq!(tier.scrub_report().orphans_reclaimed, 2);
    assert_eq!(tier.stats().orphans_reclaimed, 2);
    assert!(!dir.join(".tmp-1-0").exists());
    assert!(!dir.join(".tmp-1-1").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_breaks_equal_mtimes_by_file_name() {
    let dir = temp_dir("evict-tie");
    // Bulky entries keep the arithmetic above the 4 KiB cap floor.
    let bulky = || {
        let mut result = sample_result();
        result.narrative.headline = "x".repeat(4096);
        result
    };
    let entry_len = encode_result(&bulky()).len() as u64;
    // Cap sized so the third store evicts exactly one file: 3E exceeds 2.5E,
    // and removing one lands at 2E, under the 90% low-water mark (2.25E).
    let tier = DiskTier::open(&PersistConfig::new(&dir).with_max_bytes(entry_len * 5 / 2)).unwrap();
    // Stored newest-name-first, so a recency-or-insertion-order tie-break would
    // pick differently than the name tie-break.
    tier.store_result(2, &bulky());
    tier.store_result(1, &bulky());
    // Give both files the identical mtime a coarse-timestamp filesystem would.
    let stamp = std::time::SystemTime::now() - std::time::Duration::from_secs(10);
    for fp in [1u64, 2] {
        let f = std::fs::File::options()
            .append(true)
            .open(result_path(&tier, fp))
            .unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(stamp))
            .unwrap();
    }
    tier.store_result(3, &bulky());
    assert!(
        !result_path(&tier, 1).exists(),
        "equal mtimes: the lexicographically first name must evict first"
    );
    assert!(result_path(&tier, 2).exists());
    assert!(result_path(&tier, 3).exists());
    assert_eq!(tier.stats().evictions, 1);
    std::fs::remove_dir_all(&dir).ok();
}

// --- proptest round-trips ---------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-1000i64..1000).prop_map(Value::Int),
        2 => prop::sample::select(vec!["a", "b", "quoted \"x\"", "uni-✓", ""]).prop_map(Value::str),
        2 => (-500i64..500).prop_map(|i| Value::float(i as f64 / 8.0)),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => Just(Value::Null),
    ]
}

fn query_op_strategy() -> impl Strategy<Value = QueryOp> {
    let attrs = || prop::sample::select(vec!["country", "type", "release year", "α"]);
    prop_oneof![
        (
            attrs(),
            prop::sample::select(CompareOp::ALL.to_vec()),
            value_strategy()
        )
            .prop_map(|(a, op, term)| QueryOp::filter(a, op, term)),
        (
            attrs(),
            prop::sample::select(AggFunc::ALL.to_vec()),
            attrs()
        )
            .prop_map(|(g, agg, a)| QueryOp::group_by(g, agg, a)),
    ]
}

fn text_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "".to_string(),
        "plain".to_string(),
        "multi\nline\ttext".to_string(),
        "unicode — ✓ müßig".to_string(),
        "x".repeat(300),
    ])
}

fn result_strategy() -> impl Strategy<Value = ExploreResult> {
    let cell = (
        (0usize..64, 0usize..8),
        query_op_strategy(),
        (text_strategy(), text_strategy(), text_strategy()),
        0usize..100_000,
    )
        .prop_map(
            |((node, depth), op, (code, result_preview, caption), result_rows)| NotebookCell {
                node,
                depth,
                op,
                code,
                result_preview,
                result_rows,
                caption,
            },
        );
    (
        (text_strategy(), text_strategy()),
        prop::collection::vec(cell, 0..6),
        (
            text_strategy(),
            prop::collection::vec(text_strategy(), 0..4),
        ),
        (any::<bool>(), -10.0f64..10.0),
    )
        .prop_map(
            |(
                (ldx_canonical, title),
                cells,
                (headline, bullets),
                (best_structural, best_score),
            )| {
                ExploreResult {
                    ldx_canonical,
                    notebook: Notebook { title, cells },
                    narrative: Narrative { headline, bullets },
                    best_structural,
                    best_score,
                }
            },
        )
}

proptest! {
    /// `decode(encode(x)) == x` for full exploration results.
    #[test]
    fn result_round_trip(r in result_strategy()) {
        let d = decode_result(&encode_result(&r)).unwrap();
        prop_assert_eq!(&d.ldx_canonical, &r.ldx_canonical);
        prop_assert_eq!(&d.notebook.title, &r.notebook.title);
        prop_assert_eq!(d.notebook.cells.len(), r.notebook.cells.len());
        for (dc, rc) in d.notebook.cells.iter().zip(&r.notebook.cells) {
            prop_assert_eq!(dc.node, rc.node);
            prop_assert_eq!(dc.depth, rc.depth);
            prop_assert_eq!(&dc.op, &rc.op);
            prop_assert_eq!(&dc.code, &rc.code);
            prop_assert_eq!(&dc.result_preview, &rc.result_preview);
            prop_assert_eq!(dc.result_rows, rc.result_rows);
            prop_assert_eq!(&dc.caption, &rc.caption);
        }
        prop_assert_eq!(&d.narrative.headline, &r.narrative.headline);
        prop_assert_eq!(&d.narrative.bullets, &r.narrative.bullets);
        prop_assert_eq!(d.best_structural, r.best_structural);
        prop_assert_eq!(d.best_score.to_bits(), r.best_score.to_bits());
    }

    /// Arbitrary byte garbage never decodes (and never panics).
    #[test]
    fn garbage_never_decodes(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        prop_assert!(decode_result(&bytes).is_err());
    }
}

// --- scrub property: arbitrary damage is contained --------------------------------

/// One way to damage a persisted entry file before the scrub sees it.
#[derive(Debug, Clone)]
enum Damage {
    Intact,
    Flip { pos: usize, bit: u8 },
    Truncate { keep: usize },
    Extend { extra: Vec<u8> },
    Garbage { bytes: Vec<u8> },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        2 => Just(Damage::Intact),
        2 => (0usize..4096, 0u8..8).prop_map(|(pos, bit)| Damage::Flip { pos, bit }),
        2 => (0usize..4096).prop_map(|keep| Damage::Truncate { keep }),
        1 => prop::collection::vec(0u8..=255, 1..24).prop_map(|extra| Damage::Extend { extra }),
        1 => prop::collection::vec(0u8..=255, 0..64).prop_map(|bytes| Damage::Garbage { bytes }),
    ]
}

/// Apply `damage` to the on-disk bytes; returns whether anything changed.
fn apply_damage(damage: &Damage, bytes: &mut Vec<u8>) -> bool {
    match damage {
        Damage::Intact => false,
        Damage::Flip { pos, bit } => {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
            true
        }
        Damage::Truncate { keep } => {
            bytes.truncate(keep % bytes.len());
            true
        }
        Damage::Extend { extra } => {
            bytes.extend_from_slice(extra);
            true
        }
        Damage::Garbage { bytes: garbage } => {
            *bytes = garbage.clone();
            true
        }
    }
}

proptest! {
    /// The startup scrub is total over arbitrarily damaged cache directories:
    /// it never panics, every entry is afterwards either served bit-identical
    /// or sitting in `quarantine/`, and the scrub counters reconcile exactly
    /// with a directory walk.
    #[test]
    fn scrub_contains_arbitrary_damage_and_counters_reconcile(
        cases in prop::collection::vec((damage_strategy(), result_strategy()), 1..6),
    ) {
        let dir = temp_dir("scrub-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let mut written = Vec::new();
        for (i, (damage, result)) in cases.iter().enumerate() {
            let fp = i as u64;
            let mut bytes = encode_result(result);
            let original = bytes.clone();
            let damaged = apply_damage(damage, &mut bytes);
            std::fs::write(dir.join(format!("res-{fp:016x}.lnx")), &bytes).unwrap();
            written.push((fp, original, damaged));
        }

        let tier = DiskTier::open(&PersistConfig::new(&dir)).unwrap();
        let scrub = tier.scrub_report();
        prop_assert_eq!(scrub.scanned, written.len() as u64);

        // Counters reconcile with what is actually on disk.
        let quarantine = tier.quarantine_dir();
        let quarantined_files = std::fs::read_dir(&quarantine)
            .map(|entries| entries.count() as u64)
            .unwrap_or(0);
        prop_assert_eq!(scrub.quarantined, quarantined_files);
        let mut live = 0u64;
        let mut live_bytes = 0u64;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let meta = entry.unwrap().metadata().unwrap();
            if meta.is_dir() {
                continue;
            }
            live += 1;
            live_bytes += meta.len();
        }
        prop_assert_eq!(scrub.entries, live);
        prop_assert_eq!(scrub.bytes, live_bytes);
        prop_assert_eq!(scrub.scanned, scrub.quarantined + live);
        let stats = tier.stats();
        prop_assert_eq!(stats.scrub_scanned, scrub.scanned);
        prop_assert_eq!(stats.scrub_quarantined, scrub.quarantined);
        prop_assert_eq!(stats.entries, live);
        prop_assert_eq!(stats.bytes, live_bytes);

        // Every entry is served bit-identical or quarantined — never wrong data,
        // never silently deleted.
        for (fp, original, damaged) in &written {
            let in_quarantine = quarantine.join(format!("res-{fp:016x}.lnx")).exists();
            match tier.load_result(*fp) {
                Some(loaded) => {
                    prop_assert!(!in_quarantine, "entry {fp} both live and quarantined");
                    if !damaged {
                        // Undamaged entries must serve bit-identical.
                        prop_assert_eq!(&encode_result(&loaded), original);
                    }
                }
                None => {
                    prop_assert!(
                        *damaged,
                        "undamaged entry {} must survive the scrub",
                        fp
                    );
                    prop_assert!(
                        in_quarantine,
                        "damaged entry {} must be quarantined, not deleted",
                        fp
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
