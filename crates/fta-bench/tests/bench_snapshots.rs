//! Schema validation of the committed perf snapshots at the repo root:
//! `BENCH_incremental.json` (incremental re-solve), `BENCH_br.json`
//! (best-response engines over prebuilt strategy spaces),
//! `BENCH_hotpath.json` (chunked scan kernels and the dedup table),
//! `BENCH_durable.json`
//! (journaling overhead per fsync policy), `BENCH_scale.json`
//! (pooled multi-center solves up to 10^5 workers), and the
//! pruned-generation, pooled-generation and multi-center blocks of
//! `BENCH_vdps.json` must
//! parse, carry every field downstream tooling reads, stay internally
//! consistent, and keep the floors and ceilings the acceptance criteria
//! pin. The floors live in
//! `fta_bench::gates`, shared with the snapshot writers, so the writer
//! and this re-check can never drift apart. Parallel floors are
//! capability-conditioned on the thread count the snapshot records —
//! a single-core box cannot honestly produce (or re-check) a concurrent
//! speedup, so there the pooled path is held to the no-loss band.

use fta_bench::gates;
use serde_json::Value;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

#[test]
fn bench_incremental_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_incremental.json"))
        .expect("BENCH_incremental.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("fgt"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    let mut saw_paper_drop = false;
    for row in grid {
        for key in ["label", "mode"] {
            assert!(
                row[key].as_str().is_some(),
                "row missing string field {key}"
            );
        }
        for key in ["n_workers", "n_centers", "n_dps", "rounds"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "row missing positive integer field {key}"
            );
        }
        let cold = row["cold_ms"].as_f64().expect("row missing cold_ms");
        let warm = row["warm_ms"].as_f64().expect("row missing warm_ms");
        let speedup = row["speedup_warm_vs_cold"]
            .as_f64()
            .expect("row missing speedup_warm_vs_cold");
        assert!(cold > 0.0 && warm > 0.0 && speedup > 0.0);
        assert!(
            (speedup - cold / warm).abs() <= speedup * 1e-6,
            "speedup_warm_vs_cold inconsistent with cold_ms/warm_ms"
        );

        let stats = &row["resolve_stats"];
        let mut ladder = 0u64;
        for key in [
            "centers_clean",
            "centers_warm",
            "centers_cold",
            "warm_adopted",
            "warm_rejected",
        ] {
            let n = stats[key].as_u64();
            assert!(n.is_some(), "resolve_stats missing {key}");
            if key.starts_with("centers_") {
                ladder += n.unwrap();
            }
        }
        let rounds = row["rounds"].as_u64().unwrap();
        let centers = row["n_centers"].as_u64().unwrap();
        assert_eq!(
            ladder,
            rounds * centers,
            "ladder counts must cover every center of every round"
        );

        let label = row["label"].as_str().unwrap();
        let mode = row["mode"].as_str().unwrap();
        if mode == "drop" {
            assert!(
                warm <= cold,
                "{label}/{mode}: committed snapshot has warm losing to cold"
            );
        }
        if label == "paper" && mode == "drop" {
            saw_paper_drop = true;
            assert!(
                speedup >= gates::WARM_PAPER_DROP_FLOOR,
                "paper/drop speedup {speedup:.2}x below the {}x acceptance floor",
                gates::WARM_PAPER_DROP_FLOOR
            );
        }
    }
    assert!(saw_paper_drop, "grid must include the paper/drop row");
}

#[test]
fn bench_durable_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_durable.json"))
        .expect("BENCH_durable.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("gta"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    assert!(v["horizon_hours"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(v["workers"].as_u64().unwrap_or(0) > 0);
    assert!(v["snapshot_every"].as_u64().unwrap_or(0) >= 1);

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    let mut saw_every8 = false;
    for row in grid {
        let fsync = row["fsync"].as_str().expect("row missing fsync");
        assert!(row["rounds"].as_u64().unwrap_or(0) > 0);
        let plain = row["plain_ms"].as_f64().expect("row missing plain_ms");
        let durable = row["durable_ms"].as_f64().expect("row missing durable_ms");
        let overhead = row["overhead"].as_f64().expect("row missing overhead");
        assert!(plain > 0.0 && durable > 0.0 && overhead > 0.0);
        assert!(
            (overhead - durable / plain).abs() <= overhead * 1e-6,
            "overhead inconsistent with durable_ms/plain_ms"
        );
        // Every solved round journals one log frame or, on a snapshot
        // round, one snapshot (`log_frames` counts the frames written,
        // not those a snapshot left in the log).
        assert_eq!(
            row["log_frames"].as_u64().unwrap_or(0) + row["snapshots"].as_u64().unwrap_or(0),
            row["rounds"].as_u64().unwrap_or(u64::MAX),
            "log_frames plus snapshots must count one per round"
        );
        assert!(row["frame_bytes"].as_f64().unwrap_or(0.0) > 0.0);
        assert!(row["log_bytes"].as_u64().unwrap_or(0) > 0);
        assert!(row["snapshots"].as_u64().unwrap_or(0) > 0);

        if fsync == "every-8" {
            saw_every8 = true;
            assert!(
                overhead <= gates::durable_overhead_ceiling(false),
                "every-8 journaling overhead {overhead:.2}x exceeds the \
                 committed full-mode ceiling"
            );
        }
    }
    assert!(saw_every8, "grid must include the every-8 row");

    // The `day` row prices journaling on the `day` workload's shape; it
    // is reported, not gated.
    let day = &v["day"];
    assert_eq!(day["shape"].as_str(), Some("day"));
    assert_eq!(day["algorithm"].as_str(), Some("fgt"));
    assert_eq!(day["incremental"].as_bool(), Some(true));
    assert_eq!(day["fsync"].as_str(), Some("every-8"));
    assert!(day["snapshot_every"].as_u64().unwrap_or(0) >= 1);
    assert!(day["horizon_hours"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(day["workers"].as_u64().unwrap_or(0) > 0);
    assert!(day["rounds"].as_u64().unwrap_or(0) > 0);
    let plain = day["plain_ms"].as_f64().expect("day row missing plain_ms");
    let durable = day["durable_ms"]
        .as_f64()
        .expect("day row missing durable_ms");
    let overhead = day["overhead"].as_f64().expect("day row missing overhead");
    assert!(plain > 0.0 && durable > 0.0 && overhead > 0.0);
    assert!(
        (overhead - durable / plain).abs() <= overhead * 1e-6,
        "day overhead inconsistent with durable_ms/plain_ms"
    );
    assert_eq!(
        day["log_frames"].as_u64().unwrap_or(0) + day["snapshots"].as_u64().unwrap_or(0),
        day["rounds"].as_u64().unwrap_or(u64::MAX),
        "day: log_frames plus snapshots must count one per round"
    );
    assert!(day["fsyncs"].as_u64().unwrap_or(0) > 0, "day row fsyncs");
    assert!(day["frame_bytes"].as_f64().unwrap_or(0.0) > 0.0);
    for key in ["encode_ms", "append_ms", "snapshot_ms"] {
        assert!(day[key].as_f64().unwrap_or(0.0) > 0.0, "day row {key}");
    }
}

#[test]
fn bench_scale_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_scale.json"))
        .expect("BENCH_scale.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert_eq!(v["algorithm"].as_str(), Some("gta"));
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    let threads = v["hw_threads"].as_u64().expect("missing hw_threads") as usize;
    assert!(threads >= 1, "hw_threads must be >= 1");
    // peak_rss_bytes is null off Linux; when present it must be sane
    // (a 10^5-worker sweep holds well over a megabyte live).
    if let Some(rss) = v["peak_rss_bytes"].as_u64() {
        assert!(rss > 1 << 20, "peak RSS implausibly small: {rss} bytes");
    }

    let grid = v["grid"].as_array().expect("grid is an array");
    assert!(!grid.is_empty(), "grid must not be empty");

    // The committed full-mode sweep must reach the acceptance scale.
    let max_workers = grid
        .iter()
        .map(|r| r["n_workers"].as_u64().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let max_centers = grid
        .iter()
        .map(|r| r["n_centers"].as_u64().unwrap_or(0))
        .max()
        .unwrap_or(0);
    assert!(
        max_workers >= 100_000,
        "committed sweep must reach 10^5 workers (saw {max_workers})"
    );
    assert!(
        max_centers >= 200,
        "committed sweep must reach 200 centers (saw {max_centers})"
    );

    for row in grid {
        let label = row["label"].as_str().expect("row missing label");
        for key in ["n_centers", "n_workers", "n_dps", "n_tasks"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "{label}: missing positive integer field {key}"
            );
        }
        let sequential = row["sequential_ms"].as_f64().expect("sequential_ms");
        let pooled = row["pooled_ms"].as_f64().expect("pooled_ms");
        let speedup = row["speedup_pooled_vs_sequential"]
            .as_f64()
            .expect("speedup_pooled_vs_sequential");
        assert!(sequential > 0.0 && pooled > 0.0 && speedup > 0.0);
        assert!(
            (speedup - sequential / pooled).abs() <= speedup * 1e-6,
            "{label}: speedup inconsistent with its timings"
        );
        assert!(
            row["workers_per_sec"].as_f64().unwrap_or(0.0) > 0.0,
            "{label}: missing workers_per_sec"
        );

        // Same capability-conditioned gates as the writer: the headline
        // floor where the recorded hardware could express concurrency,
        // the no-loss band everywhere.
        assert!(
            pooled <= sequential * gates::scale_noise_band(false),
            "{label}: committed snapshot has pooled losing to sequential \
             beyond the full-mode noise band"
        );
        let centers = row["n_centers"].as_u64().unwrap() as usize;
        if threads >= gates::SCALE_FLOOR_MIN_THREADS && centers >= gates::SCALE_FLOOR_MIN_CENTERS {
            assert!(
                speedup >= gates::SCALE_SPEEDUP_FLOOR,
                "{label}: committed speedup {speedup:.2}x on {threads} threads \
                 below the {}x acceptance floor",
                gates::SCALE_SPEEDUP_FLOOR
            );
        }
    }
}

#[test]
fn bench_vdps_snapshot_multi_center_is_honest_about_threads() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_vdps.json"))
        .expect("BENCH_vdps.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    let mc = &v["solve_multi_center"];
    let threads = mc["threads"].as_u64().expect("missing threads");
    assert!(threads >= 1);
    assert!(mc["sequential_ms"].as_f64().unwrap_or(0.0) > 0.0);
    assert!(mc["pooled_ms"].as_f64().unwrap_or(0.0) > 0.0);
    // A parallel speedup claim requires actual parallel hardware: with
    // one pool thread the field must be null (pooled-vs-sequential is
    // dispatch overhead plus timer noise, not a win).
    if threads == 1 {
        assert!(
            mc["speedup"].is_null(),
            "single-thread snapshot must not claim a parallel speedup"
        );
    } else {
        let seq = mc["sequential_ms"].as_f64().unwrap();
        let par = mc["pooled_ms"].as_f64().unwrap();
        let speedup = mc["speedup"].as_f64().expect("missing speedup");
        assert!(
            (speedup - seq / par).abs() <= speedup * 1e-6,
            "speedup inconsistent with its timings"
        );
    }
}

/// The pruned block covers one paper-shape snapshot and keeps the
/// adjacency build within its gate of the dp span.
#[test]
fn bench_vdps_snapshot_pruned_generation_passes_its_gate() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_vdps.json"))
        .expect("BENCH_vdps.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    let pruned = &v["generation_pruned"];
    for key in ["centers", "vdps_count", "hw_threads"] {
        assert!(pruned[key].as_u64().unwrap_or(0) > 0, "missing {key}");
    }
    assert!(pruned["ms"].as_f64().unwrap_or(0.0) > 0.0, "missing ms");
    let split = &pruned["span_breakdown_ms"];
    let dp = split["dp"].as_f64().expect("missing dp span");
    let adjacency = split["adjacency"].as_f64().expect("missing adjacency span");
    assert!(split["routes"].as_f64().is_some(), "missing routes span");
    assert!(dp > 0.0 && adjacency > 0.0);
    assert!(
        adjacency <= gates::PRUNED_ADJACENCY_SHARE * dp,
        "adjacency {adjacency} ms is above {} of dp {dp} ms",
        gates::PRUNED_ADJACENCY_SHARE
    );
}

/// The pooled-generation block times one gMission Fig. 2 center
/// sequentially and pooled, interleaved; it is reported, not gated.
#[test]
fn bench_vdps_snapshot_pooled_generation_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_vdps.json"))
        .expect("BENCH_vdps.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    let pooled = &v["generation_pooled"];
    assert_eq!(pooled["shape"].as_str(), Some("gmission"));
    assert_eq!(pooled["centers"].as_u64(), Some(1));
    assert_eq!(pooled["n_dps"].as_u64(), Some(100));
    assert_eq!(pooled["max_dp"].as_u64(), Some(3));
    for key in ["vdps_count", "passes", "threads", "hw_threads"] {
        assert!(pooled[key].as_u64().unwrap_or(0) > 0, "missing {key}");
    }
    let seq = pooled["sequential_ms"]
        .as_f64()
        .expect("missing sequential_ms");
    let par = pooled["pooled_ms"].as_f64().expect("missing pooled_ms");
    let speedup = pooled["speedup"].as_f64().expect("missing speedup");
    assert!(seq > 0.0 && par > 0.0);
    assert!(
        (speedup - seq / par).abs() <= speedup * 1e-6,
        "speedup inconsistent with its timings"
    );
    let faster = pooled["pooled_faster"]
        .as_u64()
        .expect("missing pooled_faster");
    assert!(faster <= pooled["passes"].as_u64().unwrap());
}

#[test]
fn bench_hotpath_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_hotpath.json"))
        .expect("BENCH_hotpath.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");

    // Microkernels: every section carries its timings and a consistent
    // speedup; the committed (full-mode) numbers must clear the
    // full-mode floors.
    let micro = &v["microkernels"];
    let scan = &micro["scan"];
    assert!(scan["len"].as_u64().unwrap_or(0) > 0, "scan missing len");
    let open_rate = scan["open_rate"].as_f64().expect("scan open_rate");
    assert!((0.0..=1.0).contains(&open_rate));
    let mut scan_best = 0.0f64;
    for section in ["best_open", "sweep"] {
        let s = &scan[section];
        let scalar = s["scalar_us"].as_f64().expect("scan scalar_us");
        let chunked = s["chunked_us"].as_f64().expect("scan chunked_us");
        let speedup = s["speedup"].as_f64().expect("scan speedup");
        assert!(scalar > 0.0 && chunked > 0.0);
        assert!(
            (speedup - scalar / chunked).abs() <= speedup * 1e-6,
            "scan/{section} speedup inconsistent with its timings"
        );
        scan_best = scan_best.max(speedup);
    }
    assert!(
        scan_best >= gates::hotpath_scan_floor(false),
        "committed scan speedup {scan_best:.2}x below the full-mode floor"
    );
    let dedup = &micro["dedup"];
    let legacy = dedup["legacy_ms"].as_f64().expect("dedup legacy_ms");
    let table = dedup["table_ms"].as_f64().expect("dedup table_ms");
    let speedup = dedup["speedup"].as_f64().expect("dedup speedup");
    assert!(legacy > 0.0 && table > 0.0);
    assert!(
        (speedup - legacy / table).abs() <= speedup * 1e-6,
        "dedup speedup inconsistent with its timings"
    );
    assert!(
        speedup >= gates::hotpath_dedup_floor(false),
        "committed dedup speedup {speedup:.2}x below its {:.2}x floor",
        gates::hotpath_dedup_floor(false)
    );
}

#[test]
fn bench_br_snapshot_is_schema_valid() {
    let raw = std::fs::read_to_string(snapshot_path("BENCH_br.json"))
        .expect("BENCH_br.json is committed at the repo root");
    let v: Value = serde_json::from_str(&raw).expect("snapshot parses as JSON");

    assert!(v["description"].as_str().is_some(), "missing description");
    assert!(v["reps"].as_u64().unwrap_or(0) >= 1, "reps must be >= 1");
    assert!(
        v["hw_threads"].as_u64().unwrap_or(0) >= 1,
        "hw_threads must be recorded"
    );

    let grid = v["grid"].as_array().expect("grid is an array");
    let labels: Vec<&str> = grid
        .iter()
        .filter_map(|row| row["label"].as_str())
        .collect();
    for label in ["small", "paper", "dense"] {
        assert!(labels.contains(&label), "grid missing the {label} row");
    }
    for row in grid {
        let label = row["label"].as_str().expect("row missing label");
        for key in ["n_workers", "n_centers", "n_dps", "total_slots"] {
            assert!(
                row[key].as_u64().unwrap_or(0) > 0,
                "{label}: missing positive integer field {key}"
            );
        }
        let incremental = row["incremental_ms"].as_f64().expect("incremental_ms");
        let fastpath = row["fastpath_ms"].as_f64().expect("fastpath_ms");
        let speedup = row["speedup_fastpath_vs_incremental"]
            .as_f64()
            .expect("speedup_fastpath_vs_incremental");
        assert!(incremental > 0.0 && fastpath > 0.0);
        assert!(
            fastpath <= incremental,
            "{label}: fast path ({fastpath:.3} ms) slower than incremental ({incremental:.3} ms)"
        );
        assert!(
            (speedup - incremental / fastpath).abs() <= speedup * 1e-6,
            "{label}: speedup inconsistent with its timings"
        );

        let counters = &row["fastpath_counters"];
        let field = |key: &str| {
            counters[key]
                .as_u64()
                .unwrap_or_else(|| panic!("{label}: fastpath_counters missing {key}"))
        };
        let rounds = field("rounds");
        assert!(rounds > 0, "{label}: no rounds");
        assert_eq!(
            field("fastpath_rounds"),
            rounds,
            "{label}: default weights run every round on the fast path"
        );
        let scanned = field("candidates_scanned");
        assert!(field("early_exits") <= field("candidate_evaluations") / 2);
        // Two evaluations counted per worker turn.
        assert_eq!(field("candidate_evaluations") % 2, 0);
        let exhaustive = row["exhaustive_candidates_scanned"]
            .as_u64()
            .expect("exhaustive_candidates_scanned");
        assert!(scanned <= exhaustive, "{label}: fast path scanned more");
        let reduction = row["scan_reduction"].as_f64().expect("scan_reduction");
        assert!(
            (reduction - exhaustive as f64 / scanned.max(1) as f64).abs() <= reduction * 1e-6,
            "{label}: scan_reduction inconsistent with its counters"
        );
    }
}
