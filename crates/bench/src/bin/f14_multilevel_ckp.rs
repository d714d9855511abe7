//! F14 — Multi-level diskless checkpointing + SDC scrubbing.
//!
//! A 2D relativistic blast wave on 2×2 ranks exercises the FTI/SCR-style
//! checkpoint hierarchy (L1 own in-memory snapshot → L2 buddy replica →
//! L3 disk slots) and the ABFT silent-data-corruption detection end to
//! end:
//!
//! * **A (reference)** — plain `advance_to`, no faults; wall-clock and
//!   bitwise baseline,
//! * **B (tiers armed)** — `advance_to_with_restart` with per-step ABFT
//!   stamps, L1 snapshots and buddy exchange active but no faults. Must
//!   be **bit-identical** to A (snapshots are pure reads),
//! * **C (SDC storm)** — live-state bit flips injected every few steps.
//!   Every flip must be caught by the per-step ABFT verify *before* any
//!   checkpoint write and repaired from the memory tier (acceptance:
//!   ≥ 99% detection, relative L1 drift vs A ≤ 1e-3, zero undetected),
//! * **D (rotted locals)** — every L1 snapshot is rotted at capture;
//!   restores must fall back to the buddy replicas (shipped clean before
//!   the rot) with the disk tier staying cold,
//! * **E (restore latency)** — microbenchmark of the memory-tier restore
//!   path (stamp verify + trusted decode + span extraction) against the
//!   disk tier (slot read + full CRC-armored decode). Acceptance: the
//!   memory path is ≥ 5× faster,
//! * **F (diskless shrink)** — rank 0 dies with *no checkpoint
//!   directory*; the survivors reassemble the lost block from buddy
//!   replicas and finish degraded.
//!
//! Flags: `--toy` shrinks the grid and horizon for smoke tests/CI,
//! `--profile` prints the pooled phase breakdown. A machine-readable
//! report with the tier/SDC counters is always written to
//! `results/BENCH_f14_multilevel_ckp.json`.
//!
//! Env knobs: `RHRSC_FAULT_SEED` (CI seed matrix). The tier cadences are
//! the `ResilienceConfig` fields each arm sets.

use rhrsc_bench::drill::{blast_2x2, fault_seed, l1_rel, reference_run, resilient_run, Scratch};
use rhrsc_bench::{sci, BenchOpts, Table};
use rhrsc_comm::FaultPlan;
use rhrsc_io::checkpoint::{
    decode_trusted, encode_trusted, BlockRecord, CheckpointSlots, GlobalCheckpoint,
};
use rhrsc_io::MemorySnapshot;
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_runtime::Registry;
use rhrsc_solver::driver::{ExchangeMode, ResilienceConfig};
use rhrsc_srhd::NCOMP;
use std::sync::Arc;
use std::time::Instant;

/// Time the two restore paths over the same realistic-size global
/// checkpoint: the memory tier (stamped lane-hash verify + trusted decode +
/// span extraction — exactly what a memory-tier restore runs) against the
/// disk tier (slot read + full CRC-armored decode + extraction). Returns
/// `(mem_secs, disk_secs)` per restore.
fn restore_latency(n: usize, reps: usize) -> (f64, f64) {
    let size = [n, n, 1];
    let data: Vec<f64> = (0..NCOMP * n * n)
        .map(|i| 1.0 + (i as f64 * 0.618).sin())
        .collect();
    let gckp = GlobalCheckpoint {
        time: 0.5,
        step: 100,
        global_n: size,
        ncomp: NCOMP,
        blocks: vec![BlockRecord {
            id: 0,
            level: 0,
            offset: [0, 0, 0],
            size,
            data,
        }],
    };
    let snap = MemorySnapshot::new(gckp.step, gckp.time, encode_trusted(&gckp));
    let dir = Scratch::new("f14_multilevel_ckp");
    let slots = CheckpointSlots::new(dir.path()).expect("slot dir");
    slots.save(&gckp).expect("slot write");
    let span = ([0usize, 0, 0], [n, n / 2, 1]);
    // One untimed rep of each path first: page in the snapshot buffer and
    // the slot file so neither timed loop pays cold-cache costs.
    std::hint::black_box(decode_trusted(snap.bytes()).expect("trusted decode"));
    std::hint::black_box(slots.load_newest().expect("slot read"));
    let t0 = Instant::now();
    for _ in 0..reps {
        assert!(snap.verify(), "clean snapshot must verify");
        let g = decode_trusted(snap.bytes()).expect("trusted decode");
        std::hint::black_box(g.extract_span(span.0, span.1).expect("span"));
    }
    let mem = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let (g, _) = slots.load_newest().expect("slot read");
        std::hint::black_box(g.extract_span(span.0, span.1).expect("span"));
    }
    let disk = t0.elapsed().as_secs_f64() / reps as f64;
    (mem, disk)
}

fn main() {
    let opts = BenchOpts::from_args();
    let (n, t_end, lat_n, lat_reps) = if opts.toy {
        (32, 0.05, 128, 20)
    } else {
        (64, 0.08, 256, 30)
    };
    println!(
        "# F14: multi-level diskless checkpointing + SDC scrubbing, \
         2D blast {n}x{n}, 2x2 ranks, t_end = {t_end}"
    );
    let cfg = blast_2x2(n, ExchangeMode::BulkSynchronous);
    let reg = Arc::new(Registry::new());
    let seed = fault_seed(11);
    let run =
        |plan, res: &ResilienceConfig| resilient_run(&cfg, t_end, plan, res, &reg, false, None);
    let mut wall_total = 0.0;

    // ---- Run A: fault-free reference ----
    let (reference, wall_a, steps_a) = reference_run(&cfg, t_end, &reg);
    wall_total += wall_a;
    println!("A  reference: plain advance_to, {steps_a} steps, wall = {wall_a:.3}s");

    // ---- Run B: all memory tiers armed, no faults: bit-identical ----
    let res_b = ResilienceConfig {
        local_interval: 2,
        buddy_offset: 1,
        scrub_interval: 2,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let (outs_b, wall_b) = run(None, &res_b);
    wall_total += wall_b;
    let finishers_b: Vec<_> = outs_b.iter().flatten().collect();
    assert_eq!(finishers_b.len(), 4);
    let state_b = finishers_b[0].field.as_ref().expect("rank 0 gathers");
    let b_identical = state_b.raw() == reference.raw();
    assert!(
        b_identical,
        "armed tiers must be bit-invisible on a fault-free run"
    );
    let snapshots_b: u64 = finishers_b.iter().map(|r| r.rstats.local_snapshots).sum();
    println!(
        "B  tiers armed, faults off: bit-identical = {b_identical}, \
         {snapshots_b} snapshots + buddy exchanges, wall = {wall_b:.3}s"
    );

    // ---- Run C: SDC storm — live bit flips, ABFT detection ----
    let res_c = ResilienceConfig {
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 1,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let plan_c = FaultPlan {
        seed,
        bitflip_prob: 0.15,
        ..FaultPlan::disabled()
    };
    let (outs_c, wall_c) = run(Some(plan_c), &res_c);
    wall_total += wall_c;
    let finishers_c: Vec<_> = outs_c.iter().flatten().collect();
    assert_eq!(finishers_c.len(), 4, "an SDC storm must not kill ranks");
    let injected: u64 = finishers_c
        .iter()
        .filter_map(|r| r.faults)
        .map(|f| f.bits_flipped)
        .sum();
    let detected: u64 = finishers_c.iter().map(|r| r.rstats.sdc_detected).sum();
    let undetected = injected.saturating_sub(detected);
    let rate = if injected > 0 {
        detected as f64 / injected as f64
    } else {
        1.0
    };
    let state_c = finishers_c[0].field.as_ref().expect("rank 0 gathers");
    let l1_c = l1_rel(state_c, &reference);
    println!(
        "C  SDC storm: {injected} flips injected, {detected} detected \
         ({:.1}%), {undetected} undetected, L1 drift = {}, wall = {wall_c:.3}s",
        rate * 100.0,
        sci(l1_c)
    );
    assert!(injected > 0, "the storm must actually inject flips");
    assert!(
        rate >= 0.99,
        "ABFT detection rate {:.2}% below the 99% gate",
        rate * 100.0
    );
    assert_eq!(undetected, 0, "no flip may slip past the per-step verify");
    assert!(l1_c <= 1e-3, "post-repair drift exceeds 1e-3: {l1_c}");

    // ---- Run D: rotted locals — buddy fallback, disk stays cold ----
    let ckp_dir = Scratch::new("f14_multilevel_ckp");
    let res_d = ResilienceConfig {
        max_step_retries: 0,
        max_restarts: 200,
        checkpoint_interval: 3,
        checkpoint_dir: Some(ckp_dir.path().to_path_buf()),
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 1,
    };
    let plan_d = FaultPlan {
        seed,
        msg_truncate_prob: 0.02,
        snapshot_bitflip_prob: 1.0,
        snapshot_flip_target: SnapshotTarget::Local,
        ..FaultPlan::disabled()
    };
    let (outs_d, wall_d) = run(Some(plan_d), &res_d);
    wall_total += wall_d;
    let finishers_d: Vec<_> = outs_d.iter().flatten().collect();
    assert_eq!(finishers_d.len(), 4);
    for r in finishers_d.iter().map(|r| &r.rstats) {
        assert_eq!(r.local_restores, 0, "every L1 copy is rotted: {r:?}");
        assert_eq!(r.disk_restores, 0, "the disk tier must stay cold: {r:?}");
    }
    let buddy_restores: u64 = finishers_d.iter().map(|r| r.rstats.buddy_restores).sum();
    let rotted: u64 = finishers_d.iter().map(|r| r.rstats.snapshots_rotted).sum();
    assert!(
        buddy_restores > 0,
        "rotted locals must be served by buddies"
    );
    println!(
        "D  rotted locals: {rotted} snapshots scrubbed out, \
         {buddy_restores} buddy restores, 0 disk reads, wall = {wall_d:.3}s"
    );

    // ---- Run E: restore-latency microbenchmark ----
    let (mem_s, disk_s) = restore_latency(lat_n, lat_reps);
    let speedup = disk_s / mem_s;
    println!(
        "E  restore latency ({lat_n}x{lat_n} global state): memory tier = \
         {:.3} ms, disk tier = {:.3} ms, speedup = {speedup:.1}x",
        mem_s * 1e3,
        disk_s * 1e3
    );
    assert!(
        speedup >= 5.0,
        "memory-tier restore speedup {speedup:.1}x below the 5x gate"
    );

    // ---- Run F: diskless shrink from buddy replicas ----
    let plan_f = FaultPlan {
        seed,
        crash_rank: Some(0),
        crash_step: 6,
        ..FaultPlan::disabled()
    };
    let res_f = ResilienceConfig {
        local_interval: 1,
        buddy_offset: 1,
        scrub_interval: 2,
        checkpoint_dir: None,
        ..ResilienceConfig::default()
    };
    let (outs_f, wall_f) = run(Some(plan_f), &res_f);
    wall_total += wall_f;
    assert!(outs_f[0].is_none(), "the victim must report RankFailed");
    let survivors: Vec<_> = outs_f.iter().flatten().collect();
    assert_eq!(survivors.len(), 3, "all three survivors must finish");
    for r in survivors.iter().map(|r| &r.rstats) {
        assert_eq!(r.shrinks, 1, "{r:?}");
        assert_eq!(r.buddy_shrinks, 1, "the shrink must be diskless: {r:?}");
        assert_eq!(r.disk_restores, 0, "{r:?}");
    }
    let state_f = survivors
        .iter()
        .find_map(|r| r.field.clone())
        .expect("the new block rank 0 must gather");
    let l1_f = l1_rel(&state_f, &reference);
    println!(
        "F  diskless shrink: rank 0 died at step 6, survivors rebuilt from \
         buddy replicas, L1 drift = {}, wall = {wall_f:.3}s",
        sci(l1_f)
    );
    assert!(l1_f < 0.05, "post-shrink drift exceeds 5%: {l1_f}");

    let mut table = Table::new(&[
        "run",
        "wall_s",
        "sdc_injected",
        "sdc_detected",
        "buddy_restores",
        "l1_rel_drift",
    ]);
    table.row(&[
        "B:tiers-armed".into(),
        format!("{wall_b:.3}"),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    table.row(&[
        "C:sdc-storm".into(),
        format!("{wall_c:.3}"),
        injected.to_string(),
        detected.to_string(),
        "0".into(),
        sci(l1_c),
    ]);
    table.row(&[
        "D:rotted-locals".into(),
        format!("{wall_d:.3}"),
        "0".into(),
        "0".into(),
        buddy_restores.to_string(),
        "0".into(),
    ]);
    table.row(&[
        "F:diskless-shrink".into(),
        format!("{wall_f:.3}"),
        "0".into(),
        "0".into(),
        "0".into(),
        sci(l1_f),
    ]);

    // Run-varying measurements (SDC tallies, drifts, restore latencies)
    // go into the values section, not `config`: the bench_compare
    // sentinel only judges reports whose config is bit-identical to the
    // committed baseline, so config may hold nothing wall-clock- or
    // seed-stream-dependent.
    reg.histogram("ckp.restore.mem_ns")
        .record((mem_s * 1e9) as u64);
    reg.histogram("ckp.restore.disk_ns")
        .record((disk_s * 1e9) as u64);
    reg.histogram("sdc.injected_flips").record(injected);
    reg.histogram("ckp.l1_drift_shrink_x1e9")
        .record((l1_f * 1e9) as u64);
    let snap = reg.snapshot();
    let mut rep = opts.finish(&table, "f14_multilevel_ckp", "all scenarios pooled", &snap);
    rep.config_str("preset", if opts.toy { "toy" } else { "full" })
        .config_str("problem", "2D blast, 2x2 ranks, RK3 bulk-sync")
        .config_num("global_n", n as f64)
        .config_num("t_end", t_end)
        .config_num("fault_seed", seed as f64)
        .wall_time(wall_total)
        .parallelism(4.0);
    rep.write(&snap);
}
