//! Checkpoint/restart workflow.
//!
//! Advances a blast-wave run halfway, writes the interior as a
//! CRC-protected one-block checkpoint image, reloads it into a fresh
//! solver, finishes the run, and verifies the result is
//! **bit-identical** to an uninterrupted run — the property long
//! production campaigns depend on. The image holds no ghost cells: the
//! solver refills them before every stage reads them.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use rhrsc::grid::{Field, PatchGeom};
use rhrsc::io::{load_checkpoint, save_checkpoint, BlockRecord, GlobalCheckpoint};
use rhrsc::solver::problems::Problem;
use rhrsc::solver::scheme::init_cons;
use rhrsc::solver::{PatchSolver, RkOrder, Scheme};

fn main() {
    let prob = Problem::blast_wave_1();
    let scheme = Scheme::default_with_gamma(5.0 / 3.0);
    let n = 400;
    let geom = PatchGeom::line(n, 0.0, 1.0, scheme.required_ghosts());
    let t_mid = 0.2;

    println!("# Checkpoint/restart on blast wave 1, N = {n}");

    // Reference run in one process, pausing at the same t_mid (the CFL
    // controller clamps a step to land exactly on a stop time, so pausing
    // is itself part of the deterministic trajectory).
    let mut u_ref = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut s_ref = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    s_ref.advance_to(&mut u_ref, 0.0, t_mid, 0.4, None).unwrap();
    s_ref
        .advance_to(&mut u_ref, t_mid, prob.t_end, 0.4, None)
        .unwrap();

    // Run to the midpoint, checkpoint the interior, drop everything.
    let mut u = init_cons(geom, &scheme.eos, &|x| (prob.ic)(x));
    let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    let steps_a = solver.advance_to(&mut u, 0.0, t_mid, 0.4, None).unwrap();
    let lo = [0, 1, 2].map(|d| geom.ng_of(d));
    let hi = [0, 1, 2].map(|d| lo[d] + geom.n[d]);
    let mut data = Vec::new();
    u.gather_box(lo, hi, &mut data);
    std::fs::create_dir_all("results").unwrap();
    let path = std::path::Path::new("results/blast1_mid.ckp");
    save_checkpoint(
        path,
        &GlobalCheckpoint {
            time: t_mid,
            step: steps_a as u64,
            global_n: geom.n,
            ncomp: u.ncomp(),
            blocks: vec![BlockRecord {
                id: 0,
                level: 0,
                offset: [0; 3],
                size: geom.n,
                data,
            }],
        },
    )
    .unwrap();
    drop(solver);
    println!(
        "# wrote {} ({} bytes) at t = {t_mid} after {steps_a} steps",
        path.display(),
        std::fs::metadata(path).unwrap().len()
    );

    // Fresh process-equivalent restart: the interior into a new field.
    let ckp = load_checkpoint(path).unwrap();
    println!("# restored t = {}, step = {}", ckp.time, ckp.step);
    let data = ckp
        .extract_span([0; 3], geom.n)
        .expect("one block covers the grid");
    let mut u = Field::cons(geom);
    u.scatter_box(lo, hi, &data);
    let mut solver = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
    let steps_b = solver
        .advance_to(&mut u, ckp.time, prob.t_end, 0.4, None)
        .unwrap();
    println!("# continued {steps_b} steps to t = {}", prob.t_end);

    assert_eq!(
        u.raw(),
        u_ref.raw(),
        "restarted run must be bit-identical to the in-memory run"
    );
    println!("# restart is bit-identical to the in-memory continuation ✓");
    println!("# OK");
}
