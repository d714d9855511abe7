//! Static and throughput-weighted planners across heterogeneous workers.
//!
//! A step's work is a set of tiles with (estimated) costs; the cluster has
//! workers with differing throughputs (host sockets vs. accelerators).
//! Experiment F6 compares two plans against its own earliest-clock
//! self-scheduling loop (which charges virtual clocks, so it lives in the
//! bench, not here):
//!
//! * [`plan_static`] — homogeneous round-robin that ignores throughput
//!   (what a non-heterogeneity-aware code does),
//! * [`plan_weighted`] — longest-processing-time greedy onto the worker
//!   with the smallest *normalized* finish time (uses measured
//!   throughputs).

/// Round-robin assignment of `ntiles` tiles over `nworkers` workers.
pub fn plan_static(ntiles: usize, nworkers: usize) -> Vec<Vec<usize>> {
    assert!(nworkers > 0);
    let mut plan = vec![Vec::new(); nworkers];
    for t in 0..ntiles {
        plan[t % nworkers].push(t);
    }
    plan
}

/// Throughput-weighted longest-processing-time greedy: tiles are assigned
/// in descending cost order to the worker whose finish time
/// `(load + cost) / speed` would be smallest.
pub fn plan_weighted(costs: &[f64], speeds: &[f64]) -> Vec<Vec<usize>> {
    assert!(!speeds.is_empty());
    assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).unwrap());
    let mut plan = vec![Vec::new(); speeds.len()];
    let mut load = vec![0.0f64; speeds.len()];
    for t in order {
        let (w, _) = load
            .iter()
            .enumerate()
            .map(|(w, &l)| (w, (l + costs[t]) / speeds[w]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        plan[w].push(t);
        load[w] += costs[t];
    }
    plan
}

/// Predicted makespan of a plan: `max_w (Σ costs of w's tiles) / speed_w`.
pub fn predicted_makespan(plan: &[Vec<usize>], costs: &[f64], speeds: &[f64]) -> f64 {
    plan.iter()
        .zip(speeds)
        .map(|(tiles, &s)| tiles.iter().map(|&t| costs[t]).sum::<f64>() / s)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_plan_is_balanced_in_counts() {
        let plan = plan_static(10, 3);
        let counts: Vec<usize> = plan.iter().map(Vec::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn static_plan_covers_all_tiles_once() {
        let plan = plan_static(17, 4);
        let mut seen = [false; 17];
        for tiles in &plan {
            for &t in tiles {
                assert!(!seen[t]);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_plan_respects_speeds() {
        // Worker 1 is 3x faster; with uniform costs it should get ~3x the
        // tiles.
        let costs = vec![1.0; 40];
        let plan = plan_weighted(&costs, &[1.0, 3.0]);
        let (a, b) = (plan[0].len(), plan[1].len());
        assert_eq!(a + b, 40);
        assert!(b > 2 * a, "fast worker got {b}, slow got {a}");
    }

    #[test]
    fn weighted_beats_static_under_heterogeneity() {
        let costs = vec![1.0; 64];
        let speeds = [1.0, 1.0, 8.0];
        let m_static = predicted_makespan(&plan_static(64, 3), &costs, &speeds);
        let m_weighted = predicted_makespan(&plan_weighted(&costs, &speeds), &costs, &speeds);
        assert!(
            m_weighted < 0.5 * m_static,
            "weighted {m_weighted} vs static {m_static}"
        );
    }

    #[test]
    fn weighted_handles_nonuniform_costs() {
        let costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let speeds = [1.0, 1.0];
        let plan = plan_weighted(&costs, &speeds);
        let m = predicted_makespan(&plan, &costs, &speeds);
        // LPT achieves the optimum here: 10 on one worker, 9x1 on the other.
        assert!((m - 10.0).abs() < 1e-12, "makespan {m}");
    }

    #[test]
    fn empty_tiles_ok() {
        assert_eq!(plan_static(0, 2), vec![Vec::<usize>::new(), Vec::new()]);
    }
}
