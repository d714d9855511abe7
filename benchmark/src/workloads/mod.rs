//! The five workloads.

mod amr1d;
mod blast;
mod block3d;
mod device2d;
mod patch2d;
mod serve;

use crate::harness::Workload;

/// Build workload `name` with the inputs `seed` draws.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "patch2d_blast" => Box::new(patch2d::Patch2d::new(seed)),
        "block3d_flow" => Box::new(block3d::Block3d::new(seed)),
        "amr1d_blast" => Box::new(amr1d::Amr1d::new(seed)),
        "device2d_blast" => Box::new(device2d::Device2d::new(seed)),
        "serve_sweep" => Box::new(serve::Serve::new(seed)),
        _ => return None,
    })
}
