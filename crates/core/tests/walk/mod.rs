//! The bank walk the raw estimate was before it became the estimate
//! fold, kept as an independent oracle for the raw estimate and its
//! `(Ta, Tc)` split.

use etm_cluster::Configuration;
use etm_core::pipeline::{ModelBank, PipelineError, RawParts};
use etm_core::SampleKey;

/// `config`'s raw §3.4 estimate at size `n`, walked straight over the
/// bank: a single-PE configuration reads its N-T model, any other the
/// P-T model of each used `(kind, Mᵢ)` at the run's total process
/// count. The estimate is the first use, in use order, whose `Ta + Tc`
/// is the strict maximum, with that use's split; all zero when no term
/// exceeds zero.
pub fn raw_walk(
    bank: &ModelBank,
    config: &Configuration,
    n: usize,
) -> Result<RawParts, PipelineError> {
    let p = config.total_processes();
    if p == 0 {
        return Err(PipelineError::EmptyConfiguration);
    }
    let mut worst = RawParts::default();
    for u in config.uses.iter().filter(|u| u.pes > 0) {
        let (kind, m) = (u.kind.0, u.procs_per_pe);
        let (ta, tc) = if config.is_single_pe() {
            let key = SampleKey::new(u.kind, 1, m);
            let nt = bank.nt.get(&key).ok_or(PipelineError::MissingNt(key))?;
            (nt.ta(n), nt.tc(n))
        } else {
            let pt = bank
                .pt
                .get(&(kind, m))
                .ok_or(PipelineError::MissingPt { kind, m })?;
            (pt.ta(n, p), pt.tc(n, p))
        };
        if ta + tc > worst.total {
            worst = RawParts {
                total: ta + tc,
                ta,
                tc,
            };
        }
    }
    Ok(worst)
}
