//! Post-run statistics: per-resource busy time and utilization.
//!
//! The ablation experiments (block-size and broadcast-algorithm sweeps)
//! need to know *where* virtual time went — e.g. how saturated the
//! sender NIC was during a ring broadcast. Resources accumulate busy
//! time (any instant with ≥ 1 job in service) and served work; the
//! kernel snapshots them into a [`SimStats`] when the run ends.

use std::collections::BTreeMap;

/// Usage accounting for one resource over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceStats {
    /// Virtual seconds during which at least one job was in service.
    pub busy_seconds: f64,
    /// Total work-units served.
    pub work_served: f64,
    /// Number of jobs completed.
    pub jobs_completed: u64,
}

impl ResourceStats {
    /// Fraction of the run the resource was busy (0 when the run had
    /// zero length).
    pub(crate) fn utilization(&self, run_seconds: f64) -> f64 {
        if run_seconds <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / run_seconds).min(1.0)
        }
    }
}

/// Statistics for a completed simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Final virtual time.
    pub end_seconds: f64,
    /// Total events dispatched by the kernel.
    pub events: u64,
    /// Total process polls made by the kernel.
    pub(crate) polls: u64,
    /// Per-resource usage, keyed by resource name.
    pub resources: BTreeMap<String, ResourceStats>,
}

impl SimStats {
    /// The busiest resource by utilization, if any resource saw work.
    pub fn bottleneck(&self) -> Option<(&str, f64)> {
        self.resources
            .iter()
            .filter(|(_, s)| s.busy_seconds > 0.0)
            .max_by(|a, b| a.1.busy_seconds.total_cmp(&b.1.busy_seconds))
            .map(|(name, s)| (name.as_str(), s.utilization(self.end_seconds)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let r = ResourceStats {
            busy_seconds: 5.0,
            work_served: 5.0,
            jobs_completed: 3,
        };
        assert_eq!(r.utilization(10.0), 0.5);
        assert_eq!(r.utilization(0.0), 0.0);
        // Clamped even under float slop.
        let r2 = ResourceStats {
            busy_seconds: 10.000001,
            ..r
        };
        assert_eq!(r2.utilization(10.0), 1.0);
    }

    #[test]
    fn bottleneck_picks_busiest() {
        let mut s = SimStats {
            end_seconds: 10.0,
            events: 5,
            polls: 7,
            resources: BTreeMap::new(),
        };
        assert!(s.bottleneck().is_none());
        s.resources.insert(
            "cpu".into(),
            ResourceStats {
                busy_seconds: 4.0,
                work_served: 4.0,
                jobs_completed: 1,
            },
        );
        s.resources.insert(
            "nic".into(),
            ResourceStats {
                busy_seconds: 9.0,
                work_served: 9.0,
                jobs_completed: 2,
            },
        );
        let (name, util) = s.bottleneck().unwrap();
        assert_eq!(name, "nic");
        assert!((util - 0.9).abs() < 1e-12);
    }
}
