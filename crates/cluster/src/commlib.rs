//! Communication-library profiles.
//!
//! §2 of the paper: Sasou et al. found multiprocessing performed poorly
//! and blamed OS scheduling; Kishimoto & Ichikawa replicated the problem
//! and traced it to the *communication library* — MPICH-1.2.1's intra-node
//! (same-host) path collapses for large blocks, while MPICH-1.2.2
//! sustains over 2 Gb/s (their Fig. 2), which is what makes
//! multiprocessing viable at all (their Fig. 1). A [`CommLibProfile`]
//! captures that intra-node throughput curve.

/// Intra-node communication profile of an MPI implementation.
///
/// Throughput for a message of `b` bytes follows the classic saturating
/// curve `bw_max · b / (b + half_size)`, optionally degraded beyond a
/// buffer-management cliff — the signature of MPICH-1.2.1's localhost
/// path in Fig. 2(a).
#[derive(Clone, Copy, Debug)]
pub struct CommLibProfile {
    /// Profile name ("MPICH-1.2.1").
    pub name: &'static str,
    /// Peak intra-node throughput in bytes/s.
    pub intra_bw_max: f64,
    /// Message size at which half the peak throughput is reached.
    pub(crate) intra_half_bytes: f64,
    /// Per-message intra-node latency in seconds.
    pub intra_latency: f64,
    /// Optional throughput cliff: beyond this message size, throughput
    /// decays as `cliff / b` of its plateau value (buffer thrashing).
    pub(crate) intra_cliff_bytes: Option<f64>,
}

impl CommLibProfile {
    /// MPICH-1.2.1 analogue: low plateau (~0.35 Gb/s ≈ 44 MB/s) with a
    /// collapse past 32 KiB messages — multiprocessing hostile.
    pub fn mpich121() -> Self {
        CommLibProfile {
            name: "MPICH-1.2.1",
            intra_bw_max: 44e6,
            intra_half_bytes: 2.0 * 1024.0,
            intra_latency: 45e-6,
            intra_cliff_bytes: Some(32.0 * 1024.0),
        }
    }

    /// MPICH-1.2.2 analogue: ~2.2 Gb/s ≈ 275 MB/s plateau, no cliff —
    /// adequately buffered shared-memory path.
    pub fn mpich122() -> Self {
        CommLibProfile {
            name: "MPICH-1.2.2",
            intra_bw_max: 275e6,
            intra_half_bytes: 4.0 * 1024.0,
            intra_latency: 30e-6,
            intra_cliff_bytes: None,
        }
    }

    /// Intra-node throughput (bytes/s) for a message of `bytes` bytes.
    pub fn intra_throughput(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        let mut bw = self.intra_bw_max * bytes / (bytes + self.intra_half_bytes);
        if let Some(cliff) = self.intra_cliff_bytes {
            if bytes > cliff {
                bw *= cliff / bytes;
            }
        }
        bw
    }

    /// Time to move `bytes` between two processes on the same node.
    pub fn intra_time(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return self.intra_latency;
        }
        self.intra_latency + bytes / self.intra_throughput(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_saturates_with_block_size() {
        let lib = CommLibProfile::mpich122();
        let small = lib.intra_throughput(1024.0);
        let large = lib.intra_throughput(128.0 * 1024.0);
        assert!(large > small);
        assert!(large <= lib.intra_bw_max);
        assert!(large > 0.9 * lib.intra_bw_max, "128K is near the plateau");
    }

    #[test]
    fn mpich121_collapses_past_cliff() {
        let lib = CommLibProfile::mpich121();
        let at_cliff = lib.intra_throughput(32.0 * 1024.0);
        let past = lib.intra_throughput(256.0 * 1024.0);
        assert!(
            past < at_cliff / 4.0,
            "cliff: {at_cliff} -> {past} should collapse"
        );
    }

    #[test]
    fn mpich122_dominates_mpich121_at_all_sizes() {
        // The Fig. 2 relationship that explains Fig. 1.
        let old = CommLibProfile::mpich121();
        let new = CommLibProfile::mpich122();
        for kb in [1.0, 4.0, 16.0, 64.0, 128.0, 512.0] {
            let b = kb * 1024.0;
            assert!(
                new.intra_throughput(b) > old.intra_throughput(b),
                "at {kb} KiB"
            );
        }
    }

    #[test]
    fn intra_time_includes_latency() {
        let lib = CommLibProfile::mpich122();
        assert_eq!(lib.intra_time(0.0), lib.intra_latency);
        let t = lib.intra_time(1e6);
        assert!(t > lib.intra_latency);
        assert!(t > 1e6 / lib.intra_bw_max);
    }

    #[test]
    fn zero_bytes_zero_throughput() {
        assert_eq!(CommLibProfile::mpich122().intra_throughput(0.0), 0.0);
    }
}
