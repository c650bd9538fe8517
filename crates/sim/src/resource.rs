//! Processor-sharing resources.
//!
//! A [`SharedResource`] serves all active jobs simultaneously at a rate of
//! `speed / n` work-units per second when `n` jobs are present. This is the
//! classical *processor sharing* queueing discipline and is the right model
//! for the two contended devices in the study:
//!
//! * a CPU running `Mi` time-sliced HPL processes (the paper's
//!   multiprocessing approach) — Linux's scheduler approximates fair
//!   sharing over the quanta relevant here;
//! * a NIC/link carrying several concurrent transfers.
//!
//! The resource is a pure state machine driven by the simulation kernel.
//! Most jobs find their resource idle, so a job that arrives on an idle
//! resource is served *alone*: it stays out of the job list, and the
//! resource hands back the one-job completion time, which the kernel
//! schedules as the process's own wake or, when that wake would be the
//! next event, completes at once inside the process's poll. When a
//! second job arrives, the lone job moves into the list as it stood
//! when it started, and from then on the shared path runs: the kernel
//! advances the resource to the current virtual time before every
//! membership change and asks for the next completion to schedule. The
//! kernel keeps exactly one queue entry per resource with a listed job
//! and rewrites it after each change, so a resource never sees a
//! completion event scheduled for a job set it no longer has.
//!
//! The lone path is bit-identical to serving the job through the list:
//! its completion time is the expression [`SharedResource::next_completion`]
//! gives one job (`speed / 1` and `served · 1` are exact), and its
//! accounting on completion is that of `advance_to` plus
//! `take_completed`.

use crate::kernel::Pid;
use crate::label::Label;
use crate::time::SimTime;

/// Identifies a resource registered with a [`crate::Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResourceId(pub(crate) usize);

/// One in-service job on a processor-sharing resource.
#[derive(Debug)]
struct Job {
    pid: Pid,
    /// Work remaining, in work-units (seconds at full, uncontended speed
    /// for a unit-speed resource).
    remaining: f64,
    /// Completion tolerance derived from the job's initial size, so float
    /// drift never strands an almost-finished job.
    eps: f64,
}

/// A processor-sharing resource (CPU or network link).
#[derive(Debug)]
pub(crate) struct SharedResource {
    name: Label,
    /// Work-units served per second when a single job is active.
    speed: f64,
    jobs: Vec<Job>,
    /// The job served alone, kept out of `jobs`: its pid and its work.
    /// Set only while `jobs` is empty.
    lone: Option<(Pid, f64)>,
    last_update: SimTime,
    /// Accumulated statistics (busy time, served work, completions).
    pub(crate) stats: crate::stats::ResourceStats,
}

impl SharedResource {
    pub(crate) fn new(name: impl Into<Label>, speed: f64) -> Self {
        assert!(speed > 0.0, "resource speed must be positive");
        SharedResource {
            name: name.into(),
            speed,
            jobs: Vec::new(),
            lone: None,
            last_update: SimTime::ZERO,
            stats: crate::stats::ResourceStats::default(),
        }
    }

    pub(crate) fn name(&self) -> &Label {
        &self.name
    }

    /// Divides the service speed by `slowdown` — the fault-injection
    /// hook behind [`crate::Simulation::derate_resource`]. The caller
    /// must have advanced the resource to the current virtual time
    /// first, so in-flight jobs keep the work they were already served,
    /// and reschedule the completion afterwards.
    pub(crate) fn derate(&mut self, slowdown: f64) {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "slowdown must be a finite positive factor, got {slowdown} on {}",
            self.name
        );
        self.speed /= slowdown;
        assert!(
            self.speed > 0.0,
            "derated speed must stay positive on {}",
            self.name
        );
    }

    /// Current per-job service rate.
    fn rate(&self) -> f64 {
        debug_assert!(!self.jobs.is_empty());
        self.speed / self.jobs.len() as f64
    }

    /// Advances all in-service jobs to `now`, consuming remaining work.
    /// A lone job must have been moved into the list first
    /// ([`share_lone`](Self::share_lone)).
    pub(crate) fn advance_to(&mut self, now: SimTime) {
        debug_assert!(
            self.lone.is_none(),
            "{}: advanced with a lone job in service",
            self.name
        );
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-12, "time went backwards: {dt}");
        if !self.jobs.is_empty() && dt > 0.0 {
            let served = self.rate() * dt;
            for job in &mut self.jobs {
                job.remaining -= served;
            }
            self.stats.busy_seconds += dt;
            self.stats.work_served += served * self.jobs.len() as f64;
        }
        self.last_update = now;
    }

    /// Adds a job of `work` work-units for `pid`. The caller must have
    /// called [`advance_to`](Self::advance_to) first.
    pub(crate) fn add_job(&mut self, pid: Pid, work: f64) {
        self.check_work(work);
        let eps = 1e-12 * work.max(1.0);
        self.jobs.push(Job {
            pid,
            remaining: work,
            eps,
        });
    }

    /// Panics unless `work` is finite and non-negative.
    fn check_work(&self, work: f64) {
        assert!(
            work >= 0.0 && work.is_finite(),
            "job work must be finite and non-negative, got {work} on {}",
            self.name
        );
    }

    /// The completion time of `work` work-units started alone at `now`,
    /// if the resource is idle: the time
    /// [`next_completion`](Self::next_completion) gives one job, clamped
    /// to `now` as the kernel clamps it. `None` on a busy resource.
    pub(crate) fn lone_completion(&self, now: SimTime, work: f64) -> Option<SimTime> {
        if self.lone.is_some() || !self.jobs.is_empty() {
            return None;
        }
        self.check_work(work);
        Some((now + work.max(0.0) / self.speed).max(now))
    }

    /// Starts `work` work-units for `pid` at `now` as the lone job. The
    /// resource must be idle ([`lone_completion`](Self::lone_completion)
    /// gave its completion time).
    pub(crate) fn start_lone(&mut self, now: SimTime, pid: Pid, work: f64) {
        debug_assert!(
            self.lone.is_none() && self.jobs.is_empty(),
            "{}: a lone job started on a busy resource",
            self.name
        );
        self.lone = Some((pid, work));
        self.last_update = now;
    }

    /// Moves the lone job, if any, into the job list as it stood when it
    /// started (`last_update` is its start), and returns its pid. The
    /// shared path then advances it exactly as if it had been listed all
    /// along.
    pub(crate) fn share_lone(&mut self) -> Option<Pid> {
        let (pid, work) = self.lone.take()?;
        self.add_job(pid, work);
        Some(pid)
    }

    /// Completes the lone job at `now`, the time
    /// [`lone_completion`](Self::lone_completion) gave: the busy time, served
    /// work and completion that `advance_to` and `take_completed` count
    /// for a single job.
    pub(crate) fn finish_lone(&mut self, now: SimTime) {
        debug_assert!(self.lone.is_some(), "{}: no lone job to finish", self.name);
        self.lone = None;
        let dt = now - self.last_update;
        if dt > 0.0 {
            self.stats.busy_seconds += dt;
            self.stats.work_served += self.speed * dt;
        }
        self.last_update = now;
        self.stats.jobs_completed += 1;
    }

    /// Removes every job whose remaining work is (numerically) zero and
    /// writes their pids into `done`, replacing its contents; the caller
    /// owns and reuses the buffer. The caller must have advanced the
    /// resource to `now` first.
    ///
    /// When `force_min` is set — used by the kernel on a completion
    /// event, whose job set is unchanged since the event was scheduled
    /// (the kernel rewrites the event on every change), so the minimum
    /// job is due exactly now — the
    /// minimum-remaining job is completed even if float drift left it a
    /// few ulps short. Without this, a long simulation can livelock:
    /// `served = rate·(t − last_update)` accumulates relative error
    /// proportional to the absolute time, the job never crosses the fixed
    /// tolerance, and the resource refires at `now + ε` forever.
    pub(crate) fn take_completed(&mut self, force_min: bool, done: &mut Vec<Pid>) {
        done.clear();
        let mut i = 0;
        while i < self.jobs.len() {
            if self.jobs[i].remaining <= self.jobs[i].eps {
                done.push(self.jobs.remove(i).pid);
            } else {
                i += 1;
            }
        }
        if done.is_empty() && force_min && !self.jobs.is_empty() {
            let (arg_min, _) = self
                .jobs
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.remaining.total_cmp(&b.remaining))
                .expect("non-empty");
            done.push(self.jobs.remove(arg_min).pid);
        }
        self.stats.jobs_completed += done.len() as u64;
    }

    /// Virtual time at which the next job completes, if any job is active.
    pub(crate) fn next_completion(&self) -> Option<SimTime> {
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining.max(0.0))
            .fold(f64::INFINITY, f64::min);
        if min_remaining.is_finite() {
            Some(self.last_update + min_remaining / self.rate())
        } else {
            None
        }
    }

    /// Number of in-service jobs, a lone one included (used by tests).
    #[cfg(test)]
    pub(crate) fn load(&self) -> usize {
        self.jobs.len() + usize::from(self.lone.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> Pid {
        Pid(i)
    }

    fn completed(r: &mut SharedResource, force_min: bool) -> Vec<Pid> {
        let mut done = Vec::new();
        r.take_completed(force_min, &mut done);
        done
    }

    #[test]
    fn single_job_completes_after_work_over_speed() {
        let mut r = SharedResource::new("cpu", 2.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 4.0);
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 2.0).abs() < 1e-12);
        r.advance_to(t);
        assert_eq!(completed(&mut r, false), vec![pid(0)]);
        assert_eq!(r.load(), 0);
    }

    #[test]
    fn a_lone_job_matches_the_two_step_accounting_bit_for_bit() {
        // Each case serves one job twice on fresh resources with the same
        // history: once alone, once through the list (advance, add,
        // next completion clamped as the kernel clamps it, advance to it,
        // forced completion). Times, busy seconds, served work and the
        // completion count must agree to the bit.
        for (speed, start, work) in [
            (1.0, 0.0, 3.0),
            (1.3, 0.7, 0.1),
            (3.0, 1e-3, 0.0),
            (0.37, 12.5, 1.0 / 3.0),
            (2.0, 1e9, 7.25),
        ] {
            let mut alone = SharedResource::new("alone", speed);
            let mut listed = SharedResource::new("listed", speed);
            for r in [&mut alone, &mut listed] {
                // Earlier service, so the stats start from non-zero sums.
                r.advance_to(SimTime::ZERO);
                r.add_job(pid(9), 0.3);
                r.advance_to(SimTime::new(0.3 / speed));
                completed(r, true);
            }
            let start = SimTime::new(start).max(SimTime::new(0.3 / speed));
            let t_alone = alone.lone_completion(start, work).unwrap();
            alone.start_lone(start, pid(0), work);
            assert_eq!(alone.load(), 1);
            alone.finish_lone(t_alone);

            listed.advance_to(start);
            listed.add_job(pid(0), work);
            let t_listed = listed.next_completion().unwrap().max(start);
            listed.advance_to(t_listed);
            assert_eq!(completed(&mut listed, true), vec![pid(0)]);

            let what = format!("speed {speed}, start {start:?}, work {work}");
            assert_eq!(
                t_alone.secs().to_bits(),
                t_listed.secs().to_bits(),
                "{what}"
            );
            let (a, l) = (alone.stats, listed.stats);
            assert_eq!(a.busy_seconds.to_bits(), l.busy_seconds.to_bits(), "{what}");
            assert_eq!(a.work_served.to_bits(), l.work_served.to_bits(), "{what}");
            assert_eq!(a.jobs_completed, l.jobs_completed, "{what}");
            assert_eq!((alone.load(), listed.load()), (0, 0));
        }
    }

    #[test]
    fn a_busy_resource_starts_no_lone_job_and_shares_its_lone_one() {
        let mut r = SharedResource::new("cpu", 2.0);
        let t = r.lone_completion(SimTime::new(1.0), 4.0).unwrap();
        assert_eq!(t, SimTime::new(3.0));
        r.start_lone(SimTime::new(1.0), pid(0), 4.0);
        assert!(r.lone_completion(SimTime::new(2.0), 1.0).is_none());
        // Job 1 joins at t=2: job 0 moves into the list as it started
        // (4 units at t=1), has 2 left, and both then run at rate 1.
        assert_eq!(r.share_lone(), Some(pid(0)));
        assert_eq!(r.share_lone(), None);
        r.advance_to(SimTime::new(2.0));
        r.add_job(pid(1), 1.0);
        assert_eq!(r.next_completion(), Some(SimTime::new(3.0)));
        assert_eq!(r.load(), 2);
    }

    #[test]
    fn two_equal_jobs_share_fairly() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 1.0);
        r.add_job(pid(1), 1.0);
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 2.0).abs() < 1e-12, "got {t:?}");
        r.advance_to(t);
        let mut done = completed(&mut r, false);
        done.sort_by_key(|p| p.0);
        assert_eq!(done, vec![pid(0), pid(1)]);
    }

    #[test]
    fn late_arrival_slows_first_job() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 2.0);
        // At t=1, one unit of work remains on job 0; job 1 arrives.
        r.advance_to(SimTime::new(1.0));
        r.add_job(pid(1), 3.0);
        // Both at rate 1/2. Job 0 finishes after 2 more seconds (t=3).
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 3.0).abs() < 1e-12, "got {t:?}");
        r.advance_to(t);
        assert_eq!(completed(&mut r, false), vec![pid(0)]);
        // Job 1 has 3 - 1 = 2 units left, now alone: finishes at t=5.
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 5.0).abs() < 1e-12, "got {t:?}");
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 0.0);
        let t = r.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        r.advance_to(t);
        assert_eq!(completed(&mut r, false), vec![pid(0)]);
    }

    #[test]
    fn take_completed_replaces_the_buffer_and_force_min_completes_one() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 1.0);
        r.add_job(pid(1), 4.0);
        // Stale contents from an earlier completion are dropped.
        let mut done = vec![pid(7), pid(8)];
        r.take_completed(false, &mut done);
        assert!(done.is_empty(), "nothing is due at t=0");
        // A few ulps short of due: only `force_min` completes job 0, and
        // job 1 stays in service.
        r.advance_to(SimTime::new(2.0 * (1.0 - 1e-9)));
        r.take_completed(false, &mut done);
        assert!(done.is_empty());
        r.take_completed(true, &mut done);
        assert_eq!(done, vec![pid(0)]);
        assert_eq!(r.load(), 1);
        assert_eq!(r.stats.jobs_completed, 1);
    }

    #[test]
    fn derate_slows_subsequent_service_without_losing_progress() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 2.0);
        // One unit served by t=1, then the CPU is derated 2x: the
        // remaining unit takes 2 more seconds.
        r.advance_to(SimTime::new(1.0));
        r.derate(2.0);
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 3.0).abs() < 1e-12, "got {t:?}");
    }

    #[test]
    fn derate_composes_multiplicatively() {
        let mut r = SharedResource::new("cpu", 4.0);
        r.derate(2.0);
        r.derate(2.0);
        r.advance_to(SimTime::ZERO);
        r.add_job(pid(0), 1.0);
        let t = r.next_completion().unwrap();
        assert!((t.secs() - 1.0).abs() < 1e-12, "4.0 speed derated to 1.0");
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn non_positive_derate_rejected() {
        let mut r = SharedResource::new("cpu", 1.0);
        r.derate(0.0);
    }

    #[test]
    fn no_jobs_means_no_completion() {
        let r = SharedResource::new("cpu", 1.0);
        assert!(r.next_completion().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        let _ = SharedResource::new("cpu", 0.0);
    }
}
