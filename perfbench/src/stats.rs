//! Percentiles, the tail rule and closed-loop job accounting.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted` values: the smallest sample with at least `p`% of the
/// samples at or below it. `NaN` when `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` in any order (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency together with the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (nearest rank) the value sits at.
    pub percentile: f64,
    /// How many samples lie beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
    /// The value at that percentile.
    pub value: f64,
}

/// The highest nearest-rank percentile of ascending `sorted` that still
/// has at least [`TAIL_BEYOND`] samples beyond it, or `None` when there
/// are too few samples for one.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let index = n - TAIL_BEYOND - 1;
    Some(Tail {
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - index - 1,
        samples: n,
        value: sorted[index],
    })
}

/// How one attempted job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed, every member `ok`, output check passed.
    Ok,
    /// Errored, had a member that was not `ok`, or failed a check.
    Failed,
    /// Refused by the server (`rejected`) and never run.
    Rejected,
}

/// Completions per throughput window. A multiple of `imcis-search`'s
/// two-job cycle, so each of its windows holds the same mix of jobs.
pub const WINDOW_JOBS: usize = 14;

/// Fewest whole windows [`ClosedLoop::jobs_per_s`] takes a median over;
/// a shorter phase falls back to its overall rate.
pub const MIN_WINDOWS: usize = 3;

/// One attempted job in a [`ClosedLoop`] ledger.
#[derive(Debug, Clone, Copy)]
struct Job {
    status: JobStatus,
    latency_ms: f64,
    /// When it completed, in seconds from the start of the phase.
    done_s: f64,
}

/// The ledger of a closed-loop phase: every job a client started,
/// whether or not it came back usable.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    jobs: Vec<Job>,
    elapsed_s: f64,
}

impl ClosedLoop {
    /// An empty ledger.
    pub fn new() -> Self {
        ClosedLoop::default()
    }

    /// Records one attempted job, its latency and when it completed
    /// (seconds from the start of the phase).
    pub fn record(&mut self, status: JobStatus, latency_ms: f64, done_s: f64) {
        self.jobs.push(Job {
            status,
            latency_ms,
            done_s,
        });
    }

    /// Marks a job recorded earlier as failed (an output check that ran
    /// after the timed phase found it wrong).
    pub fn fail(&mut self, index: usize) {
        self.jobs[index].status = JobStatus::Failed;
    }

    /// Folds another client's ledger into this one.
    pub fn merge(&mut self, other: ClosedLoop) {
        self.jobs.extend(other.jobs);
    }

    /// Sets the wall time of the phase the jobs ran in.
    pub fn set_elapsed(&mut self, seconds: f64) {
        self.elapsed_s = seconds;
    }

    /// Jobs started, however they ended.
    pub fn attempted(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs that failed or were rejected.
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.status != JobStatus::Ok)
            .count()
    }

    /// Jobs refused by the server.
    pub fn rejected(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.status == JobStatus::Rejected)
            .count()
    }

    /// Share of attempted jobs that came back usable.
    pub fn ok_frac(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        1.0 - self.failed() as f64 / self.attempted() as f64
    }

    /// Usable jobs per second: the median rate over consecutive windows
    /// of [`WINDOW_JOBS`] completions, each window running from the
    /// previous window's last completion (or the phase start) to its
    /// own; a trailing partial window is left out. A host-contention
    /// episode slows only the windows it overlaps, so it moves the
    /// median far less than the overall rate. With fewer than
    /// [`MIN_WINDOWS`] windows, usable jobs per second of phase wall
    /// time.
    pub fn jobs_per_s(&self) -> f64 {
        let mut done: Vec<(f64, bool)> = self
            .jobs
            .iter()
            .map(|j| (j.done_s, j.status == JobStatus::Ok))
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        if done.len() < MIN_WINDOWS * WINDOW_JOBS {
            return (self.attempted() - self.failed()) as f64 / self.elapsed_s;
        }
        let mut from = 0.0;
        let rates: Vec<f64> = done
            .chunks_exact(WINDOW_JOBS)
            .map(|window| {
                let to = window[WINDOW_JOBS - 1].0;
                let usable = window.iter().filter(|(_, ok)| *ok).count();
                let rate = usable as f64 / (to - from);
                from = to;
                rate
            })
            .collect();
        median(&rates)
    }

    /// Latencies in ascending order, a failed or rejected job counting
    /// as missing every limit (`+inf`).
    pub fn latencies(&self) -> Vec<f64> {
        let mut values: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| {
                if j.status == JobStatus::Ok {
                    j.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        values.sort_by(f64::total_cmp);
        values
    }

    /// Median job latency (ms).
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies(), 50.0)
    }

    /// Tail job latency by [`tail`].
    pub fn tail(&self) -> Option<Tail> {
        tail(&self.latencies())
    }
}
