//! The statistics every reported number rests on.

use std::time::{Duration, Instant};

use imcis_perfbench::stats::{self, ClosedLoop, JobStatus, MIN_WINDOWS, TAIL_BEYOND, WINDOW_JOBS};
use imcis_perfbench::trace::{self, Recorder, Span};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 100 samples: p90 is the 90th value, with values 91..=100 beyond.
    let t = stats::tail(&ascending(100)).expect("enough samples");
    assert_eq!(
        (t.value, t.percentile, t.beyond, t.samples),
        (90.0, 90.0, 10, 100)
    );
    // 1000 samples: p99.
    let t = stats::tail(&ascending(1000)).unwrap();
    assert_eq!((t.value, t.percentile), (990.0, 99.0));
    // 3000 samples: p99.667, never rounded up to a percentile that
    // would leave fewer than ten samples beyond.
    let t = stats::tail(&ascending(3000)).unwrap();
    assert_eq!(t.value, 2990.0);
    assert!((t.percentile - 299_000.0 / 3000.0).abs() < 1e-12);
    let beyond = ascending(3000).iter().filter(|&&v| v > t.value).count();
    assert_eq!(beyond, TAIL_BEYOND);
    // The nearest-rank percentile at that level gives back the tail.
    assert_eq!(stats::percentile(&ascending(3000), t.percentile), t.value);
}

#[test]
fn tail_needs_more_than_ten_samples() {
    assert_eq!(stats::tail(&ascending(10)), None);
    let t = stats::tail(&ascending(11)).unwrap();
    assert_eq!((t.value, t.beyond), (1.0, 10));
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
}

#[test]
fn nearest_rank_percentiles() {
    let v = ascending(10);
    assert_eq!(stats::percentile(&v, 50.0), 5.0);
    assert_eq!(stats::percentile(&v, 51.0), 6.0);
    assert_eq!(stats::percentile(&v, 100.0), 10.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert!(stats::percentile(&[], 50.0).is_nan());
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start_ns,
        end_ns,
        parent,
        job: 0,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span("job", 0, 100, None),
        // Two concurrent children overlapping on [30, 40]...
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        // ...one nested inside `a` (covers part of `a`, not of `job`)...
        span("a.inner", 15, 25, Some(1)),
        // ...and one running past the parent's end, clipped to it.
        span("c", 90, 120, Some(0)),
    ];
    let selfs = trace::self_times(&spans);
    // job: 100 − |[10, 60] ∪ [90, 100]| = 100 − 60.
    assert_eq!(selfs[0], 40);
    assert_eq!(selfs[1], 30 - 10);
    assert_eq!(selfs[2], 30);
    assert_eq!(selfs[3], 10);
    assert_eq!(selfs[4], 30);
}

#[test]
fn self_time_of_a_fully_covered_span_is_zero() {
    let spans = vec![
        span("job", 0, 50, None),
        span("x", 0, 30, Some(0)),
        span("y", 20, 50, Some(0)),
        span("z", 5, 45, Some(0)),
    ];
    assert_eq!(trace::self_times(&spans)[0], 0);
}

#[test]
fn recorder_nests_spans_and_disabled_recorder_records_nothing() {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, true);
    let out = rec.span("job", 7, |rec| {
        rec.span("inner", 7, |_| std::thread::sleep(Duration::from_millis(2)));
        rec.note("bytes", 12.0);
        41 + 1
    });
    assert_eq!(out, 42);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name.as_str(), spans[0].parent), ("job", None));
    assert_eq!(
        (spans[1].name.as_str(), spans[1].parent),
        ("inner", Some(0))
    );
    assert!(spans[1].duration_ns() <= spans[0].duration_ns());
    assert_eq!(rec.notes(), &[("bytes".to_string(), 12.0)]);

    let mut off = Recorder::new(origin, false);
    assert_eq!(off.span("job", 1, |rec| rec.span("inner", 1, |_| 5)), 5);
    off.note("bytes", 1.0);
    assert!(off.spans().is_empty() && off.notes().is_empty());
}

#[test]
fn closed_loop_counts_failed_and_rejected_jobs_as_attempted_and_missing() {
    let mut ledger = ClosedLoop::new();
    for (i, ms) in [10.0, 20.0, 30.0, 40.0].into_iter().enumerate() {
        ledger.record(JobStatus::Ok, ms, i as f64);
    }
    ledger.record(JobStatus::Failed, 1.0, 4.0);
    ledger.record(JobStatus::Rejected, 0.5, 5.0);
    ledger.set_elapsed(2.0);
    assert_eq!(ledger.attempted(), 6);
    assert_eq!(ledger.failed(), 2);
    assert_eq!(ledger.rejected(), 1);
    assert!((ledger.ok_frac() - 4.0 / 6.0).abs() < 1e-12);
    // Only usable jobs count as throughput.
    assert_eq!(ledger.jobs_per_s(), 2.0);
    // A fast failure never improves latency: it counts as missing every
    // limit, so it sorts last.
    let lat = ledger.latencies();
    assert_eq!(&lat[..4], &[10.0, 20.0, 30.0, 40.0]);
    assert!(lat[4].is_infinite() && lat[5].is_infinite());
    assert_eq!(ledger.p50_ms(), 30.0);
}

#[test]
fn a_failed_output_check_fails_its_job_after_the_fact() {
    let mut a = ClosedLoop::new();
    a.record(JobStatus::Ok, 5.0, 0.005);
    a.record(JobStatus::Ok, 6.0, 0.011);
    let mut b = ClosedLoop::new();
    b.record(JobStatus::Ok, 7.0, 0.007);
    a.merge(b);
    a.fail(2);
    a.set_elapsed(1.0);
    assert_eq!((a.attempted(), a.failed()), (3, 1));
    assert_eq!(a.jobs_per_s(), 2.0);
    assert!(a.latencies()[2].is_infinite());
}

/// A ledger of `windows` back-to-back windows of `WINDOW_JOBS` jobs,
/// each job taking `job_s(window)` seconds.
fn windowed(windows: usize, job_s: impl Fn(usize) -> f64) -> ClosedLoop {
    let mut ledger = ClosedLoop::new();
    let mut now = 0.0;
    for w in 0..windows {
        for _ in 0..WINDOW_JOBS {
            now += job_s(w);
            ledger.record(JobStatus::Ok, job_s(w) * 1e3, now);
        }
    }
    ledger.set_elapsed(now);
    ledger
}

#[test]
fn throughput_is_the_median_window_rate() {
    // Five windows at 10 jobs/s, two of them slowed to 5 jobs/s: the
    // overall rate drops, the median window rate does not.
    let ledger = windowed(5, |w| if w == 1 || w == 3 { 0.2 } else { 0.1 });
    assert!((ledger.jobs_per_s() - 10.0).abs() < 1e-9);
    // A trailing partial window is left out.
    let mut longer = windowed(3, |_| 0.1);
    longer.record(JobStatus::Ok, 5000.0, 9.2);
    longer.set_elapsed(9.2);
    assert!((longer.jobs_per_s() - 10.0).abs() < 1e-9);
}

#[test]
fn a_failed_job_counts_against_its_windows_rate() {
    let mut ledger = windowed(MIN_WINDOWS, |_| 0.1);
    for index in 0..MIN_WINDOWS {
        ledger.fail(index * WINDOW_JOBS);
    }
    let expected = (WINDOW_JOBS - 1) as f64 / (WINDOW_JOBS as f64 * 0.1);
    assert!((ledger.jobs_per_s() - expected).abs() < 1e-9);
}

#[test]
fn too_few_windows_fall_back_to_the_overall_rate() {
    let ledger = windowed(MIN_WINDOWS - 1, |w| if w == 0 { 0.1 } else { 0.3 });
    let jobs = ((MIN_WINDOWS - 1) * WINDOW_JOBS) as f64;
    let elapsed = WINDOW_JOBS as f64 * (0.1 + 0.3 * (MIN_WINDOWS - 2) as f64);
    assert!((ledger.jobs_per_s() - jobs / elapsed).abs() < 1e-9);
}
