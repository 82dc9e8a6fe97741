//! The two workloads. Each job is one `SuiteSpec` run to a
//! `SuiteReport`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use imc_models::ScenarioRegistry;
use imcis_core::{
    validate_suite_report_json, Client, MemberStatus, ServeError, SetupCache, Suite, SuiteSpec,
};
use imcis_perfbench::stats::JobStatus;
use imcis_perfbench::trace::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{self, Value};

use crate::layers;
use crate::manifests::{self, BATCH_POOL, SERVED_POOL};
use crate::stack::{Stack, TimedSubmit};
use crate::{Metrics, Workload};

/// Seed of the warm-up job's manifest: fixed, so set-up cost does not
/// depend on the workload seed.
const WARMUP_SEED: u64 = 0x5EED;

/// Jobs per batch workload re-run at another thread count after the
/// timed phase.
const RECHECKED_JOBS: usize = 2;

fn nproc() -> usize {
    imc_sim::parallel::available_threads()
}

/// A stream of its own for each purpose, all derived from the run seed.
fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(imc_sim::stream_seed(seed, purpose))
}

/// Seeded choice of up to `k` distinct indices of completed jobs.
fn sample_jobs<O>(seed: u64, outputs: &[Option<O>], k: usize) -> Vec<usize> {
    let mut done: Vec<usize> = (0..outputs.len())
        .filter(|&i| outputs[i].is_some())
        .collect();
    let mut rng = stream(seed, 99);
    let mut picked = Vec::new();
    while picked.len() < k && !done.is_empty() {
        picked.push(done.swap_remove(rng.gen_range(0..done.len())));
    }
    picked
}

fn all_ok(report: &imcis_core::SuiteReport) -> bool {
    report
        .members
        .iter()
        .all(|m| m.status() == MemberStatus::Ok)
}

/// Checks a stable suite report text: valid JSON, valid schema.
fn validate_suite_text(text: &str) -> Result<(), String> {
    let value = json::parse(text).map_err(|e| e.to_string())?;
    validate_suite_report_json(&value)
}

// ---------------------------------------------------------------------
// served-table1

/// `served-table1`: `nproc` closed-loop clients submitting Table-1
/// suites through an in-process router to one in-process daemon.
pub struct ServedTable1 {
    stack: Stack,
    pool: Vec<String>,
}

/// One client connection with its own manifest stream and the first
/// stable report it received for each manifest.
pub struct ServedClient {
    client: Client,
    rng: StdRng,
    first: HashMap<usize, String>,
}

impl ServedTable1 {
    /// Submits one manifest; `idx` names its pool slot (`None` for the
    /// warm-up job, which the later checks do not cover).
    fn submit(
        &self,
        c: &mut ServedClient,
        text: &str,
        idx: Option<usize>,
        job: u64,
        rec: &mut Recorder,
    ) -> (JobStatus, Option<usize>) {
        let Ok(spec) = rec.span("spec.parse", job, |_| text.parse::<SuiteSpec>()) else {
            return (JobStatus::Failed, None);
        };
        let submitted = rec.span("serve.submit", job, |rec| {
            let submitted = TimedSubmit::run(&mut c.client, &spec);
            submitted.record_events(rec, job);
            submitted
        });
        let outcome = match submitted.result {
            Ok(outcome) => outcome,
            Err(ServeError::Rejected { .. }) => return (JobStatus::Rejected, None),
            Err(_) => return (JobStatus::Failed, None),
        };
        rec.note("cache.lookups", outcome.members.len() as f64);
        rec.note("cache.builds", outcome.setups_built as f64);
        let members_ok = outcome
            .members
            .iter()
            .all(|m| m.get("status").and_then(Value::as_str) == Some("ok"));
        let bytes = rec.span("json.write", job, |_| outcome.suite_report.to_string());
        rec.note("report.bytes", bytes.len() as f64);
        let round_trips = rec.span("json.parse", job, |_| {
            json::parse(&bytes).is_ok_and(|v| v == outcome.suite_report)
        });
        // Every repeat of a manifest must match its first answer byte for
        // byte; the first answers are checked against `Suite::run` later.
        let same = match idx.map(|i| c.first.entry(i)) {
            Some(Entry::Occupied(first)) => *first.get() == bytes,
            Some(Entry::Vacant(slot)) => {
                slot.insert(bytes);
                true
            }
            None => true,
        };
        let status = if members_ok && round_trips && same {
            JobStatus::Ok
        } else {
            JobStatus::Failed
        };
        (status, idx)
    }
}

impl Workload for ServedTable1 {
    type Client = ServedClient;
    type Output = usize;

    fn setup(seed: u64) -> Result<(Self, Vec<ServedClient>), String> {
        let stack = Stack::start(nproc())?;
        let mut rng = stream(seed, 1);
        let pool = (0..SERVED_POOL)
            .map(|_| manifests::table1_suite(&mut rng))
            .collect();
        let mut clients = (0..nproc())
            .map(|c| {
                Ok(ServedClient {
                    client: Client::connect(stack.router).map_err(|e| e.to_string())?,
                    rng: stream(seed, 100 + c as u64),
                    first: HashMap::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let workload = ServedTable1 { stack, pool };
        let warmup = manifests::table1_suite(&mut stream(WARMUP_SEED, 1));
        let mut off = Recorder::new(Instant::now(), false);
        if workload
            .submit(&mut clients[0], &warmup, None, 0, &mut off)
            .0
            != JobStatus::Ok
        {
            return Err("served warm-up job failed".into());
        }
        Ok((workload, clients))
    }

    fn job(
        &self,
        c: &mut ServedClient,
        job: u64,
        rec: &mut Recorder,
    ) -> (JobStatus, Option<usize>) {
        let idx = c.rng.gen_range(0..self.pool.len());
        self.submit(c, &self.pool[idx], Some(idx), job, rec)
    }

    fn check(
        &self,
        _seed: u64,
        clients: &mut [ServedClient],
        outputs: &[Option<usize>],
    ) -> Vec<(usize, String)> {
        let registry = ScenarioRegistry::builtin();
        let mut cache = SetupCache::new();
        let mut wrong: HashMap<usize, String> = HashMap::new();
        let mut references: HashMap<usize, String> = HashMap::new();
        for client in clients.iter() {
            for (&idx, served) in &client.first {
                let reference = references.entry(idx).or_insert_with(|| {
                    batch_stable(&self.pool[idx], &registry, &mut cache, None)
                        .unwrap_or_else(|e| format!("in-process run failed: {e}"))
                });
                if served != reference {
                    wrong.insert(idx, "served report differs from `Suite::run`".into());
                } else if let Err(e) = validate_suite_text(served) {
                    wrong.insert(idx, format!("invalid suite report: {e}"));
                }
            }
        }
        outputs
            .iter()
            .enumerate()
            .filter_map(|(i, out)| out.and_then(|idx| wrong.get(&idx)).map(|w| (i, w.clone())))
            .collect()
    }

    fn layers(&self, rec: &mut Recorder, metrics: &mut Metrics) -> Result<Vec<String>, String> {
        let registry = ScenarioRegistry::builtin();
        let mut problems = Vec::new();
        for (job, text) in self.pool.iter().take(4).enumerate() {
            problems.extend(layers::suite_layers(
                text,
                usize::MAX,
                &registry,
                rec,
                job as u64,
            )?);
        }
        metrics.put("router.jobs_routed", self.stack.jobs_routed()? as f64);
        Ok(problems)
    }

    fn stack(&self) -> Option<&Stack> {
        Some(&self.stack)
    }

    fn close(self, clients: Vec<ServedClient>) -> Result<(), String> {
        drop(clients);
        self.stack.stop()
    }
}

/// Runs `text` in process (`Suite::run`, or `run_with_threads`) and
/// returns the stable report JSON.
pub fn batch_stable(
    text: &str,
    registry: &ScenarioRegistry,
    cache: &mut SetupCache,
    threads: Option<usize>,
) -> Result<String, String> {
    let spec: SuiteSpec = text.parse().map_err(|e| format!("{e}"))?;
    let suite = Suite::from_spec_with_cache(spec, registry, cache).map_err(|e| e.to_string())?;
    let report = match threads {
        Some(t) => suite.run_with_threads(t),
        None => suite.run(),
    }
    .map_err(|e| e.to_string())?;
    if !all_ok(&report) {
        return Err("a member was not ok".into());
    }
    Ok(report.to_json_stable().to_string())
}

// ---------------------------------------------------------------------
// imcis-search: one batch caller running `Suite::run`

/// The single batch caller of `imcis-search`.
pub struct BatchClient {
    registry: ScenarioRegistry,
    cache: SetupCache,
    next: usize,
}

/// A completed batch job: its manifest and stable report.
pub struct BatchOutput {
    idx: usize,
    stable: String,
}

/// `imcis-search`: group-repair IMCIS members on a warm cache.
pub struct ImcisSearch {
    pool: Vec<String>,
}

impl ImcisSearch {
    /// Runs one suite manifest, returning its stable report.
    fn run_text(
        &self,
        c: &mut BatchClient,
        text: &str,
        job: u64,
        rec: &mut Recorder,
    ) -> (JobStatus, Option<String>) {
        let Ok(spec) = rec.span("spec.parse", job, |_| text.parse::<SuiteSpec>()) else {
            return (JobStatus::Failed, None);
        };
        let Ok(suite) = rec.span("suite.prepare", job, |_| {
            Suite::from_spec_with_cache(spec, &c.registry, &mut c.cache)
        }) else {
            return (JobStatus::Failed, None);
        };
        rec.note("cache.lookups", suite.sessions().len() as f64);
        rec.note("cache.builds", suite.unique_setups() as f64);
        let Ok(report) = rec.span("suite.run", job, |_| suite.run()) else {
            return (JobStatus::Failed, None);
        };
        let stable = rec.span("report.serialize", job, |_| {
            report.to_json_stable().to_string()
        });
        rec.note("report.bytes", stable.len() as f64);
        let parsed = rec.span("json.parse", job, |_| json::parse(&stable).is_ok());
        let status = if parsed && all_ok(&report) {
            JobStatus::Ok
        } else {
            JobStatus::Failed
        };
        (status, Some(stable))
    }
}

impl Workload for ImcisSearch {
    type Client = BatchClient;
    type Output = BatchOutput;

    fn setup(seed: u64) -> Result<(Self, Vec<BatchClient>), String> {
        let mut rng = stream(seed, 2);
        let pool = (0..BATCH_POOL)
            .map(|i| manifests::imcis_suite(&mut rng, i))
            .collect();
        let workload = ImcisSearch { pool };
        let mut clients = vec![BatchClient {
            registry: ScenarioRegistry::builtin(),
            cache: SetupCache::new(),
            next: 0,
        }];
        let warmup = manifests::imcis_suite(&mut stream(WARMUP_SEED, 2), 0);
        let mut off = Recorder::new(Instant::now(), false);
        if workload.run_text(&mut clients[0], &warmup, 0, &mut off).0 != JobStatus::Ok {
            let c = &clients[0];
            let why = batch_stable(&warmup, &c.registry, &mut SetupCache::new(), None)
                .err()
                .unwrap_or_default();
            return Err(format!("batch warm-up job failed: {why}"));
        }
        Ok((workload, clients))
    }

    fn job(
        &self,
        c: &mut BatchClient,
        job: u64,
        rec: &mut Recorder,
    ) -> (JobStatus, Option<BatchOutput>) {
        let idx = c.next % self.pool.len();
        c.next += 1;
        let (status, stable) = self.run_text(c, &self.pool[idx], job, rec);
        (status, stable.map(|stable| BatchOutput { idx, stable }))
    }

    fn check(
        &self,
        seed: u64,
        clients: &mut [BatchClient],
        outputs: &[Option<BatchOutput>],
    ) -> Vec<(usize, String)> {
        let mut wrong = Vec::new();
        for (i, out) in outputs.iter().enumerate() {
            if let Some(out) = out {
                if let Err(e) = validate_suite_text(&out.stable) {
                    wrong.push((i, format!("invalid suite report: {e}")));
                }
            }
        }
        // The timed phase ran on one suite worker; re-run a seeded
        // sample with two.
        let client = &mut clients[0];
        for i in sample_jobs(seed, outputs, RECHECKED_JOBS) {
            let out = outputs[i].as_ref().expect("sampled jobs completed");
            match batch_stable(
                &self.pool[out.idx],
                &client.registry,
                &mut client.cache,
                Some(2),
            ) {
                Ok(again) if again == out.stable => {}
                Ok(_) => wrong.push((i, "report differs at suite threads = 2".into())),
                Err(e) => wrong.push((i, format!("re-run failed: {e}"))),
            }
        }
        wrong
    }

    fn layers(&self, rec: &mut Recorder, _: &mut Metrics) -> Result<Vec<String>, String> {
        let registry = ScenarioRegistry::builtin();
        layers::suite_layers(&self.pool[0], usize::MAX, &registry, rec, 0)
    }

    fn close(self, _: Vec<BatchClient>) -> Result<(), String> {
        Ok(())
    }
}
