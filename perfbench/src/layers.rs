//! The traced run's layer pass and probe pass.
//!
//! The layer pass re-runs a workload's own manifests one public call at
//! a time — scenario build or DSL compile, `Session::run`, and for IMCIS
//! members the Algorithm 1 phases (`sample_is_run` → `Problem::new` →
//! `search` → `Objective::estimate`) — with a span around each call.
//! The probe pass measures every layer on fixed, seed-drawn inputs,
//! including the machine-independent ratios; it fills in the per-layer
//! metrics a workload does not exercise itself.

use std::sync::Arc;
use std::time::Instant;

use imc_models::{fleet, repair, ScenarioParams, ScenarioRegistry, Setup};
use imc_numeric::{reach_before_return, SolveOptions};
use imc_optim::{random_search, search, BatchSearch, Problem, RandomSearchConfig};
use imc_sampling::{is_estimate, sample_is_run, IsConfig, IsRun, PreparedRun};
use imc_sim::{simulate_verdict, trace_rng, ChainSampler};
use imc_stats::{normal_quantile, ConfidenceInterval};
use imcis_core::{Client, Method, RunSpec, ScenarioRef, Session, SetupCache, Suite, SuiteSpec};
use imcis_perfbench::stats::median;
use imcis_perfbench::trace::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{self, Value};

use crate::manifests;
use crate::stack::{Stack, TimedSubmit};
use crate::Metrics;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds one member's setup under a span named after its layer:
/// `dsl.compile` for DSL text, `models.build.<scenario>` otherwise.
fn build(
    registry: &ScenarioRegistry,
    scenario: &ScenarioRef,
    rec: &mut Recorder,
    job: u64,
) -> Result<Arc<Setup>, String> {
    let setup = match scenario.dsl_parts() {
        Some((source, bound)) => rec
            .span("dsl.compile", job, |_| {
                imc_models::dsl::compile(source, bound)
            })
            .map_err(err)?,
        None => rec
            .span(&format!("models.build.{}", scenario.name), job, |_| {
                registry.build(&scenario.name, &scenario.params)
            })
            .map_err(err)?,
    };
    Ok(Arc::new(setup))
}

/// Re-runs the first `members` members of the suite manifest `text`
/// call by call. IMCIS members are replayed phase by phase and must
/// reproduce the CI `Session::run` gives them bit for bit. Returns
/// failed checks.
pub fn suite_layers(
    text: &str,
    members: usize,
    registry: &ScenarioRegistry,
    rec: &mut Recorder,
    job: u64,
) -> Result<Vec<String>, String> {
    let spec: SuiteSpec = rec
        .span("spec.parse", job, |_| text.parse::<SuiteSpec>())
        .map_err(err)?;
    let mut problems = Vec::new();
    for member in spec.normalized().runs.iter().take(members) {
        let run = member.run_spec();
        let setup = build(registry, &run.scenario, rec, job)?;
        let report = if matches!(run.method, Method::Imcis(_)) {
            problems.extend(replay_check(&setup, run, rec, job)?);
            continue;
        } else {
            let session = Session::from_setup(Arc::clone(&setup), run.clone());
            rec.span(&format!("session.run.{}", run.method.name()), job, |_| {
                session.run()
            })
            .map_err(err)?
        };
        let stable = rec.span("report.serialize", job, |_| {
            report.to_json_stable().to_string()
        });
        rec.note("report.bytes", stable.len() as f64);
        rec.span("json.parse", job, |_| json::parse(&stable))
            .map_err(err)?;
    }
    Ok(problems)
}

/// Runs the IMCIS member `run` on `setup` phase by phase under spans and
/// compares its CI with `Session::run` on the same inputs.
pub fn replay_check(
    setup: &Arc<Setup>,
    run: &RunSpec,
    rec: &mut Recorder,
    job: u64,
) -> Result<Option<String>, String> {
    let reference = Session::from_setup(Arc::clone(setup), run.clone())
        .run()
        .map_err(err)?;
    let expected = reference.runs[0].ci;
    let replayed = rec.span("session.run.imcis", job, |rec| replay(setup, run, rec, job))?;
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if same(replayed.lo(), expected.lo()) && same(replayed.hi(), expected.hi()) {
        Ok(None)
    } else {
        Ok(Some(format!(
            "phase-by-phase replay of seed {} gave CI {replayed} instead of {expected}",
            run.seed
        )))
    }
}

/// Algorithm 1 through the layers' public functions, exactly as the
/// session runs its first repetition.
fn replay(
    setup: &Setup,
    run: &RunSpec,
    rec: &mut Recorder,
    job: u64,
) -> Result<ConfidenceInterval, String> {
    let Method::Imcis(spec) = &run.method else {
        return Err("replay needs an imcis member".into());
    };
    // Engines are thread-count invariant; one thread is as good as any.
    let config = spec.to_config(1, 1);
    // A session's first repetition draws from the member seed itself.
    let mut rng = StdRng::seed_from_u64(run.seed);
    let sampled = rec.span("sampling.sample", job, |_| {
        sample_is_run(
            &setup.b,
            &setup.property,
            &IsConfig::new(config.n_traces)
                .with_max_steps(config.max_steps)
                .with_threads(config.threads),
            &mut rng,
        )
    });
    let mut problem = rec
        .span("optim.compile", job, |_| {
            if config.force_sampling {
                Problem::with_forced_sampling(&setup.imc, &setup.b, &sampled)
            } else {
                Problem::new(&setup.imc, &setup.b, &sampled)
            }
        })
        .map_err(err)?;
    let search_config = RandomSearchConfig {
        r_undefeated: config.r_undefeated,
        r_max: config.r_max,
        record_trace: config.record_trace,
    };
    let found = rec
        .span("optim.search", job, |_| {
            search(
                &mut problem,
                &search_config,
                config.strategy,
                config.search_threads,
                &mut rng,
            )
        })
        .map_err(err)?;
    if found.rounds > 0 {
        rec.note("optim.rounds", found.rounds as f64);
        let last_useful = found.min_found_at.max(found.max_found_at);
        rec.note(
            "optim.useful_frac",
            last_useful as f64 / found.rounds as f64,
        );
    }
    let ((g_min, s_min), (g_max, s_max)) = rec.span("optim.estimate", job, |_| {
        let objective = problem.objective();
        (
            objective.estimate(found.f_min, found.g_min),
            objective.estimate(found.f_max, found.g_max),
        )
    });
    let n = config.n_traces as f64;
    let q = normal_quantile(1.0 - config.delta / 2.0);
    let lower = g_min - q * s_min / n.sqrt();
    let upper = g_max + q * s_max / n.sqrt();
    Ok(ConfidenceInterval::new(lower.min(upper), upper.max(lower)).clamped_to_unit())
}

fn params(pairs: Vec<(&str, Value)>) -> ScenarioParams {
    ScenarioParams::from_pairs(pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
}

/// Seconds per call of `f`, medians over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Calls per second of `f` over at least `seconds`.
fn rate(seconds: f64, per_call: usize, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        f(calls);
        calls += 1;
    }
    (calls as usize * per_call) as f64 / started.elapsed().as_secs_f64()
}

/// The probe pass: every layer on fixed inputs drawn from `seed`.
/// Returns failed checks.
pub fn probes(
    seed: u64,
    stack: Option<&Stack>,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let mut rng = StdRng::seed_from_u64(imc_sim::stream_seed(seed, 7));
    let registry = ScenarioRegistry::builtin();
    let nproc = imc_sim::parallel::available_threads();

    // --- imc_sim batch engine through sample_is_run ----------------------
    let zv = registry
        .build(
            "group-repair",
            &params(vec![("is", Value::Str("zero-variance".into()))]),
        )
        .map_err(err)?;
    let sample = |n: usize, threads: usize, s: u64| -> IsRun {
        let mut rng = StdRng::seed_from_u64(s);
        sample_is_run(
            &zv.b,
            &zv.property,
            &IsConfig::new(n).with_threads(threads),
            &mut rng,
        )
    };
    for (label, n, calls) in [
        ("small", manifests::SMALL as usize, 6usize),
        ("large", manifests::LARGE as usize, 1),
    ] {
        // Alternate 1 thread and all threads so drift hits both alike.
        let mut secs = [0.0f64; 2];
        for round in 0..4 {
            for (slot, threads) in [1, nproc].into_iter().enumerate() {
                let started = Instant::now();
                for call in 0..calls {
                    std::hint::black_box(sample(
                        n,
                        threads,
                        rng.gen::<u64>() ^ (round + call) as u64,
                    ));
                }
                secs[slot] += started.elapsed().as_secs_f64();
            }
        }
        let traces = (4 * calls * n) as f64;
        let (t1, tn) = (traces / secs[0], traces / secs[1]);
        m.put(&format!("sim.traces_per_s.{label}.t1"), t1);
        m.put(&format!("sim.traces_per_s.{label}.tN"), tn);
        m.put(&format!("sim.speedup.{label}"), tn / t1);
    }
    let sampler = ChainSampler::new(&zv.b);
    let master = rng.gen::<u64>();
    let traces = 2000u64;
    let steps: usize = (0..traces)
        .map(|i| {
            let mut monitor = zv.property.monitor();
            let mut trace = trace_rng(master, i);
            simulate_verdict(
                &sampler,
                zv.b.initial(),
                &mut monitor,
                &mut trace,
                1_000_000,
            )
            .1
        })
        .sum();
    m.put("sim.steps_per_trace", steps as f64 / traces as f64);

    // --- imc_sampling: prepared vs naive candidate evaluation ------------
    let run = rec.span("sampling.sample", 0, |_| sample(3000, 0, rng.gen()));
    let prepare_s = time_median(5, || {
        std::hint::black_box(PreparedRun::new(&run, &zv.b));
    });
    m.put("sampling.prepare_ms", prepare_s * 1e3);
    let prepared = PreparedRun::new(&run, &zv.b);
    let candidates: Vec<_> = (0..64)
        .map(|i| imc_models::group_repair::jump_chain(0.09 + 0.0003 * i as f64))
        .collect();
    for a in &candidates {
        let naive = is_estimate(a, &zv.b, &run, 0.05);
        let fast = prepared.estimate(a, 0.05);
        if naive.gamma_hat.to_bits() != fast.gamma_hat.to_bits() {
            problems.push("prepared evaluation differs from the naive one".into());
            break;
        }
    }
    let naive = rate(0.3, 1, |i| {
        let a = &candidates[i as usize % candidates.len()];
        std::hint::black_box(is_estimate(a, &zv.b, &run, 0.05));
    });
    let fast = rate(0.3, 1, |i| {
        let a = &candidates[i as usize % candidates.len()];
        std::hint::black_box(prepared.estimate(a, 0.05));
    });
    m.put("sampling.naive_evals_per_s", naive);
    m.put("sampling.prepared_evals_per_s", fast);
    m.put("ratio.prepared_over_naive", fast / naive);

    // --- imc_optim: sequential vs batched search at a fixed budget -------
    let budget = 1000;
    let fixed = RandomSearchConfig {
        r_undefeated: usize::MAX,
        r_max: budget,
        record_trace: false,
    };
    let pristine = rec
        .span("optim.compile", 0, |_| Problem::new(&zv.imc, &zv.b, &run))
        .map_err(err)?;
    let search_seed = rng.gen::<u64>();
    let sequential = rate(0.4, budget, |i| {
        let mut problem = pristine.clone();
        let mut rng = StdRng::seed_from_u64(search_seed ^ i);
        std::hint::black_box(random_search(&mut problem, &fixed, &mut rng).ok());
    });
    let batched = rate(0.4, budget, |i| {
        std::hint::black_box(
            BatchSearch::new(0, 64)
                .run(&pristine, &fixed, search_seed ^ i)
                .ok(),
        );
    });
    m.put("optim.rounds_per_s.sequential", sequential);
    m.put("optim.rounds_per_s.batched", batched);
    m.put("ratio.batched_over_sequential", batched / sequential);

    // --- Algorithm 1 replay on a group-repair IMCIS member ---------------
    // Its phases give the sampling and search values; `session.run_ms.*`
    // come from the Table-1 suite below, all five methods on one model.
    let imcis_text = manifests::imcis_suite(&mut rng, 0);
    let mut replayed = rec.fork();
    problems.extend(suite_layers(&imcis_text, 1, &registry, &mut replayed, 1)?);
    crate::span_metrics(replayed.spans(), replayed.notes(), m, |name| {
        !name.starts_with("session.run_ms.")
    });
    rec.absorb(replayed);

    // --- imc_models / imc_markov / imc_numeric: cold builds -------------
    let alpha_hat = repair::ALPHA_LO
        + (repair::ALPHA_HI - repair::ALPHA_LO) * rng.gen_range(0..=40u32) as f64 / 40.0;
    let repair_setup = rec
        .span("models.build.repair", 2, |_| {
            registry.build(
                "repair",
                &params(vec![("alpha_hat", Value::Float(alpha_hat))]),
            )
        })
        .map_err(err)?;
    let failure = repair_setup.center.labeled_states("failure");
    let solve_s = time_median(3, || {
        std::hint::black_box(reach_before_return(
            &repair_setup.center,
            failure,
            &SolveOptions::default(),
        ))
        .ok();
    });
    m.put("numeric.solve_ms", solve_s * 1e3);
    drop(repair_setup);
    let (components, levels) = (5u32, 10usize);
    let fleet_alpha = 0.8e-3 + 0.4e-3 * rng.gen::<f64>();
    let mut states = 0usize;
    let csr_s = time_median(3, || {
        let chain = fleet::jump_chain(components, levels, fleet_alpha, fleet::BETA);
        states = chain.map(|c| c.num_states()).unwrap_or(0);
    });
    m.put("markov.csr_states_per_s", states as f64 / csr_s);
    for family in manifests::COLD_FAMILIES {
        let cold: SuiteSpec = manifests::cold_suite(&mut rng, family)
            .parse()
            .map_err(err)?;
        for member in cold.normalized().runs.iter() {
            build(&registry, &member.run_spec().scenario, rec, 2)?;
        }
    }

    // --- Session, report, JSON and spec layers on a Table-1 suite -------
    let table1 = manifests::table1_suite(&mut rng);
    let mut sessions = rec.fork();
    problems.extend(suite_layers(
        &table1,
        usize::MAX,
        &registry,
        &mut sessions,
        3,
    )?);
    crate::span_metrics(sessions.spans(), sessions.notes(), m, |name| {
        name.starts_with("session.run_ms.")
    });
    rec.absorb(sessions);
    let mut cache = SetupCache::new();
    let stable = crate::workloads::batch_stable(&table1, &registry, &mut cache, None)?;
    let parse_reps = 40;
    let parse_s = time_median(5, || {
        for _ in 0..parse_reps {
            std::hint::black_box(json::parse(&stable).ok());
        }
    });
    m.put(
        "json.parse_mb_per_s",
        (stable.len() * parse_reps) as f64 / 1e6 / parse_s,
    );

    // --- Serving: in-process vs direct daemon vs routed -----------------
    let own_stack;
    let stack = match stack {
        Some(stack) => stack,
        None => {
            own_stack = Stack::start(nproc)?;
            &own_stack
        }
    };
    let spec: SuiteSpec = table1.parse().map_err(err)?;
    let mut direct = Client::connect(stack.daemon).map_err(err)?;
    let mut routed = Client::connect(stack.router).map_err(err)?;
    let mut lat = [Vec::new(), Vec::new(), Vec::new()];
    let mut rejected = 0u32;
    for round in 0..16 {
        let started = Instant::now();
        let suite =
            Suite::from_spec_with_cache(spec.clone(), &registry, &mut cache).map_err(err)?;
        let local = suite.run().map_err(err)?.to_json_stable().to_string();
        lat[0].push(started.elapsed().as_secs_f64() * 1e3);
        for (slot, client) in [(1, &mut direct), (2, &mut routed)] {
            let submitted = TimedSubmit::run(client, &spec);
            match &submitted.result {
                Ok(out) => {
                    if out.suite_report.to_string() != local {
                        problems.push(format!("probe job {round}: served report differs"));
                    }
                }
                Err(imcis_core::ServeError::Rejected { .. }) => rejected += 1,
                Err(e) => problems.push(format!("probe job {round}: {e}")),
            }
            // The first round warms the daemon's cache; keep the rest.
            if round > 0 {
                lat[slot].push((submitted.done - submitted.sent).as_secs_f64() * 1e3);
                if slot == 2 {
                    submitted.record_events(rec, 4);
                }
            }
        }
    }
    drop((direct, routed));
    let [inprocess, direct_ms, routed_ms] = lat.map(|v| median(&v));
    m.put("serve.inprocess_ms", inprocess);
    m.put("serve.direct_ms", direct_ms);
    m.put("serve.overhead_ms", direct_ms - inprocess);
    m.put("router.hop_ms", routed_ms - direct_ms);
    m.put("ratio.routed_over_direct", routed_ms / direct_ms);
    m.put("serve.rejected", f64::from(rejected));
    m.put("router.jobs_routed", stack.jobs_routed()? as f64);
    Ok(problems)
}
