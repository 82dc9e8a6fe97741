//! Workload inputs, generated from the `--seed` argument.
//!
//! Manifests start from the checked-in paper manifests under `specs/`
//! (so the methods and budgets are the repository's, except where a
//! constant below says otherwise and why), with seeds and scenario
//! parameters drawn from the workload seed. The program under test only
//! ever sees the generated manifest text.

use imc_models::group_repair;
use rand::rngs::StdRng;
use rand::Rng;
use serde::json::{self, Value};

const TABLE1_SUITE: &str = include_str!("../../specs/paper_table1_suite.json");
const ILLUSTRATIVE_DSL_RUN: &str = include_str!("../../specs/illustrative_dsl.json");
const GROUP_REPAIR_IMCIS: &str = include_str!("../../specs/group_repair_imcis.json");
/// The paper's illustrative chain as scenario DSL text.
pub const ILLUSTRATIVE_DSL: &str = include_str!("../../specs/illustrative.dsl");

/// Manifests generated for `served-table1` before the timed phase; its
/// clients draw from this pool.
pub const SERVED_POOL: usize = 64;

/// Manifests generated for `imcis-search` before the timed phase; its
/// caller takes them in order. Even, so wrapping around keeps the
/// alternation of [`imcis_suite`]'s member pairings.
pub const BATCH_POOL: usize = 252;

/// Traces per `imcis-search` member: a fifth of the 3000 in
/// `specs/group_repair_imcis.json`, so a run holds enough jobs for a
/// tail latency well above the median.
pub const IMCIS_TRACES: u64 = 600;

/// Search rounds per `imcis-search` member. `r_undefeated` = `r_max`
/// makes the search run exactly this many rounds, about what the spec's
/// stopping rule (100 rounds without improvement) takes at 600 traces.
/// Under that rule the round count varies threefold from seed to seed
/// and was the largest source of run-to-run spread.
pub const IMCIS_ROUNDS: u64 = 256;

fn parse(text: &str) -> Value {
    json::parse(text).expect("checked-in manifest is valid JSON")
}

/// Sets `key` of a JSON object, appending it when absent.
fn set(object: &mut Value, key: &str, value: Value) {
    let Value::Object(pairs) = object else {
        panic!("`{key}` set on a non-object");
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => pairs.push((key.to_string(), value)),
    }
}

fn get_mut<'a>(object: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(pairs) = object else {
        panic!("`{key}` read from a non-object");
    };
    &mut pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("manifest has no `{key}`"))
        .1
}

fn suite(runs: Vec<Value>, threads: u64) -> String {
    Value::Object(vec![
        ("schema".into(), Value::Str("imcis.suitespec/1".into())),
        ("runs".into(), Value::Array(runs)),
        ("threads".into(), Value::UInt(threads)),
        ("seed_base".into(), Value::Null),
    ])
    .to_string()
}

fn run(scenario: Value, method: Value, seed: u64, threads: u64) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::Str("imcis.runspec/1".into())),
        ("scenario".into(), scenario),
        ("method".into(), method),
        ("seed".into(), Value::UInt(seed)),
        ("threads".into(), Value::UInt(threads)),
        ("search_threads".into(), Value::UInt(0)),
        ("repetitions".into(), Value::UInt(1)),
    ])
}

fn scenario(name: &str, params: Vec<(&str, Value)>) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        (
            "params".into(),
            Value::Object(params.into_iter().map(|(k, v)| (k.into(), v)).collect()),
        ),
    ])
}

fn dsl_scenario(params: Vec<(&str, Value)>) -> Value {
    Value::Object(vec![
        ("dsl".into(), Value::Str(ILLUSTRATIVE_DSL.into())),
        (
            "params".into(),
            Value::Object(params.into_iter().map(|(k, v)| (k.into(), v)).collect()),
        ),
    ])
}

fn method(name: &str, n_traces: u64) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("n_traces".into(), Value::UInt(n_traces)),
    ])
}

fn seed(rng: &mut StdRng) -> u64 {
    rng.gen_range(1..1u64 << 40)
}

/// A value drawn uniformly from `[lo, hi]`, rounded to six significant
/// digits so manifests stay readable.
fn draw(rng: &mut StdRng, lo: f64, hi: f64) -> Value {
    let x: f64 = lo + (hi - lo) * rng.gen::<f64>();
    Value::Float(format!("{x:.5e}").parse().expect("formatted float parses"))
}

/// `served-table1`: the five `specs/paper_table1_suite.json` members on
/// `illustrative` plus the `specs/illustrative_dsl.json` twin, every
/// member re-seeded with the job's seed.
pub fn table1_suite(rng: &mut StdRng) -> String {
    let job_seed = Value::UInt(seed(rng));
    let mut spec = parse(TABLE1_SUITE);
    let Value::Array(runs) = get_mut(&mut spec, "runs") else {
        panic!("`runs` is an array");
    };
    runs.push(parse(ILLUSTRATIVE_DSL_RUN));
    for member in runs.iter_mut() {
        set(member, "seed", job_seed.clone());
    }
    spec.to_string()
}

/// `imcis-search` job number `slot`: two `specs/group_repair_imcis.json`
/// members, one per `is` ∈ {mixture, zero-variance}, one per search
/// strategy {sequential, batched}. Even slots pair mixture with
/// sequential, odd slots mixture with batched, so consecutive jobs cover
/// all four combinations and every job holds one member of each kind.
/// Each member has its own seed, [`IMCIS_TRACES`] traces and a
/// fixed [`IMCIS_ROUNDS`]-round search. The job runs on one thread
/// (suite `threads` = 1, member `search_threads` = 1 instead of the
/// spec's 0 = all cores): with two threads on two shared vCPUs, a job
/// waited for whichever thread the host had descheduled, and host load
/// moved the tail latency by half.
pub fn imcis_suite(rng: &mut StdRng, slot: usize) -> String {
    let strategies = if slot.is_multiple_of(2) {
        ["sequential", "batched"]
    } else {
        ["batched", "sequential"]
    };
    let mut runs = Vec::new();
    for (is, strategy) in ["mixture", "zero-variance"].into_iter().zip(strategies) {
        let mut member = parse(GROUP_REPAIR_IMCIS);
        set(
            get_mut(get_mut(&mut member, "scenario"), "params"),
            "is",
            Value::Str(is.into()),
        );
        let method = get_mut(&mut member, "method");
        set(
            get_mut(method, "search"),
            "strategy",
            Value::Str(strategy.into()),
        );
        set(method, "n_traces", Value::UInt(IMCIS_TRACES));
        set(method, "r_undefeated", Value::UInt(IMCIS_ROUNDS));
        set(method, "r_max", Value::UInt(IMCIS_ROUNDS));
        set(&mut member, "seed", Value::UInt(seed(rng)));
        set(&mut member, "search_threads", Value::UInt(1));
        runs.push(member);
    }
    suite(runs, 1)
}

/// The scenario family of a cold-build suite: every member built from
/// it is a distinct `(scenario, params)` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `repair-fleet` at a `(components, levels)` size and a drawn α.
    Fleet(u64, u64),
    /// `swat` at a drawn seed.
    Swat,
    /// `parametric-repair` over a drawn α range.
    Parametric,
}

/// The families the probe pass builds cold, one suite each; the
/// `repair` build it times on its own.
pub const COLD_FAMILIES: [Family; 5] = [
    Family::Fleet(5, 8),
    Family::Swat,
    Family::Parametric,
    Family::Fleet(6, 6),
    Family::Fleet(5, 10),
];

/// A cold member of `family` under a cheap smc or standard-IS method.
fn cold_member(rng: &mut StdRng, family: Family) -> Value {
    match family {
        Family::Fleet(components, levels) => run(
            scenario(
                "repair-fleet",
                vec![
                    ("components", Value::UInt(components)),
                    ("levels", Value::UInt(levels)),
                    ("alpha", draw(rng, 0.8e-3, 1.2e-3)),
                ],
            ),
            method("smc", 1000),
            seed(rng),
            1,
        ),
        Family::Swat => run(
            scenario(
                "swat",
                vec![("seed", Value::UInt(rng.gen_range(1..1_000_000)))],
            ),
            method("standard-is", 1000),
            seed(rng),
            1,
        ),
        Family::Parametric => {
            let a_lo = group_repair::ALPHA_HAT * (1.0 - 0.2 * rng.gen::<f64>() - 0.01);
            let a_hi = group_repair::ALPHA_HAT * (1.0 + 0.2 * rng.gen::<f64>() + 0.01);
            run(
                scenario(
                    "parametric-repair",
                    vec![
                        ("alpha_lo", Value::Float(a_lo)),
                        ("alpha_hi", Value::Float(a_hi)),
                    ],
                ),
                method("smc", 1000),
                seed(rng),
                1,
            )
        }
    }
}

/// A two-point sweep of the illustrative DSL scenario's `a` parameter:
/// two more distinct keys, each a DSL compile.
fn dsl_sweep(rng: &mut StdRng) -> Value {
    let sweep_run = run(dsl_scenario(Vec::new()), method("smc", 2000), seed(rng), 1);
    Value::Object(vec![(
        "sweep".into(),
        Value::Object(vec![
            ("run".into(), sweep_run),
            ("param".into(), Value::Str("a".into())),
            (
                "grid".into(),
                Value::Array(vec![draw(rng, 2.6e-4, 2.95e-4), draw(rng, 3.05e-4, 3.6e-4)]),
            ),
        ]),
    )])
}

/// A cold-build suite: one member of `family` and a two-point DSL
/// sweep.
pub fn cold_suite(rng: &mut StdRng, family: Family) -> String {
    suite(vec![cold_member(rng, family), dsl_sweep(rng)], 0)
}

/// Traces of a small sampling call in the probe pass's thread-scaling
/// measurement.
pub const SMALL: u64 = 1_000;
/// Traces of a large sampling call in the same measurement.
pub const LARGE: u64 = 20_000;
