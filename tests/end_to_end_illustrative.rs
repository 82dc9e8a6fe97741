//! End-to-end reproduction of the paper's §VI-A experiment on the
//! illustrative model: standard IS is confidently wrong, IMCIS brackets
//! both the learnt and the true probability.

use imc_models::illustrative;
use imcis_core::{
    ImcisOutcome, ImcisSpec, IsOutcome, Method, OutcomeDetail, RunSpec, SampleSpec, ScenarioRef,
    Session,
};

/// One repetition of `method` on the registry's illustrative scenario
/// (the paper's §VI-A setup under the perfect IS chain for `Â`).
fn run_once(method: Method, seed: u64) -> OutcomeDetail {
    let spec = RunSpec::new(ScenarioRef::named("illustrative"), method, seed);
    let mut outcomes = Session::from_spec(spec)
        .and_then(|session| session.run_outcomes())
        .expect("illustrative run succeeds");
    outcomes.remove(0).detail
}

fn imcis(spec: ImcisSpec, seed: u64) -> ImcisOutcome {
    match run_once(Method::Imcis(spec), seed) {
        OutcomeDetail::Imcis(out) => out,
        other => panic!("expected an IMCIS outcome, got {other:?}"),
    }
}

fn standard_is(sample: SampleSpec, seed: u64) -> IsOutcome {
    match run_once(Method::StandardIs(sample), seed) {
        OutcomeDetail::Is(out) => out,
        other => panic!("expected an IS outcome, got {other:?}"),
    }
}

fn imcis_spec(n_traces: usize, r_undefeated: usize, r_max: usize) -> ImcisSpec {
    ImcisSpec {
        sample: SampleSpec {
            n_traces,
            ..SampleSpec::default()
        },
        r_undefeated,
        r_max,
        ..ImcisSpec::default()
    }
}

#[test]
fn imcis_covers_truth_where_is_fails() {
    let gamma = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
    let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);
    let spec = imcis_spec(4000, 300, 30_000);

    let is = standard_is(spec.sample, 1);
    assert!(
        is.ci.width() < 1e-12,
        "perfect IS CI degenerates to a point"
    );
    assert!(!is.ci.contains(gamma), "IS misses the true γ");

    let out = imcis(spec, 1);
    assert!(
        out.ci.contains(gamma),
        "IMCIS CI {} misses γ = {gamma:e}",
        out.ci
    );
    assert!(
        out.ci.contains(gamma_center),
        "IMCIS CI {} misses γ(Â) = {gamma_center:e}",
        out.ci
    );
    // The bracket is genuinely wide: both optimisation directions moved.
    assert!(out.gamma_max / out.gamma_min > 2.0);
}

#[test]
fn imcis_bracket_approaches_paper_values() {
    // Paper Table II: IMCIS mean 95%-CI ≈ [0.249e-5, 2.7e-5].
    let out = imcis(imcis_spec(10_000, 500, 50_000), 7);
    assert!(
        (2e-6..4e-6).contains(&out.ci.lo()),
        "lower bound {} out of the paper's ballpark",
        out.ci.lo()
    );
    assert!(
        (2.4e-5..3.1e-5).contains(&out.ci.hi()),
        "upper bound {} out of the paper's ballpark",
        out.ci.hi()
    );
}

#[test]
fn forced_sampling_matches_closed_form_quality() {
    // The paper-verbatim search (all rows sampled) must approach the same
    // extrema as the closed-form fast path; the closed form is exact, so
    // the search result can only be (slightly) inside it.
    let fast = imcis(imcis_spec(2000, 200, 20_000), 3);
    let verbatim = imcis(
        ImcisSpec {
            force_sampling: true,
            ..imcis_spec(2000, 200, 20_000)
        },
        3,
    );
    assert!(verbatim.gamma_min >= fast.gamma_min * 0.999);
    assert!(verbatim.gamma_max <= fast.gamma_max * 1.001);
    // The search only partially converges at this budget — the paper's own
    // Table I shows the same (their c_min averages 0.0496, not the exact
    // corner 0.0493) — but it must land in the right half of the bracket.
    assert!((verbatim.gamma_min - fast.gamma_min).abs() / fast.gamma_min < 0.5);
    assert!((verbatim.gamma_max - fast.gamma_max).abs() / fast.gamma_max < 0.5);
}
