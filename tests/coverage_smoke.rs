//! Reduced-scale coverage experiments: the Table II shape — IMCIS coverage
//! dominates IS coverage — must hold even at smoke-test scale.

use imc_models::illustrative;
use imc_stats::coverage;
use imcis_core::{ImcisSpec, Method, Report, RunSpec, SampleSpec, ScenarioRef, Session};

/// Runs `reps` repetitions of `method` on the registry's illustrative
/// scenario (the paper's §VI-A setup under the perfect IS chain for `Â`).
fn illustrative_report(method: Method, reps: usize, seed: u64) -> Report {
    let spec =
        RunSpec::new(ScenarioRef::named("illustrative"), method, seed).with_repetitions(reps);
    Session::from_spec(spec)
        .and_then(|session| session.run())
        .expect("illustrative repetitions succeed")
}

fn imcis(n_traces: usize, r_undefeated: usize, r_max: usize) -> Method {
    Method::Imcis(ImcisSpec {
        sample: SampleSpec {
            n_traces,
            ..SampleSpec::default()
        },
        r_undefeated,
        r_max,
        ..ImcisSpec::default()
    })
}

#[test]
fn table2_shape_on_the_illustrative_model() {
    let gamma = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
    let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);

    let reps = 10;
    let is_sample = SampleSpec {
        n_traces: 2000,
        ..SampleSpec::default()
    };
    let is_report = illustrative_report(Method::StandardIs(is_sample), reps, 42);
    let imcis_report = illustrative_report(imcis(2000, 150, 10_000), reps, 42);

    let is_cis: Vec<_> = is_report.runs.iter().map(|r| r.ci).collect();
    let imcis_cis: Vec<_> = imcis_report.runs.iter().map(|r| r.ci).collect();

    // IS: zero-width intervals at γ(Â) -> 0% coverage of the true γ.
    assert_eq!(coverage(&is_cis, gamma), 0.0);
    // IMCIS: full coverage of both references (paper: 100% / 100%).
    assert_eq!(coverage(&imcis_cis, gamma), 1.0);
    assert_eq!(coverage(&imcis_cis, gamma_center), 1.0);

    // The report counts the degenerate IS intervals as covering γ(Â)
    // (ulp tolerance), as the paper does.
    assert_eq!(is_report.coverage_gamma_hat, Some(1.0));
    assert_eq!(is_report.coverage_gamma_true, Some(0.0));

    // Every IS interval is inside every IMCIS interval of the same rep
    // (Fig. 2's nesting observation).
    for (is, im) in is_cis.iter().zip(&imcis_cis) {
        assert!(im.encloses(is) || im.intersects(is));
    }
}

#[test]
fn imcis_intervals_are_mutually_consistent() {
    // Fig. 4's observation, smoke scale: independent IMCIS intervals
    // pairwise intersect (they all cover the same truth).
    let runs = illustrative_report(imcis(1000, 100, 5_000), 6, 9).runs;
    for i in 0..runs.len() {
        for j in i + 1..runs.len() {
            assert!(
                runs[i].ci.intersects(&runs[j].ci),
                "IMCIS CIs {i} and {j} are disjoint: {} vs {}",
                runs[i].ci,
                runs[j].ci
            );
        }
    }
}
