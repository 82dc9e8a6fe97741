//! Scaling and printing utilities shared by the `exp_*` binaries — the
//! paper artefacts that no serialized report carries: Table I's
//! per-parameter extrema (`exp_table1`), the Figure 5 numeric sweep
//! (`exp_fig5`), the §VI-C robustness sweep over the true `α`
//! (`exp_repair_large`) and the engine scaling smoke (`exp_parallel`).
//! Every other table and figure is a checked-in `specs/paper_*.json`
//! suite run by `imcis suite`; the README maps each artefact to its
//! command.
//!
//! All binaries accept `--paper` (full paper-scale parameters), `--quick`
//! (CI-friendly minimal scale), and individual overrides
//! (`--reps`, `--n`, `--r`, `--seed`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Scaling knobs shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Independent repetitions (the paper uses 100).
    pub reps: usize,
    /// Traces per estimation run (the paper uses 10000).
    pub n_traces: usize,
    /// Undefeated rounds before the random search stops (paper: 1000).
    pub r_undefeated: usize,
    /// Hard cap on optimisation rounds.
    pub r_max: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full-scale parameters.
    pub fn paper() -> Self {
        Scale {
            reps: 100,
            n_traces: 10_000,
            r_undefeated: 1000,
            r_max: 100_000,
            seed: 2018,
        }
    }

    /// Default scale: faithful shape at roughly a tenth of the paper's
    /// cost, so every binary finishes in seconds-to-minutes.
    pub fn default_scale() -> Self {
        Scale {
            reps: 20,
            n_traces: 4_000,
            r_undefeated: 400,
            r_max: 40_000,
            seed: 2018,
        }
    }

    /// Minimal smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            reps: 5,
            n_traces: 1_000,
            r_undefeated: 100,
            r_max: 5_000,
            seed: 2018,
        }
    }

    /// Parses `std::env::args()`: `--paper`, `--quick`, `--reps K`,
    /// `--n N`, `--r R`, `--seed S`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut scale = Scale::default_scale();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => scale = Scale::paper(),
                "--quick" => scale = Scale::quick(),
                "--reps" => {
                    i += 1;
                    scale.reps = parse(&args, i, "--reps");
                }
                "--n" => {
                    i += 1;
                    scale.n_traces = parse(&args, i, "--n");
                }
                "--r" => {
                    i += 1;
                    scale.r_undefeated = parse(&args, i, "--r");
                }
                "--seed" => {
                    i += 1;
                    scale.seed = parse(&args, i, "--seed");
                }
                other => panic!(
                    "unknown argument `{other}`; \
                     usage: [--paper|--quick] [--reps K] [--n N] [--r R] [--seed S]"
                ),
            }
            i += 1;
        }
        scale
    }
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{flag} requires a numeric argument"))
}

/// Prints a fixed-width table: a header row followed by data rows.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(ToString::to_string).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers);
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in &rows {
        line(row);
    }
}

/// Formats a float in the paper's scientific style.
pub fn sci(x: f64) -> String {
    format!("{x:.4e}")
}
