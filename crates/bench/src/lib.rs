//! # el-bench — the experiment harness
//!
//! One binary per table/figure of the EL-Rec paper (see DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured records):
//!
//! ```text
//! cargo run --release -p el-bench --bin table1_frameworks
//! cargo run --release -p el-bench --bin table2_datasets
//! cargo run --release -p el-bench --bin table3_footprint
//! cargo run --release -p el-bench --bin table4_accuracy
//! cargo run --release -p el-bench --bin fig4_data_characteristics
//! cargo run --release -p el-bench --bin fig11_end_to_end
//! cargo run --release -p el-bench --bin fig12_multi_gpu
//! cargo run --release -p el-bench --bin fig13_large_table
//! cargo run --release -p el-bench --bin fig14_breakdown
//! cargo run --release -p el-bench --bin fig15_convergence
//! cargo run --release -p el-bench --bin fig16_pipeline
//! cargo run --release -p el-bench --bin fig17_lookup
//! cargo run --release -p el-bench --bin fig18_backward
//! cargo run --release -p el-bench --bin all          # everything above
//! ```
//!
//! Experiments run on *scaled* dataset shapes (environment variable
//! `EL_BENCH_SCALE`, default chosen per experiment) so the suite completes
//! on one machine; the paper-vs-measured comparison targets speedup
//! *shapes*, not absolute numbers.

#![forbid(unsafe_code)]

use std::fmt::Display;

/// Provenance fields for `BENCH_*.json` rows and figure output: which
/// micro-kernel variant was dispatched, what the host CPU supports, how
/// many cores the process may use, and how wide the rayon pool is.
/// Attached via `Criterion::provenance` so every recorded number can be
/// traced to the code path and machine that produced it.
pub fn provenance_fields() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("kernel".to_string(), el_tensor::micro::active_kernel().to_string()),
        ("cpu_features".to_string(), el_tensor::micro::cpu_features()),
        ("nproc".to_string(), nproc.to_string()),
        ("rayon_threads".to_string(), rayon::current_num_threads().to_string()),
    ]
}

/// Prints a boxed section header. The first call in a process prints one
/// `provenance:` line first ([`provenance_fields`]), so every figure
/// binary states where its numbers came from.
pub fn section(title: &str) {
    static PROVENANCE: std::sync::Once = std::sync::Once::new();
    PROVENANCE.call_once(|| {
        let fields: Vec<String> =
            provenance_fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("provenance: {}", fields.join(" "));
    });
    println!();
    println!("=== {title} ===");
}

/// Prints an aligned text table.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect();
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for r in &rows {
        assert_eq!(r.len(), cols, "row width mismatch");
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(&widths) {
            line.push_str(&format!(" {c:>w$} |", w = w));
        }
        line
    };
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    println!("{sep}");
    println!("{}", fmt_row(&headers));
    println!("{sep}");
    for r in &rows {
        println!("{}", fmt_row(r));
    }
    println!("{sep}");
}

/// Human-readable byte count.
pub fn fmt_bytes(bytes: usize) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Human-readable duration.
pub fn fmt_secs(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

/// `x.yz x` speedup formatting.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Reads a scale factor from `EL_BENCH_SCALE`, with an
/// experiment-specific default. A bad value ends the process with exit
/// code 1 (see `parse_scale`).
pub fn bench_scale(default: f64) -> f64 {
    let raw = std::env::var("EL_BENCH_SCALE").ok();
    or_exit(parse_scale(raw.as_deref()), default)
}

/// Reads an iteration override from `EL_BENCH_BATCHES`. A bad value ends
/// the process with exit code 1 (see `parse_batches`).
pub fn bench_batches(default: u64) -> u64 {
    let raw = std::env::var("EL_BENCH_BATCHES").ok();
    or_exit(parse_batches(raw.as_deref()), default)
}

/// Checks a raw `EL_BENCH_SCALE`: unset is `None`; a set value must be a
/// number in (0, 1], the rule of `el-rec --scale` (1 is the real
/// cardinalities).
fn parse_scale(raw: Option<&str>) -> Result<Option<f64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(Some(scale)),
        _ => Err(format!("EL_BENCH_SCALE must be a number in (0, 1], got {raw:?}")),
    }
}

/// Checks a raw `EL_BENCH_BATCHES`: unset is `None`; a set value must be a
/// positive integer.
fn parse_batches(raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.parse::<u64>() {
        Ok(batches) if batches > 0 => Ok(Some(batches)),
        _ => Err(format!("EL_BENCH_BATCHES must be a positive integer, got {raw:?}")),
    }
}

fn or_exit<T>(parsed: Result<Option<T>, String>, default: T) -> T {
    match parsed {
        Ok(value) => value.unwrap_or(default),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2_000_000), "2.00 MB");
        assert_eq!(fmt_bytes(3_500_000_000), "3.50 GB");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0021), "2.10 ms");
        assert_eq!(fmt_speedup(3.04), "3.04x");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(&["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn env_overrides_accept_valid_values() {
        assert_eq!(parse_scale(None), Ok(None));
        assert_eq!(parse_scale(Some("0.0005")), Ok(Some(0.0005)));
        assert_eq!(parse_scale(Some("1")), Ok(Some(1.0)));
        assert_eq!(parse_batches(None), Ok(None));
        assert_eq!(parse_batches(Some("2")), Ok(Some(2)));
    }

    #[test]
    fn env_overrides_reject_bad_values_by_name() {
        for bad in ["0", "-1", "nan", "inf", "1.5", "abc", ""] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("EL_BENCH_SCALE"), "{bad:?}: {err}");
        }
        for bad in ["0", "-1", "1.5", "abc", ""] {
            let err = parse_batches(Some(bad)).unwrap_err();
            assert!(err.contains("EL_BENCH_BATCHES"), "{bad:?}: {err}");
        }
    }
}
