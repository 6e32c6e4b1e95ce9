//! What a run prints and writes: every metric by name with its unit
//! and sample count, the contract's one-line JSON result, a results
//! file that carries the environment, and — for `--repeat` — the
//! comparison of two sets against the metrics' bounds.

use crate::fleet::{io_threads, MAX_IN_FLIGHT};
use crate::metrics::{Bag, Def, END_TO_END, PER_LAYER};
use crate::run::{self, RunResult};
use crate::workloads::{Workload, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

fn results_dir() -> PathBuf {
    std::env::var_os("BENCH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/results"))
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// `"name": {"value": v, "unit": "u"}` for every metric of `defs` the
/// bag holds, in table order.
fn metrics_json(defs: &[Def], bag: &Bag, with_samples: bool) -> String {
    let entries: Vec<String> = defs
        .iter()
        .filter_map(|d| bag.get(d.name).map(|v| (d, v)))
        .map(|(d, v)| {
            if with_samples {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    d.name, v.value, d.unit, v.samples
                )
            } else {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v.value, d.unit
                )
            }
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The contract's result object.
fn result_line(defs: &[Def], bag: &Bag, correct: bool, attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(defs, bag, false)
    )
}

/// Reads the metric values back out of a [`result_line`].
fn parse_result_line(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(start) = line.find("\"metrics\": {") else {
        return out;
    };
    let mut rest = &line[start + "\"metrics\": {".len()..];
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let name = &after[..close];
        let Some(value) = after[close + 1..].strip_prefix(": {\"value\": ") else {
            break;
        };
        let Some(end) = value.find('}') else { break };
        let number = value[..end].split(',').next().unwrap_or("");
        if let Ok(v) = number.trim().parse::<f64>() {
            out.insert(name.to_string(), v);
        }
        rest = &value[end + 1..];
    }
    out
}

fn print_table(title: &str, defs: &[Def], bag: &Bag) {
    println!("-- {title}");
    for d in defs {
        match bag.get(d.name) {
            Some(v) => println!(
                "{:<40} {:>16.6} {:<10} (n={}, {} is better)",
                d.name,
                v.value,
                d.unit,
                v.samples,
                d.better.as_str()
            ),
            None => println!("{:<40} {:>16} {:<10}", d.name, "absent", d.unit),
        }
    }
}

fn environment_json(args: &Args, w: &Workload, r: &RunResult) -> String {
    let env = |k: &str| escape(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"executor_workers\": {io}, \"pool_connections\": {io}, \
         \"solver_threads\": {solver}, \"max_pulls_in_flight\": {MAX_IN_FLIGHT}, \
         \"transport\": \"loopback TCP\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"rustc\": \"{rustc}\", \"git_commit\": \"{commit}\", \"workload_wall_s\": {wall}, \
         \"agents\": {agents}, \"hosts\": {hosts}, \"site_pairs\": {pairs}, \
         \"endpoint_demands\": {endpoints}, \"scale_to_load\": {load}}}",
        io = io_threads(),
        solver = megate_solvers::MegaTeConfig::default().threads,
        seed = args.seed,
        seconds = args.seconds,
        rustc = env("BENCH_RUSTC"),
        commit = env("BENCH_COMMIT"),
        wall = r.wall_s,
        agents = r.agents,
        hosts = r.hosts,
        pairs = r.site_pairs,
        endpoints = w.endpoints,
        load = w.load,
    )
}

fn write_results(args: &Args, w: &Workload, r: &RunResult, correct: bool) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return; // read-only checkout: printing suffices
    }
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let counts: Vec<String> = r
        .program_counts
        .iter()
        .map(|(name, v)| match v {
            Some(v) => format!("\"{name}\": {v}"),
            None => format!("\"{name}\": null"),
        })
        .collect();
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let body = format!(
        "{{\n\"workload\": \"{}\",\n\"why\": \"{}\",\n\"trace\": {},\n\"environment\": {},\n\
         \"correct\": {correct},\n\"attempted\": {},\n\"failed\": {},\n\"failures\": [{}],\n\
         \"end_to_end\": {},\n\"per_layer\": {},\n\"program_counts\": {{{}}}\n}}\n",
        w.name,
        escape(w.why),
        args.trace,
        environment_json(args, w, r),
        r.attempted,
        r.failed,
        failures.join(", "),
        metrics_json(&END_TO_END, &r.bag, true),
        metrics_json(&PER_LAYER, &r.bag, true),
        counts.join(", "),
    );
    let path = dir.join(format!("{stem}.json"));
    if std::fs::write(&path, body).is_ok() {
        println!("[written {}]", path.display());
    }
    if let Some(trace) = &r.chrome_trace {
        let path = dir.join(format!("{stem}.chrome-trace.json"));
        if std::fs::write(&path, trace).is_ok() {
            println!("[written {}]", path.display());
        }
    }
}

/// Runs one workload in this process; the last line printed is the
/// contract's result object. Returns whether the run was correct.
pub fn run_one(w: &Workload, args: &Args) -> bool {
    println!(
        "== {} seed {} seconds {} trace {}: {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.why
    );
    let mut r = run::run(w, args.seed, args.seconds, args.trace);

    let emitted: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let tables: &[&[Def]] = if args.trace {
        &[&END_TO_END, &PER_LAYER]
    } else {
        &[&END_TO_END]
    };
    for d in tables.iter().flat_map(|t| t.iter()) {
        if r.bag.get(d.name).is_none() {
            r.failed += 1;
            r.failures
                .push(format!("metric {} was not measured", d.name));
        }
    }
    let correct = r.failed == 0;

    print_table("end-to-end", &END_TO_END, &r.bag);
    if args.trace {
        print_table("per layer", &PER_LAYER, &r.bag);
        println!("-- counts the program keeps (informational)");
        for (name, v) in &r.program_counts {
            match v {
                Some(v) => println!("{name:<40} {v:>16}"),
                None => println!("{name:<40} {:>16}", "absent"),
            }
        }
    }
    for f in &r.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{}: {} agents on {} hosts, {} site pairs; attempted {} failed {}; wall {:.1} s",
        w.name, r.agents, r.hosts, r.site_pairs, r.attempted, r.failed, r.wall_s
    );
    write_results(args, w, &r, correct);
    println!(
        "{}",
        result_line(emitted, &r.bag, correct, r.attempted.max(1), r.failed)
    );
    correct
}

/// Runs `w` in a child process, echoing its output; returns its metric
/// values and whether it exited cleanly.
fn run_child(w: &Workload, args: &Args) -> (BTreeMap<String, f64>, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the workload's process");
    let mut last = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        println!("{line}");
        last = line;
    }
    let ok = child.wait().is_ok_and(|s| s.success());
    (parse_result_line(&last), ok)
}

/// Runs every workload (twice with `--repeat`), each in its own
/// process. With `--repeat`, prints per (workload, end-to-end metric)
/// both values, their relative difference and the bound, and fails
/// when a difference exceeds its bound.
pub fn run_sets(args: &Args) -> bool {
    let sets = if args.repeat { 2 } else { 1 };
    let mut ok = true;
    let mut values: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    for set in 0..sets {
        let t = Instant::now();
        let mut by_workload = BTreeMap::new();
        for w in &WORKLOADS {
            let (metrics, clean) = run_child(w, args);
            ok &= clean;
            by_workload.insert(w.name, metrics);
        }
        println!(
            "== set {} of {sets}: {:.1} s",
            set + 1,
            t.elapsed().as_secs_f64()
        );
        values.push(by_workload);
    }
    if let [first, second] = &values[..] {
        println!(
            "{:<14} {:<24} {:>14} {:>14} {:>8} {:>7}",
            "workload", "metric", "first", "second", "diff %", "bound %"
        );
        let defs: &[Def] = if args.trace { &[] } else { &END_TO_END };
        for w in &WORKLOADS {
            for d in defs {
                let pair = first[w.name].get(d.name).zip(second[w.name].get(d.name));
                let Some((&a, &b)) = pair else {
                    println!("{:<14} {:<24} missing from a set", w.name, d.name);
                    ok = false;
                    continue;
                };
                let diff = crate::stats::ratio((b - a).abs(), a.abs());
                let over = diff > d.bound;
                ok &= !over;
                println!(
                    "{:<14} {:<24} {:>14.6} {:>14.6} {:>8.2} {:>7.1}{}",
                    w.name,
                    d.name,
                    a,
                    b,
                    100.0 * diff,
                    100.0 * d.bound,
                    if over { "  DISAGREE" } else { "" }
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_its_parser() {
        let mut bag = Bag::default();
        bag.set("setup_s", Some(0.8127), 3);
        bag.set("interval_cold_s", Some(12.0), 1);
        bag.set("pull_kagents_per_s", Some(55.25), 4);
        let line = result_line(&END_TO_END, &bag, true, 1000, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        let back = parse_result_line(&line);
        assert_eq!(back.len(), 3);
        assert_eq!(back["setup_s"], 0.8127);
        assert_eq!(back["interval_cold_s"], 12.0);
        assert_eq!(back["pull_kagents_per_s"], 55.25);
    }

    #[test]
    fn parser_ignores_lines_that_are_not_results() {
        assert!(parse_result_line("").is_empty());
        assert!(parse_result_line("twan_exact: wall 20.1 s").is_empty());
    }

    #[test]
    fn escape_keeps_json_strings_closed() {
        assert_eq!(escape("a \"b\" \\ c\n"), "a \\\"b\\\" \\\\ c\\n");
    }
}
