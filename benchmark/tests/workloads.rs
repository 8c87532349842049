//! Every workload end to end at 1/200 of the declared run length, what
//! is printed against `BENCHMARK.json`, the simulator's exactness and its
//! recorded figures, and a corrupted payload.

use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fm_benchmark::fabric::{run_ranks, shm_pair, Sync2};
use fm_benchmark::legs::FmLegs;
use fm_benchmark::payload::Pattern;
use fm_benchmark::report::RunResult;
use fm_benchmark::spec::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use fm_benchmark::workloads::{self, sim_layering};
use fm_benchmark::Opts;
use fm_core::Fm2Engine;
use fm_model::MachineProfile;

/// Two ranks spin on two cores: tests that run workloads take turns, or
/// four spinning threads share two cores and time means nothing.
static TWO_CORES: Mutex<()> = Mutex::new(());

fn opts(traced: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: f64::from(spec::RUN_SECONDS) / 200.0,
        traced,
    }
}

fn metric_names(line: &str) -> Vec<String> {
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    metrics
        .split("\"unit\"")
        .filter_map(|chunk| chunk.rsplit_once("\": {\"value\"").map(|(head, _)| head))
        .map(|head| head.rsplit_once('"').expect("quoted name").1.to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_end_to_end_set() {
    let _turn = TWO_CORES.lock().unwrap_or_else(|e| e.into_inner());
    let started = Instant::now();
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for &w in WORKLOADS {
        let r: RunResult = workloads::run(w, &opts(false)).expect("declared workload");
        assert_eq!(r.failed, 0, "{}: {:?}", w, r.notes);
        assert!(r.correct() && r.attempted > 0, "{}", w);
        let line = r.json_line(false);
        assert_eq!(metric_names(&line), declared, "{}", w);
        for m in END_TO_END {
            let v = r.get(m.name).expect("printed above");
            assert!(v > 0.0 && v.is_finite(), "{} {} = {v}", w, m.name);
        }
    }
    assert!(
        started.elapsed().as_secs_f64() < 10.0,
        "1/200 scale took {:?}",
        started.elapsed()
    );
}

#[test]
fn traced_runs_print_the_declared_per_layer_set_and_the_promised_zeros() {
    let _turn = TWO_CORES.lock().unwrap_or_else(|e| e.into_inner());
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for &w in WORKLOADS {
        let r = workloads::run(w, &opts(true)).expect("declared workload");
        assert_eq!(r.failed, 0, "{}: {:?}", w, r.notes);
        assert_eq!(metric_names(&r.json_line(true)), declared, "{}", w);
        match w {
            "shm_small" => {
                // Zero in steady state; a rare pool miss under a burst is
                // the program's to make, so allow a trace of them.
                assert!(r.get("fm-core.buf.allocs_per_msg").unwrap() < 1e-3);
                assert!(r.get("fm-shm.ring_pushpop_ns").unwrap() > 0.0);
            }
            // No loss is injected, but the kernel may still drop when the
            // receiver lags and the adaptive timer may fire early: the
            // clean path's resends are measured, not assumed zero.
            "udp_clean" => assert!(r.get("fm-core.reliable.useful_tx_share").unwrap() > 0.5),
            "udp_lossy" => assert!(r.get("fm-core.reliable.retx_per_kmsg").unwrap() > 0.0),
            "sim_layering" => {
                let ledger = r.get("ledger.rungs_over_p50").unwrap();
                assert!((ledger - 1.0).abs() <= 0.10, "sim ledger {ledger}");
                // The copies Figs. 3-4 charge: MPI over FM 1.x must stay
                // far below MPI over FM 2.x.
                assert!(r.get("mpi-fm.sim_eff_fm1_2k").unwrap() < 0.5);
                assert!(r.get("mpi-fm.sim_eff_fm2_2k").unwrap() > 0.7);
            }
            _ => {}
        }
    }
}

/// The objects of array `key` in `BENCHMARK.json`, one per line there.
fn declared_in_json<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let body = json
        .split_once(&format!("\"{key}\": ["))
        .expect("array in BENCHMARK.json")
        .1;
    let body = body.split_once("\n  ]").expect("end of array").0;
    body.lines().filter(|l| l.contains('{')).collect()
}

/// String or number field `key` of a one-line JSON object.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let rest = object
        .split_once(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {object}"))
        .1;
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split_once('"').expect("closing quote").0,
        None => rest.split([',', '}']).next().expect("a value").trim(),
    }
}

#[test]
fn benchmark_json_declares_what_the_runner_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |key| -> Vec<&str> {
        declared_in_json(&json, key)
            .into_iter()
            .map(|o| field(o, "name"))
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    let same = |key: &str, table: &[MetricSpec], bounded: bool| {
        let declared = declared_in_json(&json, key);
        assert_eq!(declared.len(), table.len(), "{key}");
        for (object, m) in declared.into_iter().zip(table) {
            assert_eq!(
                (field(object, "name"), field(object, "unit")),
                (m.name, m.unit)
            );
            if bounded {
                assert_eq!(field(object, "bound").parse(), Ok(m.bound), "{}", m.name);
            }
        }
    };
    same("end_to_end", END_TO_END, true);
    same("per_layer", PER_LAYER, false);
    let seconds = json.split_once("\"run_seconds\": ").expect("run_seconds").1;
    let seconds = seconds.split(',').next().expect("a value").trim();
    assert_eq!(seconds.parse(), Ok(spec::RUN_SECONDS));

    // The limits the driver refuses a file for.
    assert!(json.len() < 64 * 1024);
    let word = |s: &str, extra: &[char], max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(&c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(key) {
            assert!(word(name, &['_', '.', '-'], 64), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(name), "{name} is used twice");
        }
    }
    for object in declared_in_json(&json, "workloads") {
        assert!(field(object, "why").len() <= 200);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(word(m.unit, &['_', '/', '%', '.', '-'], 16), "{}", m.unit);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound));
}

#[test]
fn simulated_time_is_exact() {
    let pat = Rc::new(Pattern::new(7, 2048));
    let bad = Rc::default();
    let first = sim_layering::reference(&pat, &bad);
    let second = sim_layering::reference(&pat, &bad);
    assert_eq!(first, second, "virtual time must repeat to the nanosecond");
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(bad.get(), 0);
    // Another seed changes payload bytes, not sizes: same virtual time.
    let other = sim_layering::reference(&Rc::new(Pattern::new(8, 2048)), &bad);
    assert_eq!(first, other);
    // The figures as recorded when the benchmark was defined. A change
    // to the protocol or the charged costs moves them: better is fine
    // (say so in the change), worse by more than 0.1 % fails the run.
    assert_eq!(first, sim_layering::RECORDED);
    let mut worse = first;
    worse.oneway_ns[2] += worse.oneway_ns[2] / 500;
    assert_eq!(worse.worse_than(&first).len(), 1);
    assert!(first.worse_than(&worse).is_empty());
}

#[test]
fn a_corrupted_payload_is_counted_as_failed() {
    let _turn = TWO_CORES.lock().unwrap_or_else(|e| e.into_inner());
    // The receiver expects another seed's pattern: every message it
    // gets is, to it, corrupt.
    let sync = Sync2::new();
    let out = run_ranks(shm_pair("corrupt").expect("open shm pair"), |rank, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let pat = Arc::new(Pattern::new(1 + rank as u64, 2048));
        let mut legs = FmLegs::new(&fm, rank, &sync, &pat);
        legs.stream(2048, 0.0, 64);
        (legs.attempted, legs.failed)
    });
    assert_eq!(out[0], (64, 0));
    assert_eq!(out[1], (64, 64), "all 64 deliveries must fail the check");
    let mut r = RunResult::default();
    r.count(out[0].0, out[1].1);
    assert!(!r.correct());
}
