//! `storebench`: one seeded workload against the LEGOStore deployment.
//!
//! ```text
//! cargo run --release --manifest-path storebench/Cargo.toml -- \
//!     --workload <cas-large|abd-small|reconfig-flip|tcp-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off. `--trace 1` runs the
//! same workload untraced, then traced (`ObsConfig::Metrics` plus a span around every
//! client call), then replays the op stream through the layers one call at a time, and
//! prints the per-layer metrics. Either way the last stdout line is one JSON object,
//! printed only after the correctness gate passed. See `storebench/README.md`.

mod deploy;
mod gate;
mod gen;
mod replay;
mod spec;
mod sys;
mod trace;

use deploy::{Inputs, Pass};
use legostore_erasure::gf256::{self, Kernel};
use legostore_obs::ObsConfig;
use spec::{Runtime, Spec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Environment variables that would change what the store runs: the GF(256) kernel
/// tier, and the telemetry level and epoch lease the TCP server reads for itself.
const REFUSED_ENV: [&str; 3] = [
    "LEGOSTORE_GF_KERNEL",
    "LEGOSTORE_TRACE",
    "LEGOSTORE_EPOCH_LEASE_MS",
];

/// Largest relative gap allowed between the replay's messages/bytes per op and the
/// traced deployment's scrape before the traced run is refused.
const FIDELITY_TOLERANCE: f64 = 0.10;

/// GETs and PUTs every run should record, so that each p99 has 10 samples beyond it.
const MIN_OPS_PER_KIND: usize = 1000;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = spec::find(&name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!("usage: storebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("storebench: refusing to run with {var} set; unset it so every run measures the same program");
        return ExitCode::from(2);
    }
    println!(
        "# storebench workload={} seed={} stream={:#018x} seconds={} trace={} gf_kernel={} nproc={} clock={}",
        args.spec.name,
        args.seed,
        gen::stream_fingerprint(args.spec, args.seed, 64),
        args.seconds,
        args.trace as u8,
        kernel_label(),
        sys::nproc(),
        match args.spec.runtime {
            Runtime::InProcVirtual => "virtual (latencies are modeled geo ms)",
            Runtime::TcpLoopback => "real (latencies are wall ms from the send)",
        }
    );
    let inputs = Inputs::new(args.spec, args.seed);
    let window = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(&inputs, window)
    } else {
        untraced_run(&inputs, window)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("storebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn kernel_label() -> String {
    let tier = match gf256::active_kernel() {
        Kernel::Scalar => "scalar",
        Kernel::Split => "split",
        Kernel::Simd => "simd",
    };
    #[cfg(target_arch = "x86_64")]
    let isa = if is_x86_feature_detected!("avx2") {
        "avx2"
    } else if is_x86_feature_detected!("ssse3") {
        "ssse3"
    } else {
        "portable"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let isa = "portable";
    format!("{tier}/{isa}")
}

/// The last stdout line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Runs the measured pass with telemetry off and checks the sample floor. A shortfall
/// (a machine slowed by its neighbours) is reported, not fatal: the window is fixed.
fn measured_pass(inputs: &Inputs, window: Duration) -> Result<Pass, String> {
    let pass = deploy::run_pass(inputs, ObsConfig::Off, window, false)?;
    for (kind, n) in [("GET", pass.get_ns.len()), ("PUT", pass.put_ns.len())] {
        if n < MIN_OPS_PER_KIND {
            eprintln!(
                "storebench: warning: only {n} {kind}s completed, fewer than {MIN_OPS_PER_KIND}"
            );
        }
    }
    if pass.reconfig_ns.is_empty() {
        return Err("no reconfiguration completed".into());
    }
    Ok(pass)
}

/// Median over the pass's full rounds of CPU per op (all rounds pooled if none is
/// full), so a neighbour's burst on the machine moves only the rounds it hits.
fn cpu_us_per_op(pass: &Pass) -> f64 {
    if pass.round_cpu_us_per_op.is_empty() {
        pass.cpu_s * 1e6 / pass.client_ops() as f64
    } else {
        sys::median(&pass.round_cpu_us_per_op)
    }
}

fn untraced_run(inputs: &Inputs, window: Duration) -> Result<Report, String> {
    let p = measured_pass(inputs, window)?;
    let metrics = vec![
        ("cpu_us_per_op", cpu_us_per_op(&p), "us"),
        ("get_p50_ms", sys::quantile(&p.get_ns, 0.50) / 1e6, "ms"),
        ("get_p99_ms", sys::quantile(&p.get_ns, 0.99) / 1e6, "ms"),
        ("put_p50_ms", sys::quantile(&p.put_ns, 0.50) / 1e6, "ms"),
        ("put_p99_ms", sys::quantile(&p.put_ns, 0.99) / 1e6, "ms"),
        // Per-direction medians (ABD→CAS, CAS→ABD), averaged.
        ("reconfig_p50_ms", p.reconfig_ns.mean_median() / 1e6, "ms"),
        (
            "success_rate",
            (p.attempted - p.failed) as f64 / p.attempted as f64,
            "fraction",
        ),
        (
            "storage_bytes_per_user_byte",
            sys::median(&p.storage_ratio),
            "ratio",
        ),
        ("peak_rss_mb", sys::peak_rss_mib(), "MiB"),
        ("setup_s", sys::median(&p.setup_s), "s"),
    ];
    eprintln!(
        "storebench: {} GETs, {} PUTs, {} reconfigurations over {:.2} s of op phases ({:.0} ops/s wall)",
        p.get_ns.len(),
        p.put_ns.len(),
        p.reconfig_ns.len(),
        p.wall_s,
        p.client_ops() as f64 / p.wall_s
    );
    eprintln!(
        "storebench: cpu us/op of the {} full rounds: {:.1?}",
        p.round_cpu_us_per_op.len(),
        p.round_cpu_us_per_op
    );
    if let Some(e) = &p.first_error {
        eprintln!("storebench: first failure: {e}");
    }
    Ok(Report {
        attempted: p.attempted,
        failed: p.failed,
        metrics,
    })
}

fn traced_run(inputs: &Inputs, window: Duration) -> Result<Report, String> {
    let spec = inputs.spec;
    let untraced = measured_pass(inputs, window)?;
    let mut traced = deploy::run_pass(inputs, ObsConfig::Metrics, window, true)?;
    let r = faithful_replay(inputs, &traced)?;
    let s = &traced.scrape;
    let ops = s.ops as f64;
    let rops = r.ops as f64;
    let tcp = spec.runtime == Runtime::TcpLoopback;

    // Layer totals per op; the deployment only encodes frames on the TCP runtime.
    let mut layers: Vec<&str> = replay::LAYER_SPANS.to_vec();
    if tcp {
        layers.push("proto.wire");
    }
    let layer_us_per_op: f64 = layers.iter().map(|l| r.self_us(l)).sum::<f64>() / rops;
    let untraced_cpu = cpu_us_per_op(&untraced);
    let traced_cpu = cpu_us_per_op(&traced);
    let frames = (r.requests + r.replies) as f64;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let gets = s.get_ops as f64;
    let metrics = vec![
        (
            "core.runtime_us_per_op",
            untraced_cpu - layer_us_per_op,
            "us",
        ),
        ("core.msgs_per_op", s.requests as f64 / ops, "count"),
        ("core.bytes_per_op", s.bytes as f64 / ops, "bytes"),
        (
            "core.one_phase_get_frac",
            per(s.one_phase_gets as f64, gets),
            "fraction",
        ),
        ("core.retries_per_op", per(s.retries as f64, ops), "count"),
        (
            "core.reconfig_wall_us",
            per(
                traced.reconfig_wall_ns.iter().sum::<u64>() as f64 / 1e3,
                traced.reconfig_wall_ns.len() as f64,
            ),
            "us",
        ),
        (
            "proto.client_us_per_op",
            r.self_us("proto.client") / rops,
            "us",
        ),
        (
            "proto.server_us_per_msg",
            per(r.self_us("proto.server"), r.requests as f64),
            "us",
        ),
        (
            "proto.wire_us_per_msg",
            per(r.self_us("proto.wire"), frames),
            "us",
        ),
        (
            "proto.wire_bytes_per_op",
            r.frame_bytes as f64 / rops,
            "bytes",
        ),
        (
            "proto.reconfig_rounds",
            per(r.reconfig_rounds as f64, r.reconfigs as f64),
            "count",
        ),
        (
            "proto.cas_versions_per_key",
            r.cas_versions_per_key,
            "count",
        ),
        (
            "erasure.encode_us_per_put",
            per(r.self_us("erasure.encode"), r.cas_puts as f64),
            "us",
        ),
        (
            "erasure.decode_us_per_get",
            per(r.self_us("erasure.decode"), r.cas_decodes as f64),
            "us",
        ),
        (
            "lincheck.record_us_per_op",
            r.self_us("lincheck.record") / rops,
            "us",
        ),
        ("lincheck.check_s", sys::median(&untraced.check_s), "s"),
        ("server.queue_depth_max", s.queue_depth_max as f64, "count"),
        (
            "harness.wall_ops_s",
            untraced.client_ops() as f64 / untraced.wall_s,
            "1/s",
        ),
        (
            "trace.overhead_frac",
            (traced_cpu - untraced_cpu) / untraced_cpu,
            "fraction",
        ),
    ];

    eprintln!(
        "storebench: replay of {} ops, self time per op by span:",
        r.ops
    );
    for (name, (ns, count)) in &r.self_ns {
        eprintln!(
            "  {name:<16} {:>10.2} us/op  ({count} spans)",
            *ns as f64 / 1e3 / rops
        );
    }
    eprintln!(
        "  untraced CPU {untraced_cpu:.2} us/op = layers {layer_us_per_op:.2} + runtime residue {:.2}",
        untraced_cpu - layer_us_per_op
    );
    let mut spans = std::mem::take(&mut traced.spans);
    spans.extend(r.spans);
    let path = spans_path(spec.name, inputs.seed);
    trace::write_tsv(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "storebench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    Ok(Report {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
    })
}

/// Replays the op stream of `traced` layer by layer and checks the replay ran the same
/// program: its messages and bytes per op must match the deployment's scrape within
/// [`FIDELITY_TOLERANCE`]. Bytes are compared as each runtime meters them: modeled wire
/// sizes in process, encoded frames over TCP.
fn faithful_replay(inputs: &Inputs, traced: &Pass) -> Result<replay::Replay, String> {
    let spec = inputs.spec;
    let s = &traced.scrape;
    if s.ops == 0 {
        return Err("the traced pass completed no full round to compare the replay with".into());
    }
    let ops = s.ops as f64;
    // One round's worth of ops: a round starts from fresh servers and cold client
    // caches, so a shorter or longer replay would see a different share of cold reads.
    let per_client = spec.ops_per_round / spec.clients.len() as u64;
    let r = replay::run(inputs, per_client, s.reconfigs as f64 / ops)?;
    let rops = r.ops as f64;
    let replay_bytes = match spec.runtime {
        Runtime::TcpLoopback => r.frame_bytes,
        Runtime::InProcVirtual => r.modeled_bytes,
    };
    check_fidelity(
        "messages",
        s.requests as f64 / ops,
        r.requests as f64 / rops,
    )?;
    check_fidelity("bytes", s.bytes as f64 / ops, replay_bytes as f64 / rops)?;
    Ok(r)
}

fn check_fidelity(what: &str, deployed: f64, replayed: f64) -> Result<(), String> {
    let gap = (replayed - deployed).abs() / deployed;
    eprintln!("storebench: replay fidelity: {what}/op deployed {deployed:.3}, replayed {replayed:.3} (gap {gap:.4})");
    if gap.is_nan() || gap > FIDELITY_TOLERANCE {
        return Err(format!(
            "replay {what}/op {replayed:.3} differs from the deployment's {deployed:.3} by more than \
             {FIDELITY_TOLERANCE}; its layer numbers would describe a different program"
        ));
    }
    Ok(())
}

/// Where a traced run writes its spans: `storebench/out/`, inside the checkout.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_check_rejects_a_replay_of_a_different_program() {
        check_fidelity("messages", 6.72, 6.63).unwrap();
        assert!(check_fidelity("messages", 6.72, 5.90).is_err());
        assert!(check_fidelity("bytes", 0.0, 0.0).is_err());
    }

    /// A short traced pass and its replay, on every workload: the replay must describe
    /// the program the deployment ran, and the gate must pass.
    #[test]
    fn replay_matches_the_deployment_on_every_workload() {
        for spec in spec::WORKLOADS {
            let inputs = Inputs::new(spec, 3);
            // Long enough for one full round of every workload (`tcp-mixed` needs ≈7 s).
            let pass = deploy::run_pass(&inputs, ObsConfig::Metrics, Duration::from_secs(12), true)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(pass.client_ops() > 0, "{}", spec.name);
            assert_eq!(pass.failed, 0, "{}: {:?}", spec.name, pass.first_error);
            if let Some(every) = spec.flip_every {
                // Paced by the client: one transfer per `every` client ops, less at most
                // the few a round's end cuts off.
                let (ops, flips) = (pass.scrape.ops, pass.scrape.reconfigs);
                assert!(
                    flips * every <= ops && flips * every * 10 >= ops * 9,
                    "{}: {flips} reconfigurations over {ops} ops",
                    spec.name
                );
            }
            let r =
                faithful_replay(&inputs, &pass).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                replay::LAYER_SPANS.iter().any(|l| r.self_us(l) > 0.0),
                "{}",
                spec.name
            );
        }
    }
}
