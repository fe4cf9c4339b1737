//! The JSON codec on a served cache hit: `parse_request`, `request_key`
//! and `render_response` over the request lines of the benchmark's
//! `paper-cell` serve phase — the first 1000 Table I instances of seed
//! 2009 with U/m < 0.7, rendered as its client sends them — and one hit
//! response per line. Each median is one pass over all lines; the
//! per-request cost is the median divided by the line count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mgrts_bench::runner::InstanceOutcome;
use mgrts_bench::serve::{parse_request, render_response, request_key, ticket_of, Request};
use rt_gen::{GeneratorConfig, ProblemGenerator};
use serde::Serialize;
use serde_json::Value;

const LINES: usize = 1000;
const SEED: u64 = 2009;
const R_MAX: f64 = 0.7;
const BUDGET_MS: u64 = 20;

fn request_lines() -> Vec<String> {
    let gen = ProblemGenerator::new(GeneratorConfig::table1(), SEED);
    (0..)
        .map(|k| gen.nth(k))
        .filter(|p| p.utilization_ratio() < R_MAX)
        .take(LINES)
        .map(|p| {
            format!(
                "{{\"type\":\"solve\",\"taskset\":{},\"m\":{},\"solver\":\"csp2-dc\",\"budget_ms\":{BUDGET_MS},\"seed\":1}}",
                serde_json::to_string(&p.taskset).expect("task sets serialize"),
                p.m,
            )
        })
        .collect()
}

fn hit_response(key: u64) -> Value {
    let field = |k: &str, v: Value| (k.to_string(), v);
    Value::Object(vec![
        field("type", Value::String("result".to_string())),
        field("ticket", Value::String(ticket_of(key))),
        field("outcome", InstanceOutcome::Solved.to_value()),
        field("time_us", Value::UInt(1234)),
        field("solver", Value::String("csp2-dc".to_string())),
        field("cache", Value::String("hit".to_string())),
    ])
}

fn bench_serve_codec(c: &mut Criterion) {
    let lines = request_lines();
    let requests: Vec<_> = lines
        .iter()
        .map(|line| match parse_request(line) {
            Ok(Request::Solve(req)) => req,
            other => panic!("a served line must parse as a solve, got {other:?}"),
        })
        .collect();
    let responses: Vec<Value> = requests
        .iter()
        .map(|req| hit_response(request_key(req, BUDGET_MS)))
        .collect();

    let mut group = c.benchmark_group("serve_codec");
    group.sample_size(20);
    group.bench_function(format!("parse_request_x{LINES}"), |b| {
        b.iter(|| {
            for line in &lines {
                black_box(parse_request(black_box(line)).is_ok());
            }
        });
    });
    group.bench_function(format!("request_key_x{LINES}"), |b| {
        b.iter(|| {
            for req in &requests {
                black_box(request_key(black_box(req), BUDGET_MS));
            }
        });
    });
    group.bench_function(format!("render_response_x{LINES}"), |b| {
        b.iter(|| {
            for v in &responses {
                black_box(render_response(black_box(v)));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_serve_codec);
criterion_main!(benches);
